package actionlog

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"credist/internal/graph"
	"credist/internal/textrec"
)

// Write serializes the log as plain text:
//
//	<numUsers>
//	<user> <action> <time>
//	...
//
// in (action, time) order, the format cmd/datagen emits.
func Write(w io.Writer, l *Log) error {
	return WriteTuples(w, l.NumUsers(), l.Tuples())
}

// WriteTuples serializes a tuple batch in the format Write uses — a
// user-count line followed by "user action time" lines in the order given.
// It is how cmd/datagen emits a held-out action tail for streaming-ingest
// demos; ParseTuples reads it back for Log.AppendWithin.
func WriteTuples(w io.Writer, numUsers int, tuples []Tuple) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d\n", numUsers); err != nil {
		return err
	}
	for _, t := range tuples {
		if _, err := fmt.Fprintf(bw, "%d %d %g\n", t.User, t.Action, t.Time); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseTuples reads a tuple stream in the text format of Read: an optional
// leading user-count line, then one "user action time" tuple per line, in
// file order (no sorting or dedup — Log.Append validates). It returns the
// tuples and the user-count header, or 0 when the header is absent. Blank
// lines and '#' comments are ignored.
func ParseTuples(r io.Reader) ([]Tuple, int, error) {
	var tuples []Tuple
	users, err := scanLines(r, false, math.MaxInt, func(_ int, t Tuple) error {
		tuples = append(tuples, t)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return tuples, max(users, 0), nil
}

// Read parses the format written by Write. Blank lines and '#' comments
// are ignored. maxUsers bounds the user-count header: a log is read
// against a graph and sized by its node count, so the caller passes that
// count, and a larger header is rejected on its own line, before anything
// is sized by it. User ids are checked against the header line by line.
func Read(r io.Reader, maxUsers int) (*Log, error) {
	var b *Builder
	users, err := scanLines(r, true, maxUsers, func(users int, t Tuple) error {
		if b == nil {
			b = NewBuilder(users)
		}
		return b.Add(t.User, t.Action, t.Time)
	})
	switch {
	case err != nil:
		return nil, err
	case users < 0:
		return nil, fmt.Errorf("actionlog: empty input")
	case b == nil:
		b = NewBuilder(users)
	}
	return b.Build(), nil
}

// scanLines is the one parser of the text tuple format. It takes a
// one-field line as the user count — only before any tuple, at most
// maxUsers, and required first when headerFirst is set — and hands each
// "user action time" line to add with the count so far (-1 when absent).
// It returns the count, or -1. Every error names its line.
func scanLines(r io.Reader, headerFirst bool, maxUsers int, add func(users int, t Tuple) error) (int, error) {
	users, tuples := -1, 0
	err := textrec.Scan(r, "actionlog", func(_ int, f []string) error {
		switch {
		case len(f) == 1 && (users >= 0 || tuples > 0):
			return fmt.Errorf("unexpected user-count line %q", f[0])
		case len(f) == 1:
			n, err := strconv.Atoi(f[0])
			if err != nil || n < 0 {
				return fmt.Errorf("bad user count %q", f[0])
			}
			if n > maxUsers {
				return fmt.Errorf("user count %d exceeds the graph (%d nodes)", n, maxUsers)
			}
			users = n
			return nil
		case len(f) != 3:
			return fmt.Errorf("expected 'user action time', got %q", strings.Join(f, " "))
		case headerFirst && users < 0:
			return fmt.Errorf("expected user count")
		}
		t, err := parseTuple(f)
		if err != nil {
			return err
		}
		tuples++
		return add(users, t)
	})
	return users, err
}

// parseTuple parses the "user action time" fields of one line.
func parseTuple(f []string) (Tuple, error) {
	u, err := strconv.ParseInt(f[0], 10, 32)
	if err != nil {
		return Tuple{}, fmt.Errorf("bad user: %w", err)
	}
	a, err := strconv.ParseInt(f[1], 10, 32)
	if err != nil {
		return Tuple{}, fmt.Errorf("bad action: %w", err)
	}
	t, err := strconv.ParseFloat(f[2], 64)
	if err != nil {
		return Tuple{}, fmt.Errorf("bad time: %w", err)
	}
	return Tuple{User: graph.NodeID(u), Action: ActionID(a), Time: t}, nil
}
