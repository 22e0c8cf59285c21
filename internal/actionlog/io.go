package actionlog

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"

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
	tuples, users, err := parse(r, false, math.MaxInt)
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
	tuples, users, err := parse(r, true, maxUsers)
	switch {
	case err != nil:
		return nil, err
	case users < 0:
		return nil, fmt.Errorf("actionlog: empty input")
	}
	b := &Builder{numUsers: users, tuples: tuples}
	return b.Build(), nil
}

// parse is the one parser of the text tuple format. It takes a one-field
// line as the user count — only before any tuple, at most maxUsers, and
// required first when headerFirst is set, in which case every tuple is
// also checked as Builder.Add checks it. It returns the tuples in file
// order and the count, or -1 when absent. Every error names its line.
func parse(r io.Reader, headerFirst bool, maxUsers int) ([]Tuple, int, error) {
	c, err := textrec.Read(r, "actionlog")
	if err != nil {
		return nil, -1, err
	}
	users := -1
	var tuples []Tuple
	for c.Next() {
		f0, f1, f2 := c.Field(), c.Field(), c.Field()
		switch {
		case f1 == nil && (users >= 0 || tuples != nil):
			return nil, -1, c.Errorf("unexpected user-count line %q", f0)
		case f1 == nil:
			n, err := strconv.Atoi(string(f0))
			if err != nil || n < 0 {
				return nil, -1, c.Errorf("bad user count %q", f0)
			}
			if n > maxUsers {
				return nil, -1, c.Errorf("user count %d exceeds the graph (%d nodes)", n, maxUsers)
			}
			users = n
			continue
		case f2 == nil || c.Field() != nil:
			return nil, -1, c.Errorf("expected 'user action time', got %q", c.Record())
		case headerFirst && users < 0:
			return nil, -1, c.Errorf("expected user count")
		}
		u, err := textrec.ParseInt32(f0)
		if err != nil {
			return nil, -1, c.Errorf("bad user: %w", err)
		}
		a, err := textrec.ParseInt32(f1)
		if err != nil {
			return nil, -1, c.Errorf("bad action: %w", err)
		}
		tm, err := textrec.ParseFloat(f2)
		if err != nil {
			return nil, -1, c.Errorf("bad time: %w", err)
		}
		t := Tuple{User: u, Action: a, Time: tm}
		if headerFirst {
			if err := check(users, t); err != nil {
				return nil, -1, c.Errorf("%w", err)
			}
		}
		if tuples == nil {
			// This line and every further one is at least "0 0 0\n".
			tuples = make([]Tuple, 0, 1+c.Records(6))
		}
		tuples = append(tuples, t)
	}
	return tuples, users, nil
}
