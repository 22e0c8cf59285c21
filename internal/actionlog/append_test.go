package actionlog

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// appendStream parses a tuple stream and appends it as a tail file is
// appended: its header floors the universe, bounded by a graph of 64
// nodes.
func appendStream(l *Log, text string) (*Log, error) {
	batch, header, err := ParseTuples(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	return l.AppendWithin(batch, header, 64)
}

// appendBase builds a two-action log over four users for the append tests.
func appendBase(t *testing.T) *Log {
	t.Helper()
	b := NewBuilder(4)
	for _, tp := range []Tuple{
		{User: 0, Action: 0, Time: 1}, {User: 1, Action: 0, Time: 2},
		{User: 2, Action: 1, Time: 1}, {User: 3, Action: 1, Time: 3},
	} {
		if err := b.Add(tp.User, tp.Action, tp.Time); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	return b.Build()
}

func TestAppendExtendsLog(t *testing.T) {
	l := appendBase(t)
	nl, err := l.Append([]Tuple{
		{User: 1, Action: 2, Time: 5}, {User: 3, Action: 2, Time: 7},
		{User: 0, Action: 3, Time: 2},
	})
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if nl.NumActions() != 4 || nl.NumTuples() != 7 {
		t.Fatalf("got %d actions %d tuples, want 4/7", nl.NumActions(), nl.NumTuples())
	}
	if got := nl.ActionCount(1); got != 2 {
		t.Errorf("A_1 = %d, want 2", got)
	}
	if at, ok := nl.PerformedAt(3, 2); !ok || at != 7 {
		t.Errorf("PerformedAt(3,2) = %g,%v, want 7,true", at, ok)
	}
	// The receiver is untouched.
	if l.NumActions() != 2 || l.NumTuples() != 4 || l.ActionCount(1) != 1 {
		t.Fatalf("receiver mutated: %d actions %d tuples A_1=%d", l.NumActions(), l.NumTuples(), l.ActionCount(1))
	}
}

// TestAppendRejectsOutOfOrder pins the validation contract: batches must
// arrive in the canonical (action, time, user) scan order targeting only
// new actions, with finite times and no duplicate (user, action) pairs.
func TestAppendRejectsOutOfOrder(t *testing.T) {
	l := appendBase(t)
	cases := []struct {
		name    string
		batch   []Tuple
		wantSub string
	}{
		{"existing action", []Tuple{{User: 0, Action: 1, Time: 9}}, "existing action"},
		{"action order", []Tuple{{User: 0, Action: 2, Time: 1}, {User: 0, Action: 3, Time: 1}, {User: 1, Action: 2, Time: 1}}, "out of order"},
		{"time order", []Tuple{{User: 0, Action: 2, Time: 5}, {User: 1, Action: 2, Time: 4}}, "out of order"},
		{"user order on tie", []Tuple{{User: 1, Action: 2, Time: 5}, {User: 0, Action: 2, Time: 5}}, "timestamp tie"},
		{"duplicate user", []Tuple{{User: 1, Action: 2, Time: 5}, {User: 1, Action: 2, Time: 6}}, "appears twice"},
		{"nan time", []Tuple{{User: 0, Action: 2, Time: math.NaN()}}, "non-finite"},
		{"inf time", []Tuple{{User: 0, Action: 2, Time: math.Inf(1)}}, "non-finite"},
		{"negative user", []Tuple{{User: -1, Action: 2, Time: 1}}, "negative user"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := l.Append(tc.batch); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("Append = %v, want error containing %q", err, tc.wantSub)
			}
		})
	}
}

// TestAppendDuplicateStamps: a user may recur across appended actions
// but not within one, even when other users sit between the repeats.
func TestAppendDuplicateStamps(t *testing.T) {
	l := appendBase(t)
	if _, err := l.Append([]Tuple{
		{User: 1, Action: 2, Time: 5}, {User: 2, Action: 2, Time: 6},
		{User: 1, Action: 3, Time: 1}, {User: 2, Action: 3, Time: 2},
	}); err != nil {
		t.Fatalf("Append across actions: %v", err)
	}
	_, err := l.Append([]Tuple{
		{User: 1, Action: 2, Time: 5}, {User: 2, Action: 2, Time: 6}, {User: 1, Action: 2, Time: 7},
	})
	if want := "actionlog: user 1 appears twice in appended action 2"; err == nil || err.Error() != want {
		t.Fatalf("Append = %v, want %q", err, want)
	}
}

// TestAppendWithinBoundsUniverse: AppendWithin rejects a user at or above
// the bound, naming it, and a header above the bound; a header at the
// bound grows the universe to it.
func TestAppendWithinBoundsUniverse(t *testing.T) {
	l := appendBase(t)
	_, err := l.AppendWithin([]Tuple{{User: 0, Action: 2, Time: 1}, {User: 2147483647, Action: 2, Time: 2}}, 0, 6)
	if err == nil || !strings.Contains(err.Error(), "user 2147483647") || !strings.Contains(err.Error(), "exceeds the graph") {
		t.Fatalf("AppendWithin = %v, want an error naming user 2147483647", err)
	}
	if _, err := l.AppendWithin([]Tuple{{User: 6, Action: 2, Time: 1}}, 0, 6); err == nil {
		t.Fatal("AppendWithin accepted user 6 in a 6-node graph")
	}
	if _, err := l.AppendWithin([]Tuple{{User: 0, Action: 2, Time: 1}}, 7, 6); err == nil || !strings.Contains(err.Error(), "declares 7 users") {
		t.Fatalf("AppendWithin = %v, want a header error", err)
	}
	nl, err := l.AppendWithin([]Tuple{{User: 5, Action: 2, Time: 1}}, 6, 6)
	if err != nil || nl.NumUsers() != 6 {
		t.Fatalf("AppendWithin = %v, %v; want a 6-user log", nl, err)
	}
}

// TestAppendRegistersUnseenUsers: users beyond the current universe grow
// it, both implicitly (max appended id) and via an explicit header floor.
func TestAppendRegistersUnseenUsers(t *testing.T) {
	l := appendBase(t)
	nl, err := l.Append([]Tuple{{User: 9, Action: 2, Time: 1}})
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if nl.NumUsers() != 10 {
		t.Fatalf("NumUsers = %d, want 10", nl.NumUsers())
	}
	if got := nl.ActionCount(9); got != 1 {
		t.Errorf("A_9 = %d, want 1", got)
	}
	if got := nl.ActionCount(5); got != 0 {
		t.Errorf("A_5 = %d, want 0", got)
	}
	if l.NumUsers() != 4 {
		t.Fatalf("receiver universe grew: %d", l.NumUsers())
	}

	// An explicit header floor grows the universe past every appended id.
	nl2, err := appendStream(l, "20\n2 2 4.5\n")
	if err != nil || nl2.NumTuples() != l.NumTuples()+1 {
		t.Fatalf("appendStream = %v, %v", nl2, err)
	}
	if nl2.NumUsers() != 20 {
		t.Fatalf("NumUsers = %d, want 20", nl2.NumUsers())
	}
	// A header lower than the current universe never shrinks it.
	nl3, err := appendStream(l, "2\n1 2 4.5\n")
	if err != nil {
		t.Fatalf("appendStream: %v", err)
	}
	if nl3.NumUsers() != 4 {
		t.Fatalf("NumUsers = %d, want 4", nl3.NumUsers())
	}
}

// TestAppendSaveLoadByteStable: a log extended by Append serializes to the
// exact bytes of a log built from scratch over the combined tuples, and
// the Write -> Read -> Write round trip is a fixed point.
func TestAppendSaveLoadByteStable(t *testing.T) {
	l := appendBase(t)
	batch := []Tuple{
		{User: 2, Action: 2, Time: 5e-3},
		{User: 1, Action: 2, Time: 0.1234567890123},
		{User: 0, Action: 3, Time: 1e9},
	}
	nl, err := l.Append(batch)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}

	combined := NewBuilder(4)
	for _, tp := range append(append([]Tuple(nil), l.Tuples()...), batch...) {
		if err := combined.Add(tp.User, tp.Action, tp.Time); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}

	var fromAppend, fromScratch bytes.Buffer
	if err := Write(&fromAppend, nl); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := Write(&fromScratch, combined.Build()); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if !bytes.Equal(fromAppend.Bytes(), fromScratch.Bytes()) {
		t.Fatalf("appended log serializes differently:\n%q\nvs\n%q", fromAppend.String(), fromScratch.String())
	}

	reread, err := Read(bytes.NewReader(fromAppend.Bytes()), 4)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	var again bytes.Buffer
	if err := Write(&again, reread); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if !bytes.Equal(fromAppend.Bytes(), again.Bytes()) {
		t.Fatalf("round trip not byte-stable:\n%q\nvs\n%q", fromAppend.String(), again.String())
	}
}

// TestAppendTupleStreamRoundTrip: WriteTuples -> ParseTuples ->
// AppendWithin equals appending the in-memory batch directly.
func TestAppendTupleStreamRoundTrip(t *testing.T) {
	l := appendBase(t)
	batch := []Tuple{
		{User: 1, Action: 2, Time: 5}, {User: 3, Action: 2, Time: 7.25},
	}
	var buf bytes.Buffer
	if err := WriteTuples(&buf, l.NumUsers(), batch); err != nil {
		t.Fatalf("WriteTuples: %v", err)
	}
	fromStream, err := appendStream(l, buf.String())
	if err != nil || fromStream.NumTuples() != l.NumTuples()+len(batch) {
		t.Fatalf("appendStream = %v, %v", fromStream, err)
	}
	direct, err := l.Append(batch)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	var a, b bytes.Buffer
	if err := Write(&a, fromStream); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := Write(&b, direct); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("stream and direct append diverge:\n%q\nvs\n%q", a.String(), b.String())
	}
}

// TestAppendRejectsGaps: action ids must continue the log contiguously —
// a skipped (or wildly large) id would silently size every per-action
// structure downstream, so it is an error, not an empty action.
func TestAppendRejectsGaps(t *testing.T) {
	l := appendBase(t)
	if _, err := l.Append([]Tuple{{User: 0, Action: 4, Time: 1}}); err == nil || !strings.Contains(err.Error(), "start at action 2") {
		t.Fatalf("leading gap accepted: %v", err)
	}
	if _, err := l.Append([]Tuple{
		{User: 0, Action: 2, Time: 1}, {User: 0, Action: 4, Time: 1},
	}); err == nil || !strings.Contains(err.Error(), "skips action ids") {
		t.Fatalf("interior gap accepted: %v", err)
	}
	// The guard that matters operationally: one absurd action id must not
	// provoke a proportional allocation.
	if _, err := l.Append([]Tuple{{User: 0, Action: 1 << 30, Time: 1}}); err == nil {
		t.Fatal("huge action id accepted")
	}
}
