package actionlog

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzParseTuples drives the ingest tuple parser with arbitrary text. It
// must never panic, and every input it accepts must re-encode through
// WriteTuples to a stream that parses back to the same header and the
// same tuples, bit for bit (times compared by their float64 bits, so
// NaN, infinities and signed zeros count too).
func FuzzParseTuples(f *testing.F) {
	for _, seed := range []string{
		"",
		"4\n0 0 1\n1 0 2.5\n",
		"# comment\n\n3 1 0.25\n2 1 -0\n",
		"7\n",
		"+3\n-1 +2 1e300\n5 5 0x1p-3\n",
		"2 0 NaN\n1 0 -Inf\n",
		"4\n0 0 1\n5\n",
		"0 0\n",
		"99999999999 0 1\n",
		"1 2 3 4\n",
		"  \t3\t4   5.5  \r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tuples, users, err := ParseTuples(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTuples(&buf, users, tuples); err != nil {
			t.Fatalf("WriteTuples: %v", err)
		}
		back, backUsers, err := ParseTuples(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("re-encoded stream %q rejected: %v", buf.String(), err)
		}
		if backUsers != users || len(back) != len(tuples) {
			t.Fatalf("round trip: %d users / %d tuples, want %d / %d", backUsers, len(back), users, len(tuples))
		}
		for i, tu := range tuples {
			b := back[i]
			if b.User != tu.User || b.Action != tu.Action || math.Float64bits(b.Time) != math.Float64bits(tu.Time) {
				t.Fatalf("tuple %d: %+v round-tripped to %+v", i, tu, b)
			}
		}
	})
}
