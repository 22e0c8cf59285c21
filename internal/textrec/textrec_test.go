package textrec

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

// TestScanSplitsLikeFields: every record Scan hands over holds exactly the
// fields strings.Fields finds on that line, with ASCII and non-ASCII white
// space alike; blank and '#' lines never reach fn, and fn's error names
// its line.
func TestScanSplitsLikeFields(t *testing.T) {
	alphabet := []string{" ", "\t", "\r", "\v", "\f", "\u0085", " ", " ", "#", "x", "7", "é", "\xff", "-"}
	rng := rand.New(rand.NewPCG(5, 5))
	for trial := 0; trial < 2000; trial++ {
		var lines []string
		for range 1 + rng.IntN(4) {
			var b strings.Builder
			for range rng.IntN(12) {
				b.WriteString(alphabet[rng.IntN(len(alphabet))])
			}
			lines = append(lines, b.String())
		}
		var want [][]string
		for _, line := range lines {
			if f := strings.Fields(line); len(f) > 0 && !strings.HasPrefix(f[0], "#") {
				want = append(want, f)
			}
		}
		var got [][]string
		err := Scan(strings.NewReader(strings.Join(lines, "\n")), "test", func(_ int, f []string) error {
			got = append(got, slices.Clone(f))
			return nil
		})
		if err != nil || !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("lines %q: Scan gave %q (%v), strings.Fields %q", lines, got, err, want)
		}
	}
	err := Scan(strings.NewReader("# c\n\na b\n"), "pkg", func(line int, f []string) error {
		return fmt.Errorf("saw %d fields", len(f))
	})
	if err == nil || err.Error() != "pkg: line 3: saw 2 fields" {
		t.Fatalf("error = %v, want pkg: line 3: saw 2 fields", err)
	}
}
