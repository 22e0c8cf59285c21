package textrec

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// records drains a cursor into the fields of each record line.
func records(t *testing.T, text string) [][]string {
	t.Helper()
	c, err := Read(strings.NewReader(text), "test")
	if err != nil {
		t.Fatal(err)
	}
	var got [][]string
	for c.Next() {
		var f []string
		for b := c.Field(); b != nil; b = c.Field() {
			f = append(f, string(b))
		}
		if c.Record() != strings.Join(f, " ") {
			t.Fatalf("Record() = %q, fields %q", c.Record(), f)
		}
		got = append(got, f)
	}
	return got
}

// TestScanSplitsLikeFields: every record the cursor walks holds exactly
// the fields strings.Fields finds on that line, with ASCII and non-ASCII
// white space alike; blank and '#' lines are never records, and Errorf
// names the record's line.
func TestScanSplitsLikeFields(t *testing.T) {
	alphabet := []string{" ", "\t", "\r", "\v", "\f", "\u0085", "\u00a0", "\u2003", "#", "x", "7", "é", "\xff", "-"}
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
		if got := records(t, strings.Join(lines, "\n")); !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("lines %q: cursor gave %q, strings.Fields %q", lines, got, want)
		}
	}
	c, err := Read(strings.NewReader("# c\n\na b\n"), "pkg")
	if err != nil || !c.Next() {
		t.Fatalf("no record (%v)", err)
	}
	if err := c.Errorf("saw %s", c.Field()); err.Error() != "pkg: line 3: saw a" {
		t.Fatalf("error = %v, want pkg: line 3: saw a", err)
	}
	if c.Next() {
		t.Fatal("a record past the last line")
	}
}

// TestRecordsBoundsRecordLines: Records never undercounts the record
// lines left, and stays within the input's length over minBytes.
func TestRecordsBoundsRecordLines(t *testing.T) {
	for _, text := range []string{"", "0 0 1", "0 0 1\n", "0 0 1\n1 0 2\n", "\n\n\n\n", "# c\n0 0 1\n\n\n\n\n\n\n\n\n1 0 2", "1 2 3\n4 5 6"} {
		c, err := Read(strings.NewReader(text), "test")
		if err != nil {
			t.Fatal(err)
		}
		bound, n := c.Records(6), len(records(t, text))
		if bound < n || bound > (len(text)+1)/6 {
			t.Fatalf("%q: Records(6) = %d for %d records", text, bound, n)
		}
	}
}

// FuzzParseNumbers holds ParseInt32 and ParseFloat to strconv on
// arbitrary bytes: the same value, bit for bit, and an error exactly when
// strconv errs.
func FuzzParseNumbers(f *testing.F) {
	for _, seed := range []string{
		"", "0", "-0", "+1", ".5", "5.", ".", "1e5", "1_0", "inf", "NaN", "0x1p-2",
		"2147483647", "2147483648", "-2147483648", "999999999", "0000000001",
		"12345678901234567", "123456789012345678", "1234567890123456789", "12345678901234567890",
		"9007199254740991", "9007199254740993", "900719925474099.3",
		"440871.389092773", "891480.2404737958", "0.0000000000000000000001", "1.00000000000000000000001",
		"2305154403878.1874", // a mantissa past 2^53, which float64(m)/10^k rounds wrong
		"1..2", "1.2.3", " 1", "1 ", "é",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s := string(b)
		wantI, wantIErr := strconv.ParseInt(s, 10, 32)
		gotI, gotIErr := ParseInt32(b)
		if int64(gotI) != wantI || (gotIErr == nil) != (wantIErr == nil) || fmt.Sprint(gotIErr) != fmt.Sprint(wantIErr) {
			t.Fatalf("ParseInt32(%q) = %d, %v; strconv gives %d, %v", s, gotI, gotIErr, wantI, wantIErr)
		}
		wantF, wantFErr := strconv.ParseFloat(s, 64)
		gotF, gotFErr := ParseFloat(b)
		if math.Float64bits(gotF) != math.Float64bits(wantF) || fmt.Sprint(gotFErr) != fmt.Sprint(wantFErr) {
			t.Fatalf("ParseFloat(%q) = %b, %v; strconv gives %b, %v", s, gotF, gotFErr, wantF, wantFErr)
		}
	})
}
