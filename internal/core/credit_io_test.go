package core

import (
	"bytes"
	"math"
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"
)

// readAlloc runs ReadTimeAware over data with the given bound and returns
// its result with the bytes it allocated (process-wide TotalAlloc growth,
// so it includes a little background noise).
func readAlloc(data []byte, maxUsers int) (*TimeAwareCredit, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := ReadTimeAware(bytes.NewReader(data), maxUsers)
	runtime.ReadMemStats(&after)
	return c, after.TotalAlloc - before.TotalAlloc, err
}

// readAllocBound is the most ReadTimeAware may allocate for an input:
// the scanner's fixed buffer and noise, a constant per input byte for
// line buffers, records and their indexes, and the influenceability table
// of at most maxUsers users.
func readAllocBound(data []byte, maxUsers int) uint64 {
	return 1<<20 + 64*uint64(len(data)) + 32*uint64(maxUsers)
}

// TestReadTimeAwareRejectsHugeHeader: a 20-byte parameter file declaring
// two billion users is refused against a 1000-node graph before the
// 16 GB influenceability table is allocated.
func TestReadTimeAwareRejectsHugeHeader(t *testing.T) {
	data := []byte("numUsers 2000000000\n")
	_, alloc, err := readAlloc(data, 1000)
	if err == nil || !strings.Contains(err.Error(), "line 1: numUsers 2000000000 exceeds the graph (1000 nodes)") {
		t.Fatalf("err = %v", err)
	}
	if alloc > 1<<20 {
		t.Fatalf("rejecting the header allocated %d bytes", alloc)
	}
	// The bound itself is accepted.
	if c, err := ReadTimeAware(strings.NewReader("numUsers 1000\n"), 1000); err != nil || c.UniverseSize() != 1000 {
		t.Fatalf("header at the bound: %v", err)
	}
}

// FuzzReadTimeAware: no input allocates past readAllocBound, and whatever
// parses round-trips through WriteTimeAware bit-exactly — the written
// bytes read back to the same parameters (zero infl values are not
// written and read back as +0) and re-write byte for byte.
func FuzzReadTimeAware(f *testing.F) {
	rng := rand.New(rand.NewPCG(67, 68))
	g, log := randomInstance(rng, 30, 12)
	var learned bytes.Buffer
	if err := WriteTimeAware(&learned, LearnTimeAware(g, log)); err != nil {
		f.Fatal(err)
	}
	f.Add(learned.Bytes(), uint16(g.NumNodes()))
	f.Add([]byte("numUsers 2000000000\n"), uint16(1000))
	f.Add([]byte("numUsers 3\ninfl 0 0.5\ninfl 1 -0\ntau 0 1 2.5\ntau 1 0 1e-300\n"), uint16(3))
	f.Add([]byte("numUsers 2\ninfl 1 NaN\ntau 1 0 +Inf\n# comment\n"), uint16(4))
	f.Add([]byte("numUsers 65535\n"), uint16(65535))
	f.Fuzz(func(t *testing.T, data []byte, bound uint16) {
		maxUsers := int(bound)
		c, alloc, err := readAlloc(data, maxUsers)
		if limit := readAllocBound(data, maxUsers); alloc > limit {
			t.Fatalf("%d-byte input allocated %d bytes, bound %d", len(data), alloc, limit)
		}
		if err != nil {
			return
		}
		if c.UniverseSize() > maxUsers {
			t.Fatalf("accepted %d users past the bound %d", c.UniverseSize(), maxUsers)
		}
		var out bytes.Buffer
		if err := WriteTimeAware(&out, c); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTimeAware(bytes.NewReader(out.Bytes()), maxUsers)
		if err != nil {
			t.Fatalf("written parameters do not read back: %v\n%s", err, out.Bytes())
		}
		if len(back.infl) != len(c.infl) {
			t.Fatalf("universe %d read back as %d", len(c.infl), len(back.infl))
		}
		for u, v := range c.infl {
			if v == 0 {
				v = 0 // -0 is not written; it reads back as +0
			}
			if math.Float64bits(back.infl[u]) != math.Float64bits(v) {
				t.Fatalf("infl(%d) %v read back as %v", u, v, back.infl[u])
			}
		}
		want, got := tauMap(c), tauMap(back)
		if len(got) != len(want) {
			t.Fatalf("%d tau records read back as %d", len(want), len(got))
		}
		for e, tau := range want {
			if math.Float64bits(got[e]) != math.Float64bits(tau) {
				t.Fatalf("tau%v %v read back as %v", e, tau, got[e])
			}
		}
		var again bytes.Buffer
		if err := WriteTimeAware(&again, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), out.Bytes()) {
			t.Fatalf("re-written parameters differ:\n%s\nvs\n%s", again.Bytes(), out.Bytes())
		}
	})
}
