package serve_test

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"credist"
	"credist/internal/serve"
)

func benchServer(b *testing.B) http.Handler {
	b.Helper()
	snap, err := serve.Build(serve.Source{Dataset: demoDataset(), Lambda: 0.001})
	if err != nil {
		b.Fatalf("Build: %v", err)
	}
	return serve.New(snap).Handler()
}

func hit(b *testing.B, h http.Handler, target string) {
	b.Helper()
	r := httptest.NewRequest("GET", target, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		b.Fatalf("%s: status %d: %s", target, w.Code, w.Body.String())
	}
}

// BenchmarkServeSpreadParallel is the load-smoke number: concurrent /spread
// queries against one snapshot, the serving layer's hot path.
func BenchmarkServeSpreadParallel(b *testing.B) {
	h := benchServer(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			hit(b, h, "/spread?seeds=1,2,3")
		}
	})
}

// BenchmarkServeGainBatch measures a 32-candidate batched gain request.
func BenchmarkServeGainBatch(b *testing.B) {
	h := benchServer(b)
	ids := make([]string, 32)
	for i := range ids {
		ids[i] = strconv.Itoa(i)
	}
	target := "/gain?candidates=" + strings.Join(ids, ",")
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			hit(b, h, target)
		}
	})
}

// BenchmarkServeSeedsCached measures the prefix-served /seeds path: after
// the first request the CELF run is amortized away entirely.
func BenchmarkServeSeedsCached(b *testing.B) {
	h := benchServer(b)
	hit(b, h, "/seeds?k=5") // warm the cache
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			hit(b, h, "/seeds?k=5")
		}
	})
}

// BenchmarkSnapshotClone measures the planner clone a cold /seeds request
// pays instead of a full log rescan. A /gain with a base set clones
// nothing: it commits the base to a read-only probe.
func BenchmarkSnapshotClone(b *testing.B) {
	model := demoModel()
	base := model.NewPlanner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := base.Clone()
		p.Add(credist.NodeID(i % 200))
	}
}
