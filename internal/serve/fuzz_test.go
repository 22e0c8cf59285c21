package serve_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"

	"credist/internal/serve"
)

// TestEpsValidation pins the one eps validator on both approximate routes:
// only a finite number strictly inside (0,1) opts into the RR tier. NaN
// used to slip through (it fails every comparison, so "eps <= 0 || eps >=
// 1" was false) and grew the pool to its sample cap; a rejected request
// must answer 400 naming eps and draw no samples. A valid eps answers 200:
// /seeds from a pool it draws, /spread exactly, drawing nothing, since
// this server holds no pool.
func TestEpsValidation(t *testing.T) {
	for _, route := range []string{"/spread?seeds=1,2,3", "/seeds?k=3"} {
		for _, eps := range []string{"NaN", "nan", "Inf", "-Inf", "0", "1", "0.1"} {
			target := route + "&eps=" + url.QueryEscape(eps)
			h := newTestServer(t).Handler()
			code, body := do(t, h, "GET", target, "")
			_, st := do(t, h, "GET", "/stats", "")
			sampled := st["approx_sampled"].(float64)
			if eps == "0.1" {
				exact := st["approx_spread_exact"].(float64)
				if spread := strings.HasPrefix(route, "/spread"); code != http.StatusOK ||
					(sampled == 0) != spread || (exact == 1) != spread {
					t.Errorf("%s: status %d, %g samples drawn, %g exact answers: %v", target, code, sampled, exact, body)
				}
				continue
			}
			if code != http.StatusBadRequest {
				t.Errorf("%s: status %d, want 400: %v", target, code, body)
			}
			if msg, _ := body["error"].(string); !strings.Contains(msg, "eps") {
				t.Errorf("%s: error %q does not name eps", target, msg)
			}
			if sampled != 0 {
				t.Errorf("%s: rejected request drew %g samples", target, sampled)
			}
		}
	}
}

// fuzzRoutes is the query-string handler table FuzzQueryParams drives.
var fuzzRoutes = []string{"/spread", "/gain", "/seeds", "/topk", "/explain"}

// fuzzServers are a single-engine server and a 2-partition server over the
// same demo dataset, shared across fuzz inputs: both see the same request
// sequence, so their /seeds memos grow in step.
var fuzzServers = sync.OnceValues(func() (http.Handler, http.Handler) {
	handler := func(src serve.Source) http.Handler {
		snap, err := serve.Build(src)
		if err != nil {
			panic(err)
		}
		return serve.New(snap).Handler()
	}
	src := serve.Source{Dataset: demoDataset(), Lambda: 0.001}
	single := handler(src)
	src.Partitions = 2
	return single, handler(src)
})

// FuzzQueryParams feeds raw query strings through the handler table on a
// single-engine and a 2-partition snapshot of the same model. Neither may
// panic or answer 5xx — except 501 for an approximate query on the
// partitioned snapshot, which has no persisted sketch — and every 4xx
// carries a non-empty error. /gain, /explain and exact /seeds must answer
// byte-identically on both (modulo the snapshot id and the cached flag);
// /spread and /topk are excluded because the partitioned spread is the
// lambda-truncated one, below the evaluator's exact sigma_cd by design.
func FuzzQueryParams(f *testing.F) {
	seeds := []struct {
		route uint8
		query string
	}{
		{0, "seeds=1,2,3"},
		{0, "seeds=1,2,3&eps=NaN"},
		{0, "seeds=1,2,3&eps=0.1"},
		{0, "seeds=1,1,2"},
		{0, "seeds=-1,999999"},
		{0, "seeds=1,2&budget=10ms"},
		{0, "seeds=1,2&budget=2.5"},
		{0, "seeds=1,2,3&audience=4,5,6&eps=0.1"},
		{0, "seeds=1,2&window=3&blocked=7"},
		{1, "candidates=4,5&seeds=1,2"},
		{1, "candidates=4,4"},
		{1, "candidates=4,5&audience=1,2,3&window=NaN"},
		{1, "candidates=4&blocked=300"},
		{2, "k=3"},
		{2, "k=5&eps=nan"},
		{2, "k=3&budget=10ms"},
		{2, "k=3&budget=2.5&costs=1:3,2:0.5"},
		{2, "k=4&audience=1,2,3&eps=0.1"},
		{2, "k=3&blocked=1,1"},
		{2, "k=0"},
		{3, "k=3&method=pagerank"},
		{3, "k=3&method=bogus"},
		{4, "seed=4&top=3"},
		{4, "set=1,2&reach=5"},
		{4, "set=1,2,2&reach=999"},
		{4, "seed=1&set=2&reach=3"},
	}
	for _, s := range seeds {
		f.Add(s.route, s.query)
	}
	f.Fuzz(func(t *testing.T, route uint8, query string) {
		single, parted := fuzzServers()
		path := fuzzRoutes[int(route)%len(fuzzRoutes)]
		q, _ := url.ParseQuery(query)
		approx := q.Get("eps") != ""
		if b := q.Get("budget"); b != "" {
			if _, err := strconv.ParseFloat(b, 64); err != nil {
				approx = true
			}
		}
		bodies := make([]string, 2)
		codes := make([]int, 2)
		for i, h := range []http.Handler{single, parted} {
			r := httptest.NewRequest("GET", path, nil)
			r.URL.RawQuery = query
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			codes[i] = w.Code
			var body map[string]any
			if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
				t.Fatalf("%s?%s: status %d, body %q is not JSON: %v", path, query, w.Code, w.Body.String(), err)
			}
			switch {
			case w.Code == http.StatusOK:
			case w.Code == http.StatusNotImplemented && i == 1 && approx:
			case w.Code >= 400 && w.Code < 500:
				if msg, _ := body["error"].(string); msg == "" {
					t.Fatalf("%s?%s: status %d without an error message: %v", path, query, w.Code, body)
				}
			default:
				t.Fatalf("%s?%s: status %d: %v", path, query, w.Code, body)
			}
			delete(body, "snapshot")
			delete(body, "cached")
			out, _ := json.Marshal(body)
			bodies[i] = string(out)
		}
		if path == "/spread" || path == "/topk" || (path == "/seeds" && approx) {
			return
		}
		if codes[0] != codes[1] || bodies[0] != bodies[1] {
			t.Fatalf("%s?%s: single engine answered %d %s, partitioned %d %s",
				path, query, codes[0], bodies[0], codes[1], bodies[1])
		}
	})
}
