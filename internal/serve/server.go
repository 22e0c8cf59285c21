package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"credist"
	"credist/internal/actionlog"
)

// Server is the HTTP front end: a snapshot registry, a request router, and
// request metrics. Create one with New, mount Handler on an http.Server.
type Server struct {
	reg *Registry
	mux *http.ServeMux
	met *metrics
	// routeNames and allowed are derived from the handle registrations in
	// New (metrics keys; path -> allowed verbs for 405s) and are read-only
	// once New returns.
	routeNames []string
	allowed    map[string][]string
	// reloadMu serializes snapshot builds; queries never take it.
	reloadMu sync.Mutex
	// checkpointMu guards lastCheckpoint, the provenance of the most recent
	// POST /snapshot, surfaced in /stats.
	checkpointMu   sync.Mutex
	lastCheckpoint *CheckpointInfo
	// Approximate-tier hit counters: how many /spread and /seeds requests
	// were answered from the RR-sample tier instead of the exact engine.
	approxSpreadHits atomic.Int64
	approxSeedsHits  atomic.Int64
	// explainHits counts answered /explain requests (either shape).
	explainHits atomic.Int64
	// Logf, when set, receives one line per reload. Queries are not logged.
	Logf func(format string, args ...any)
}

// CheckpointInfo records a completed POST /snapshot for /stats.
type CheckpointInfo struct {
	Path      string    `json:"path"`
	Snapshot  int64     `json:"snapshot"`
	Actions   int       `json:"actions"`
	Bytes     int64     `json:"bytes"`
	WrittenAt time.Time `json:"written_at"`
}

// maxBodyBytes bounds request bodies; batches beyond this are misuse.
const maxBodyBytes = 16 << 20

// New wires a server around an initial snapshot.
func New(sn *Snapshot) *Server {
	s := &Server{
		reg:     NewRegistry(sn),
		mux:     http.NewServeMux(),
		allowed: make(map[string][]string),
	}
	s.handle("spread", "GET /spread", s.handleSpread)
	s.handle("spread", "POST /spread", s.handleSpread)
	s.handle("gain", "GET /gain", s.handleGain)
	s.handle("gain", "POST /gain", s.handleGain)
	s.handle("seeds", "GET /seeds", s.handleSeeds)
	s.handle("topk", "GET /topk", s.handleTopK)
	s.handle("explain", "GET /explain", s.handleExplain)
	s.handle("healthz", "GET /healthz", s.handleHealthz)
	s.handle("stats", "GET /stats", s.handleStats)
	s.handle("reload", "POST /reload", s.handleReload)
	s.handle("ingest", "POST /ingest", s.handleIngest)
	s.handle("snapshot", "POST /snapshot", s.handleSnapshot)
	s.met = newMetrics(s.routeNames)

	paths := make([]string, 0, len(s.allowed))
	for p := range s.allowed {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	// Fallback for anything the method-qualified patterns above don't
	// match: a known path with the wrong verb gets 405 + Allow, everything
	// else a JSON 404.
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if methods, ok := s.allowed[r.URL.Path]; ok {
			allow := strings.Join(methods, ", ")
			w.Header().Set("Allow", allow)
			writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: fmt.Sprintf(
				"method %s not allowed for %s (allowed: %s)", r.Method, r.URL.Path, allow)})
			return
		}
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf(
			"no such endpoint %q (have: %s)", r.URL.Path, strings.Join(paths, " "))})
	})
	return s
}

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// Current returns the live snapshot (for embedding and tests).
func (s *Server) Current() *Snapshot { return s.reg.Current() }

// Warm grows the current snapshot's seed prefix to k, validating k
// against the model universe first. Unlike the raw
// Snapshot.SelectSeeds, an out-of-range k or an empty selection is an
// error, so a process that warms its cache at startup fails fast and
// loudly instead of serving from a zero-valued result.
func (s *Server) Warm(k int) (*SeedsResult, error) {
	sn := s.reg.Current()
	if k < 1 {
		return nil, fmt.Errorf("warm-up k must be a positive integer, got %d", k)
	}
	if k > sn.NumUsers() {
		return nil, fmt.Errorf("warm-up k %d exceeds the user count %d", k, sn.NumUsers())
	}
	res, _, err := sn.SelectSeeds(k)
	if err != nil {
		return nil, fmt.Errorf("warm-up selection: %w", err)
	}
	if res == nil || len(res.Seeds) == 0 {
		return nil, fmt.Errorf("warm-up selection for k=%d produced no seeds", k)
	}
	return res, nil
}

// handle registers a "METHOD /path" pattern with metrics accounting and
// JSON error mapping, recording the route name and allowed verb as it
// goes. Each request pins the current snapshot once, so a concurrent
// /reload can never switch models mid-request.
func (s *Server) handle(route, pattern string, h func(sn *Snapshot, r *http.Request) (any, error)) {
	method, path, ok := strings.Cut(pattern, " ")
	if !ok {
		panic("serve: pattern must be \"METHOD /path\": " + pattern)
	}
	if !slices.Contains(s.routeNames, route) {
		s.routeNames = append(s.routeNames, route)
	}
	s.allowed[path] = append(s.allowed[path], method)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		s.met.hit(route, time.Now())
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		v, err := h(s.reg.Current(), r)
		if err != nil {
			code := http.StatusInternalServerError
			if ae, ok := err.(*apiError); ok {
				code = ae.code
			}
			writeJSON(w, code, errorBody{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, v)
	})
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

type errorBody struct {
	Error string `json:"error"`
}

type apiError struct {
	code int
	msg  string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &apiError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// --- campaign objectives ----------------------------------------------------

// objectiveParams are the campaign-objective fields /spread, /gain, and
// /seeds share — who counts (audience), when (window), and which rival
// seeds are already committed (blocked). They arrive as query parameters
// (audience=1,2,3&window=12&blocked=4) or the same-named JSON body
// fields. All absent means the default objective, a nil
// *credist.Objective.
type objectiveParams struct {
	Audience []credist.NodeID `json:"audience,omitempty"`
	Window   *float64         `json:"window,omitempty"`
	Blocked  []credist.NodeID `json:"blocked,omitempty"`
}

func (p *objectiveParams) fromQuery(q url.Values) error {
	var err error
	if p.Audience, err = parseIDList("audience", q.Get("audience")); err != nil {
		return err
	}
	if raw := q.Get("window"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return badRequest("window must be a number in the action log's time units, got %q", raw)
		}
		p.Window = &v
	}
	if p.Blocked, err = parseIDList("blocked", q.Get("blocked")); err != nil {
		return err
	}
	return nil
}

// objective lowers the parsed parameters to a facade objective, nil for
// the default. Semantic validation (id ranges, a finite non-negative
// window) happens in the facade, whose errors map to 400s.
func (p *objectiveParams) objective() *credist.Objective {
	if p.Audience == nil && p.Window == nil && p.Blocked == nil {
		return nil
	}
	o := &credist.Objective{Audience: p.Audience, Blocked: p.Blocked}
	if p.Window != nil {
		o.Windowed, o.Window = true, *p.Window
	}
	return o
}

const errObjectiveApprox = "the approximate tier (eps/budget) serves only the default objective; drop audience, window, costs, and blocked"

// --- /spread ---------------------------------------------------------------

type spreadRequest struct {
	Seeds []credist.NodeID   `json:"seeds,omitempty"`
	Sets  [][]credist.NodeID `json:"sets,omitempty"`
	// Eps and Budget route the query to the approximate RR tier: eps is
	// the target relative CI half-width, budget a wall-clock cap (a Go
	// duration string, e.g. "10ms"). Either alone switches tiers.
	Eps    float64 `json:"eps,omitempty"`
	Budget string  `json:"budget,omitempty"`
	objectiveParams
}

// SpreadResponse answers a single-set /spread query.
type SpreadResponse struct {
	Snapshot int64            `json:"snapshot"`
	Seeds    []credist.NodeID `json:"seeds"`
	Spread   float64          `json:"spread"`
}

// SpreadBatchResponse answers a batched /spread query.
type SpreadBatchResponse struct {
	Snapshot int64     `json:"snapshot"`
	Spreads  []float64 `json:"spreads"`
}

// ApproxBody is the bounded-error answer shared by approximate /spread
// and /seeds replies: the RR estimate with its 99% Wilson confidence
// interval around the exact sigma_cd value. AchievedEps is null when the
// estimate is zero (relative precision is undefined there); Elapsed is
// seconds of wall clock spent answering.
type ApproxBody struct {
	Estimate    float64  `json:"estimate"`
	CILow       float64  `json:"ci_low"`
	CIHigh      float64  `json:"ci_high"`
	AchievedEps *float64 `json:"achieved_eps"`
	Samples     int      `json:"samples"`
	Elapsed     float64  `json:"elapsed"`
}

// ApproxSpreadResponse answers /spread?eps= or ?budget= from the RR tier.
type ApproxSpreadResponse struct {
	Snapshot int64            `json:"snapshot"`
	Seeds    []credist.NodeID `json:"seeds"`
	ApproxBody
}

// ApproxSeedsResponse answers /seeds?k=&eps= from the RR tier: seeds by
// greedy sample coverage, interval on the selected set's spread.
type ApproxSeedsResponse struct {
	Snapshot int64            `json:"snapshot"`
	K        int              `json:"k"`
	Seeds    []credist.NodeID `json:"seeds"`
	ApproxBody
}

func approxBody(res credist.ApproxResult) ApproxBody {
	b := ApproxBody{
		Estimate: res.Estimate,
		CILow:    res.CILow,
		CIHigh:   res.CIHigh,
		Samples:  res.Samples,
		Elapsed:  res.Elapsed.Seconds(),
	}
	// +Inf is not representable in JSON; null is the honest encoding.
	if !math.IsInf(res.AchievedEps, 0) {
		eps := res.AchievedEps
		b.AchievedEps = &eps
	}
	return b
}

// checkEps is the one eps validator: the target relative CI half-width
// must be a finite number in (0,1). strconv.ParseFloat accepts NaN, which
// fails every comparison, so the range test is written to reject it.
func checkEps(eps float64) error {
	if !(eps > 0 && eps < 1) {
		return badRequest("eps must be a number in (0,1), got %g", eps)
	}
	return nil
}

// queryEps parses the eps query parameter (0 when absent).
func queryEps(q url.Values) (float64, error) {
	raw := q.Get("eps")
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, badRequest("eps must be a number in (0,1), got %q", raw)
	}
	return v, checkEps(v)
}

// parseApproxOpts extracts the approximate-tier parameters; ok reports
// whether the request opted into the tier at all. eps comes pre-parsed
// (0 = absent) so the JSON body and the query string share one validator.
func parseApproxOpts(eps float64, budget string) (opts credist.ApproxOptions, ok bool, err error) {
	if eps != 0 {
		if err := checkEps(eps); err != nil {
			return opts, false, err
		}
		opts.Eps = eps
		ok = true
	}
	if budget != "" {
		d, err := time.ParseDuration(budget)
		if err != nil || d <= 0 {
			return opts, false, badRequest("budget must be a positive duration (e.g. 10ms), got %q", budget)
		}
		opts.Budget = d
		ok = true
	}
	return opts, ok, nil
}

func (s *Server) handleSpread(sn *Snapshot, r *http.Request) (any, error) {
	var req spreadRequest
	if r.Method == http.MethodPost {
		if err := decodeBody(r, &req); err != nil {
			return nil, err
		}
	} else if err := req.fromQuery(r); err != nil {
		return nil, err
	}
	opts, approx, err := parseApproxOpts(req.Eps, req.Budget)
	if err != nil {
		return nil, err
	}
	obj := req.objective()
	switch {
	case req.Seeds != nil && req.Sets != nil:
		return nil, badRequest("provide seeds or sets, not both")
	case obj != nil && req.Sets != nil:
		return nil, badRequest("audience/window/blocked apply to a single seed set, not a batch")
	case approx && req.Sets != nil:
		return nil, badRequest("eps/budget apply to a single seed set, not a batch")
	case approx && obj != nil:
		return nil, badRequest("%s", errObjectiveApprox)
	case approx:
		if err := validateIDs("seeds", req.Seeds, sn.NumUsers()); err != nil {
			return nil, err
		}
		res, err := sn.ApproxSpread(req.Seeds, opts)
		if err != nil {
			return nil, err
		}
		s.approxSpreadHits.Add(1)
		return ApproxSpreadResponse{Snapshot: sn.ID, Seeds: req.Seeds, ApproxBody: approxBody(res)}, nil
	case req.Seeds != nil:
		if err := validateIDs("seeds", req.Seeds, sn.NumUsers()); err != nil {
			return nil, err
		}
		spread, err := sn.SpreadObj(req.Seeds, obj)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		return SpreadResponse{Snapshot: sn.ID, Seeds: req.Seeds, Spread: spread}, nil
	case req.Sets != nil:
		for i, set := range req.Sets {
			if err := validateIDs(fmt.Sprintf("sets[%d]", i), set, sn.NumUsers()); err != nil {
				return nil, err
			}
		}
		spreads, err := sn.SpreadBatch(req.Sets)
		if err != nil {
			return nil, err
		}
		return SpreadBatchResponse{Snapshot: sn.ID, Spreads: spreads}, nil
	default:
		return nil, badRequest("missing seeds (e.g. /spread?seeds=1,2,3)")
	}
}

func (req *spreadRequest) fromQuery(r *http.Request) error {
	q := r.URL.Query()
	var err error
	if req.Eps, err = queryEps(q); err != nil {
		return err
	}
	req.Budget = q.Get("budget")
	if q.Get("costs") != "" {
		return badRequest("costs and a numeric budget apply to seed selection (/seeds), not spread evaluation")
	}
	if err := req.objectiveParams.fromQuery(q); err != nil {
		return err
	}
	req.Seeds, err = parseIDList("seeds", q.Get("seeds"))
	return err
}

// --- /gain -----------------------------------------------------------------

type gainRequest struct {
	// Seeds is the base seed set S; empty means gains from scratch.
	Seeds []credist.NodeID `json:"seeds,omitempty"`
	// Candidates are scored as sigma_cd(S+c) - sigma_cd(S), batched.
	Candidates []credist.NodeID `json:"candidates"`
	objectiveParams
}

// GainResponse answers /gain; Gains[i] belongs to Candidates[i].
type GainResponse struct {
	Snapshot   int64            `json:"snapshot"`
	Seeds      []credist.NodeID `json:"seeds,omitempty"`
	Candidates []credist.NodeID `json:"candidates"`
	Gains      []float64        `json:"gains"`
}

func (s *Server) handleGain(sn *Snapshot, r *http.Request) (any, error) {
	var req gainRequest
	if r.Method == http.MethodPost {
		if err := decodeBody(r, &req); err != nil {
			return nil, err
		}
	} else {
		q := r.URL.Query()
		if q.Get("costs") != "" || q.Get("budget") != "" {
			return nil, badRequest("costs and budget apply to seed selection (/seeds), not gain evaluation")
		}
		var err error
		if req.Candidates, err = parseIDList("candidates", q.Get("candidates")); err != nil {
			return nil, err
		}
		if raw := q.Get("seeds"); raw != "" {
			if req.Seeds, err = parseIDList("seeds", raw); err != nil {
				return nil, err
			}
		}
		if err := req.objectiveParams.fromQuery(q); err != nil {
			return nil, err
		}
	}
	if len(req.Candidates) == 0 {
		return nil, badRequest("missing candidates (e.g. /gain?candidates=1,2,3)")
	}
	if err := validateIDs("candidates", req.Candidates, sn.NumUsers()); err != nil {
		return nil, err
	}
	if err := validateIDs("seeds", req.Seeds, sn.NumUsers()); err != nil {
		return nil, err
	}
	gains, err := sn.GainsObj(req.Seeds, req.Candidates, req.objective())
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return GainResponse{
		Snapshot:   sn.ID,
		Seeds:      req.Seeds,
		Candidates: req.Candidates,
		Gains:      gains,
	}, nil
}

// --- /seeds ----------------------------------------------------------------

// SeedsResponse answers /seeds?k=N with the first k seeds of the
// snapshot's growable CELF selection; Cached reports whether the request
// was answered from the computed prefix with zero selection work.
type SeedsResponse struct {
	Snapshot int64 `json:"snapshot"`
	K        int   `json:"k"`
	SeedsResult
	Cached bool `json:"cached"`
}

func (s *Server) handleSeeds(sn *Snapshot, r *http.Request) (any, error) {
	k, err := parseK(r, sn.NumUsers())
	if err != nil {
		return nil, err
	}
	q := r.URL.Query()
	eps, err := queryEps(q)
	if err != nil {
		return nil, err
	}
	var op objectiveParams
	if err := op.fromQuery(q); err != nil {
		return nil, err
	}
	costs, err := credist.ParseCosts("costs", q.Get("costs"), sn.NumUsers())
	if err != nil {
		return nil, badRequest("%v", err)
	}
	// budget= is overloaded by value space: a bare number (budget=12.5) is
	// a seed-cost budget for the objective layer, a duration (budget=10ms)
	// the approximate tier's wall-clock cap. The spaces are disjoint —
	// ParseFloat accepts no unit suffix, ParseDuration requires one.
	costBudget := 0.0
	approxBudget := ""
	if raw := q.Get("budget"); raw != "" {
		if v, ferr := strconv.ParseFloat(raw, 64); ferr == nil {
			// ParseFloat also accepts NaN, the infinities, and negatives —
			// none of which any budget can mean. Reject them here, naming
			// both value spaces, instead of letting a NaN slip into the
			// objective layer as a "cost budget".
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return nil, badRequest("budget %q is valid in neither value space: a bare number is a seed-cost budget (finite, non-negative), a duration (e.g. 10ms) the approximate tier's wall-clock cap", raw)
			}
			costBudget = v
		} else {
			approxBudget = raw
		}
	}
	opts, approx, err := parseApproxOpts(eps, approxBudget)
	if err != nil {
		return nil, err
	}
	obj := op.objective()
	if costs != nil || costBudget != 0 {
		if obj == nil {
			obj = &credist.Objective{}
		}
		obj.Costs, obj.Budget = costs, costBudget
	}
	if approx && obj != nil {
		return nil, badRequest("%s", errObjectiveApprox)
	}
	if obj != nil {
		res, err := sn.SelectSeedsObj(k, obj)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		return SeedsResponse{Snapshot: sn.ID, K: k, SeedsResult: *res, Cached: false}, nil
	}
	if approx {
		seeds, res, err := sn.ApproxSeeds(k, opts)
		if err != nil {
			return nil, err
		}
		s.approxSeedsHits.Add(1)
		return ApproxSeedsResponse{Snapshot: sn.ID, K: k, Seeds: seeds, ApproxBody: approxBody(res)}, nil
	}
	res, cached, err := sn.SelectSeeds(k)
	if err != nil {
		return nil, err
	}
	return SeedsResponse{Snapshot: sn.ID, K: k, SeedsResult: *res, Cached: cached}, nil
}

// --- /topk -----------------------------------------------------------------

// TopKResponse answers /topk: a heuristic baseline's seeds scored by the
// CD model.
type TopKResponse struct {
	Snapshot int64            `json:"snapshot"`
	Method   string           `json:"method"`
	K        int              `json:"k"`
	Seeds    []credist.NodeID `json:"seeds"`
	Spread   float64          `json:"spread"`
}

func (s *Server) handleTopK(sn *Snapshot, r *http.Request) (any, error) {
	k, err := parseK(r, sn.NumUsers())
	if err != nil {
		return nil, err
	}
	method := r.URL.Query().Get("method")
	if method == "" {
		method = "highdeg"
	}
	seeds, spread, err := sn.TopK(method, k)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return TopKResponse{Snapshot: sn.ID, Method: method, K: k, Seeds: seeds, Spread: spread}, nil
}

// --- /explain ----------------------------------------------------------------

// ExplainPath is one credit path in an /explain answer: action a gave
// influencer v this much of the explained total through influenced user u.
type ExplainPath struct {
	Influencer credist.NodeID   `json:"influencer"`
	Influenced credist.NodeID   `json:"influenced"`
	Action     credist.ActionID `json:"action"`
	Credit     float64          `json:"credit"`
}

// ExplainSeedResponse answers /explain?seed=u (why-seed): the candidate's
// marginal gain — bit-for-bit the /gain answer for the same candidate —
// decomposed into its top credit paths.
type ExplainSeedResponse struct {
	Snapshot   int64          `json:"snapshot"`
	Seed       credist.NodeID `json:"seed"`
	Gain       float64        `json:"gain"`
	Paths      []ExplainPath  `json:"paths"`
	TotalPaths int            `json:"total_paths"`
}

// ExplainShare is one seed's slice of an explained reach total.
type ExplainShare struct {
	Seed  credist.NodeID `json:"seed"`
	Share float64        `json:"share"`
}

// ExplainReachResponse answers /explain?set=…&reach=v (why-reach): the
// credit the set pushes onto the target, decomposed by seed — the shares,
// folded in request order, sum bit-exactly to total — and by path.
type ExplainReachResponse struct {
	Snapshot   int64            `json:"snapshot"`
	Target     credist.NodeID   `json:"target"`
	Seeds      []credist.NodeID `json:"seeds"`
	Total      float64          `json:"total"`
	PerSeed    []ExplainShare   `json:"per_seed"`
	Paths      []ExplainPath    `json:"paths"`
	TotalPaths int              `json:"total_paths"`
}

func explainPaths(ps []credist.ProvPath) []ExplainPath {
	out := make([]ExplainPath, len(ps))
	for i, p := range ps {
		out[i] = ExplainPath{Influencer: p.Influencer, Influenced: p.Influenced, Action: p.Action, Credit: p.Credit}
	}
	return out
}

// handleExplain answers the two provenance shapes. seed= and set=&reach=
// are mutually exclusive; top= bounds the returned path list (default 10).
func (s *Server) handleExplain(sn *Snapshot, r *http.Request) (any, error) {
	q := r.URL.Query()
	top := 10
	if raw := q.Get("top"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			return nil, badRequest("top must be a positive integer, got %q", raw)
		}
		top = n
	}
	seedRaw, setRaw, reachRaw := q.Get("seed"), q.Get("set"), q.Get("reach")
	switch {
	case seedRaw != "" && (setRaw != "" || reachRaw != ""):
		return nil, badRequest("seed= (why-seed) and set=&reach= (why-reach) are mutually exclusive")
	case seedRaw != "":
		ids, err := parseIDList("seed", seedRaw)
		if err != nil {
			return nil, err
		}
		if len(ids) != 1 {
			return nil, badRequest("seed must be a single user id, got %q", seedRaw)
		}
		if err := validateIDs("seed", ids, sn.NumUsers()); err != nil {
			return nil, err
		}
		ex, err := sn.ExplainSeed(ids[0], top)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		s.explainHits.Add(1)
		return ExplainSeedResponse{
			Snapshot:   sn.ID,
			Seed:       ex.Node,
			Gain:       ex.Gain,
			Paths:      explainPaths(ex.Paths),
			TotalPaths: ex.TotalPaths,
		}, nil
	case setRaw != "" && reachRaw != "":
		seeds, err := parseIDList("set", setRaw)
		if err != nil {
			return nil, err
		}
		if len(seeds) == 0 {
			return nil, badRequest("set must name at least one seed (e.g. /explain?set=1,2&reach=5)")
		}
		if err := validateIDs("set", seeds, sn.NumUsers()); err != nil {
			return nil, err
		}
		targets, err := parseIDList("reach", reachRaw)
		if err != nil {
			return nil, err
		}
		if len(targets) != 1 {
			return nil, badRequest("reach must be a single user id, got %q", reachRaw)
		}
		if err := validateIDs("reach", targets, sn.NumUsers()); err != nil {
			return nil, err
		}
		ex, err := sn.ExplainReach(seeds, targets[0], top)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		s.explainHits.Add(1)
		shares := make([]ExplainShare, len(ex.PerSeed))
		for i, ps := range ex.PerSeed {
			shares[i] = ExplainShare{Seed: ps.Seed, Share: ps.Share}
		}
		return ExplainReachResponse{
			Snapshot:   sn.ID,
			Target:     ex.Target,
			Seeds:      seeds,
			Total:      ex.Total,
			PerSeed:    shares,
			Paths:      explainPaths(ex.Paths),
			TotalPaths: ex.TotalPaths,
		}, nil
	case setRaw != "" || reachRaw != "":
		return nil, badRequest("why-reach needs both set= and reach= (e.g. /explain?set=1,2&reach=5)")
	default:
		return nil, badRequest("missing query: /explain?seed=u (why-seed) or /explain?set=1,2&reach=v (why-reach)")
	}
}

// --- /healthz and /stats ---------------------------------------------------

// HealthResponse answers /healthz.
type HealthResponse struct {
	Status   string `json:"status"`
	Snapshot int64  `json:"snapshot"`
	Dataset  string `json:"dataset"`
}

func (s *Server) handleHealthz(sn *Snapshot, _ *http.Request) (any, error) {
	return HealthResponse{Status: "ok", Snapshot: sn.ID, Dataset: sn.Dataset().Name}, nil
}

// StatsResponse answers /stats: the live snapshot's shape and the server's
// traffic counters.
type StatsResponse struct {
	Snapshot      int64            `json:"snapshot"`
	Dataset       string           `json:"dataset"`
	Source        string           `json:"source"`
	LoadedAt      time.Time        `json:"loaded_at"`
	Users         int              `json:"users"`
	Actions       int              `json:"actions"`
	Tuples        int              `json:"tuples"`
	Entries       int64            `json:"entries"`
	BaseEntries   int64            `json:"base_entries"`
	DeltaEntries  int64            `json:"delta_entries"`
	DeltaActions  int              `json:"delta_actions"`
	Ingests       int64            `json:"ingests"`
	LastIngest    *time.Time       `json:"last_ingest,omitempty"`
	ResidentBytes int64            `json:"resident_bytes"`
	HeapBytes     int64            `json:"heap_bytes"`
	MappedBytes   int64            `json:"mapped_bytes"`
	RowStore      string           `json:"row_store"`
	SeedPrefixK   int              `json:"seed_prefix_k"`
	Selections    int64            `json:"selections"`
	UptimeSec     float64          `json:"uptime_seconds"`
	Requests      int64            `json:"requests"`
	RequestsBy    map[string]int64 `json:"requests_by_endpoint"`
	QPS           float64          `json:"qps_1m"`

	// Approximate RR tier: the current sample pool's size and its exact
	// resident bytes (sample arena plus inverted index), samples drawn by
	// this process (0 right after a sketch-carrying
	// restart), and how many requests each endpoint answered from the
	// tier. On partitioned deployments the pool is capped at the size of
	// the model file's persisted sketch (if any): it serves that sketch,
	// with approx_sampled 0, until an /ingest, after which it regrows up
	// to the cap.
	ApproxSamples        int   `json:"approx_samples"`
	ApproxBytes          int64 `json:"approx_bytes"`
	ApproxSampled        int64 `json:"approx_sampled"`
	ApproxSpreadRequests int64 `json:"approx_spread_requests"`
	ApproxSeedsRequests  int64 `json:"approx_seeds_requests"`

	// Influence provenance: the /explain traffic. Explanations walk the
	// scanned shards, so they hold no state of their own to report.
	ExplainRequests int64 `json:"explain_requests"`

	// Snapshot provenance: where this snapshot line cold-started from
	// (when it was loaded from a binary model file) and the most recent
	// checkpoint written through POST /snapshot.
	ModelFile        string          `json:"model_file,omitempty"`
	ModelActions     int             `json:"model_actions,omitempty"`
	ModelTailActions int             `json:"model_tail_actions,omitempty"`
	LastSnapshot     *CheckpointInfo `json:"last_snapshot,omitempty"`

	// Partitioned serving: one row per partition, present only when the
	// snapshot serves row-range partitions. The top-level
	// entries/heap_bytes/mapped_bytes above are the sums of these rows.
	NumPartitions int             `json:"num_partitions,omitempty"`
	Partitions    []PartitionStat `json:"partitions,omitempty"`
}

// PartitionStat is one partition's shape in /stats: its influencer row
// range ([row_lo,row_hi)) and those rows' share of the resident model.
type PartitionStat struct {
	RowLo       int    `json:"row_lo"`
	RowHi       int    `json:"row_hi"`
	Entries     int64  `json:"entries"`
	HeapBytes   int64  `json:"heap_bytes"`
	MappedBytes int64  `json:"mapped_bytes"`
	RowStore    string `json:"row_store"`
}

func (s *Server) handleStats(sn *Snapshot, _ *http.Request) (any, error) {
	st := sn.Dataset().Stats()
	total, per, qps, uptime := s.met.snapshot(time.Now())
	resp := StatsResponse{
		Snapshot:      sn.ID,
		Dataset:       sn.Dataset().Name,
		Source:        sn.src.describe(),
		LoadedAt:      sn.LoadedAt,
		Users:         sn.NumUsers(),
		Actions:       st.NumActions,
		Tuples:        st.NumTuples,
		Entries:       sn.Entries(),
		BaseEntries:   sn.BaseEntries(),
		DeltaEntries:  sn.DeltaEntries(),
		DeltaActions:  sn.DeltaActions(),
		Ingests:       sn.Ingests(),
		ResidentBytes: sn.ResidentBytes(),
		HeapBytes:     sn.HeapBytes(),
		MappedBytes:   sn.MappedBytes(),
		RowStore:      sn.RowStoreBackend(),
		SeedPrefixK:   sn.SeedPrefixLen(),
		Selections:    sn.Selections(),
		UptimeSec:     uptime.Seconds(),
		Requests:      total,
		RequestsBy:    per,
		QPS:           qps,
	}
	ast := sn.ApproxStats()
	resp.ApproxSamples = ast.Samples
	resp.ApproxBytes = ast.Bytes
	resp.ApproxSampled = ast.Sampled
	resp.ApproxSpreadRequests = s.approxSpreadHits.Load()
	resp.ApproxSeedsRequests = s.approxSeedsHits.Load()
	resp.ExplainRequests = s.explainHits.Load()
	if t := sn.LastIngest(); !t.IsZero() {
		resp.LastIngest = &t
	}
	if sn.src.ModelPath != "" {
		resp.ModelFile = sn.src.ModelPath
		resp.ModelActions = sn.ModelActions()
		resp.ModelTailActions = sn.TailActions()
	}
	if sn.Partitioned() {
		stats := sn.PartitionStats()
		resp.NumPartitions = len(stats)
		for _, st := range stats {
			resp.Partitions = append(resp.Partitions, PartitionStat{
				RowLo:       st.Range.Lo,
				RowHi:       st.Range.Hi,
				Entries:     st.Entries,
				HeapBytes:   st.HeapBytes,
				MappedBytes: st.MappedBytes,
				RowStore:    st.RowStore,
			})
		}
	}
	s.checkpointMu.Lock()
	resp.LastSnapshot = s.lastCheckpoint
	s.checkpointMu.Unlock()
	return resp, nil
}

// --- /reload ---------------------------------------------------------------

// ReloadResponse answers /reload with the installed snapshot's shape.
type ReloadResponse struct {
	Snapshot      int64   `json:"snapshot"`
	Dataset       string  `json:"dataset"`
	Source        string  `json:"source"`
	Entries       int64   `json:"entries"`
	ResidentBytes int64   `json:"resident_bytes"`
	LoadMillis    float64 `json:"load_ms"`
}

// handleReload learns a model from the posted Source and swaps it in. The
// build happens before the swap and outside any lock queries take, so
// in-flight requests keep answering from the old snapshot and new requests
// see the new one only once it is fully ready.
func (s *Server) handleReload(_ *Snapshot, r *http.Request) (any, error) {
	var src Source
	if err := decodeBody(r, &src); err != nil {
		return nil, err
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	start := time.Now()
	sn, err := Build(src)
	if err != nil {
		return nil, badRequest("reload: %v", err)
	}
	s.reg.Install(sn)
	elapsed := time.Since(start)
	s.logf("serve: reloaded snapshot %d (%s): %d users, %d UC entries, %.0f ms",
		sn.ID, src.describe(), sn.NumUsers(), sn.Entries(), float64(elapsed.Milliseconds()))
	return ReloadResponse{
		Snapshot:      sn.ID,
		Dataset:       sn.Dataset().Name,
		Source:        src.describe(),
		Entries:       sn.Entries(),
		ResidentBytes: sn.ResidentBytes(),
		LoadMillis:    float64(elapsed.Nanoseconds()) / 1e6,
	}, nil
}

// --- /ingest ---------------------------------------------------------------

// IngestTuple is one streamed action-log line.
type IngestTuple struct {
	User   credist.NodeID   `json:"user"`
	Action credist.ActionID `json:"action"`
	Time   float64          `json:"time"`
}

// ingestRequest feeds new propagations to the current snapshot. Tuples are
// inline; Log alternatively names a server-side file in the action-log
// text format (as written by `datagen -stream`). Both may be combined: the
// file's tuples are appended first, then the inline batch.
type ingestRequest struct {
	Tuples  []IngestTuple `json:"tuples,omitempty"`
	LogPath string        `json:"log,omitempty"`
	// Compact resets the server's delta counts after the append: the
	// successor's totals become the base. The shards are not touched.
	Compact bool `json:"compact,omitempty"`
}

// IngestResponse answers /ingest with the successor snapshot's shape.
type IngestResponse struct {
	Snapshot       int64   `json:"snapshot"`
	Dataset        string  `json:"dataset"`
	AppendedTuples int     `json:"appended_tuples"`
	Actions        int     `json:"actions"`
	Users          int     `json:"users"`
	Entries        int64   `json:"entries"`
	BaseEntries    int64   `json:"base_entries"`
	DeltaEntries   int64   `json:"delta_entries"`
	DeltaActions   int     `json:"delta_actions"`
	ResidentBytes  int64   `json:"resident_bytes"`
	IngestMillis   float64 `json:"ingest_ms"`
}

// handleIngest extends the current snapshot with streamed propagations and
// atomically swaps in the successor. Like /reload, the build happens
// before the swap and outside any lock queries take, so in-flight requests
// keep answering from the predecessor — which shares its shards with the
// successor instead of being copied. Unlike /reload, nothing is
// relearned or rescanned except the appended action tail.
func (s *Server) handleIngest(_ *Snapshot, r *http.Request) (any, error) {
	var req ingestRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	var tuples []credist.Tuple
	minUsers := 0
	if req.LogPath != "" {
		f, err := os.Open(req.LogPath)
		if err != nil {
			return nil, badRequest("ingest: %v", err)
		}
		fileTuples, header, err := actionlog.ParseTuples(f)
		f.Close()
		if err != nil {
			// Deliberately vague: parse errors quote the offending line, and
			// echoing file contents to HTTP clients would turn this
			// server-side path option into a remote file reader. The CLI
			// parses tails client-side with full error detail.
			return nil, badRequest("ingest: %q is not a parseable action-log tail", req.LogPath)
		}
		tuples = fileTuples
		minUsers = header
	}
	for _, t := range req.Tuples {
		tuples = append(tuples, credist.Tuple{User: t.User, Action: t.Action, Time: t.Time})
	}
	if len(tuples) == 0 {
		return nil, badRequest("ingest: no tuples (provide \"tuples\" or a server-side \"log\" path)")
	}
	// Successor builds are serialized with each other and with reloads so
	// two concurrent ingests cannot both extend the same predecessor.
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	start := time.Now()
	cur := s.reg.Current()
	// The social graph bounds the universe: a tail header declaring more
	// users than the graph holds cannot be honored, only rejected —
	// silently shrinking the declared universe would let the same file
	// mean different things here and in Log.AppendWithin.
	if minUsers > cur.NumUsers() {
		return nil, badRequest("ingest: tail header declares %d users, but the graph has %d nodes", minUsers, cur.NumUsers())
	}
	sn, err := cur.Ingest(tuples, req.Compact)
	if err != nil {
		return nil, badRequest("ingest: %v", err)
	}
	s.reg.Install(sn)
	elapsed := time.Since(start)
	s.logf("serve: ingested %d tuples into snapshot %d (%d actions, %d delta entries), %.0f ms",
		len(tuples), sn.ID, sn.Dataset().Log.NumActions(), sn.DeltaEntries(), float64(elapsed.Milliseconds()))
	return IngestResponse{
		Snapshot:       sn.ID,
		Dataset:        sn.Dataset().Name,
		AppendedTuples: len(tuples),
		Actions:        sn.Dataset().Log.NumActions(),
		Users:          sn.NumUsers(),
		Entries:        sn.Entries(),
		BaseEntries:    sn.BaseEntries(),
		DeltaEntries:   sn.DeltaEntries(),
		DeltaActions:   sn.DeltaActions(),
		ResidentBytes:  sn.ResidentBytes(),
		IngestMillis:   float64(elapsed.Nanoseconds()) / 1e6,
	}, nil
}

// --- /snapshot -------------------------------------------------------------

// snapshotRequest asks the server to checkpoint the current model as a
// binary snapshot at a server-side path.
type snapshotRequest struct {
	Path string `json:"path"`
}

// SnapshotResponse answers POST /snapshot with what was written.
type SnapshotResponse struct {
	Snapshot    int64   `json:"snapshot"`
	Dataset     string  `json:"dataset"`
	Path        string  `json:"path"`
	Actions     int     `json:"actions"`
	Users       int     `json:"users"`
	Entries     int64   `json:"entries"`
	Bytes       int64   `json:"bytes"`
	WriteMillis float64 `json:"write_ms"`
}

// handleSnapshot serializes the current snapshot's model — learned
// parameters, scanned UC structure, dataset lineage — to one server-side
// file, so an operator can checkpoint a long-running ingesting server and
// later restart it from it (serve -model) in milliseconds instead of a
// full relearn+rescan. Single-engine and partitioned snapshots write the
// same whole-model file. It goes to a uniquely named temp file in the
// target directory and is renamed into place, so a crash mid-write never
// leaves a truncated snapshot at the requested path, and two concurrent
// checkpoints to the same path cannot interleave into one file (the later
// rename wins with a complete snapshot).
func (s *Server) handleSnapshot(sn *Snapshot, r *http.Request) (any, error) {
	var req snapshotRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	if req.Path == "" {
		return nil, badRequest("snapshot: missing \"path\"")
	}
	if _, err := os.Stat(filepath.Dir(req.Path)); err != nil {
		return nil, badRequest("snapshot: %v", err)
	}
	// The rename replaces whatever sits at the path. Like /ingest's
	// server-side log option, the path itself is trusted to the
	// operator's network boundary — but an existing file is only
	// replaced if it already is a snapshot, so a checkpoint can never
	// clobber a graph, log, or unrelated file through this endpoint.
	if prev, err := os.Open(req.Path); err == nil {
		header := make([]byte, 8)
		n, _ := io.ReadFull(prev, header)
		prev.Close()
		if !credist.IsModelSnapshot(header[:n]) {
			return nil, badRequest("snapshot: %q exists and is not a model snapshot; refusing to replace it", req.Path)
		}
	}
	start := time.Now()
	// What is written is the planner the snapshot already serves from —
	// its one engine, as one whole-model file — so a
	// checkpoint never blocks queries or pays a second scan. The computed
	// seed prefix rides along: it was selected against exactly the state
	// being written, so a restart from this file serves /seeds up to the
	// same k without running CELF at all.
	if err := sn.model.SaveOn(req.Path, sn.be.planner, sn.checkpointPrefix()); err != nil {
		return nil, fmt.Errorf("snapshot: %v", err)
	}
	var bytes int64
	if fi, err := os.Stat(req.Path); err == nil {
		bytes = fi.Size()
	}
	elapsed := time.Since(start)
	actions := sn.Dataset().Log.NumActions()
	s.checkpointMu.Lock()
	s.lastCheckpoint = &CheckpointInfo{
		Path:      req.Path,
		Snapshot:  sn.ID,
		Actions:   actions,
		Bytes:     bytes,
		WrittenAt: time.Now(),
	}
	s.checkpointMu.Unlock()
	s.logf("serve: wrote snapshot %d to %s (%d actions, %d bytes), %.0f ms",
		sn.ID, req.Path, actions, bytes, float64(elapsed.Milliseconds()))
	return SnapshotResponse{
		Snapshot:    sn.ID,
		Dataset:     sn.Dataset().Name,
		Path:        req.Path,
		Actions:     actions,
		Users:       sn.NumUsers(),
		Entries:     sn.Entries(),
		Bytes:       bytes,
		WriteMillis: float64(elapsed.Nanoseconds()) / 1e6,
	}, nil
}

// --- request parsing -------------------------------------------------------

func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("bad JSON body: %v", err)
	}
	return nil
}

// parseIDList parses a comma-separated node-id list ("1,2,3"); blanks are
// tolerated, range checking happens in validateIDs. name is the parameter
// the list came from, which every error names.
func parseIDList(name, raw string) ([]credist.NodeID, error) {
	if raw == "" {
		return nil, nil
	}
	var ids []credist.NodeID
	for _, part := range strings.Split(raw, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, err := strconv.ParseInt(part, 10, 32)
		if err != nil {
			return nil, badRequest("%s: bad user id %q", name, part)
		}
		ids = append(ids, credist.NodeID(id))
	}
	return ids, nil
}

// validateIDs range-checks a node-id list and rejects duplicates: a
// repeated id in a base seed set would commit the same seed twice,
// silently corrupting the V-S credit restriction (seeds=3,3,3 is never
// what the caller meant), so every id list gets a 400 instead, naming the
// parameter (name) at fault.
func validateIDs(name string, ids []credist.NodeID, numUsers int) error {
	seen := make(map[credist.NodeID]struct{}, len(ids))
	for _, id := range ids {
		if id < 0 || int(id) >= numUsers {
			return badRequest("%s: user id %d out of range [0,%d)", name, id, numUsers)
		}
		if _, dup := seen[id]; dup {
			return badRequest("%s: duplicate user id %d", name, id)
		}
		seen[id] = struct{}{}
	}
	return nil
}

func parseK(r *http.Request, numUsers int) (int, error) {
	raw := r.URL.Query().Get("k")
	if raw == "" {
		return 0, badRequest("missing k (e.g. ?k=10)")
	}
	k, err := strconv.Atoi(raw)
	if err != nil || k < 1 {
		return 0, badRequest("k must be a positive integer, got %q", raw)
	}
	if k > numUsers {
		return 0, badRequest("k %d exceeds user count %d", k, numUsers)
	}
	return k, nil
}
