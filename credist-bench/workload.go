package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"credist"
	"credist/internal/serve"
)

// kind is one request shape of a traffic mix.
type kind int

const (
	kSpread kind = iota
	kSpreadAudience
	kSpreadEps
	kGain
	kSeeds
	kExplain
	kIngest
	numKinds
)

var kindNames = [numKinds]string{"spread", "spread_audience", "spread_eps", "gain", "seeds", "explain", "ingest"}

// route is the endpoint a kind is served by; per-route metrics group by it.
func (k kind) route() string {
	switch k {
	case kSpread, kSpreadAudience, kSpreadEps:
		return "spread"
	default:
		return kindNames[k]
	}
}

func (k kind) String() string { return kindNames[k] }

// routes lists the per-route metric names every workload reports.
var routes = []string{"spread", "gain", "seeds", "explain", "ingest"}

type weighted struct {
	kind   kind
	weight int
}

// workload is one traffic shape against one deployment.
type workload struct {
	name string
	// rate is the fixed offered read rate of the timed phase (req/s).
	rate float64
	mix  []weighted
	// p99Limit is the latency limit the max_rps ladder holds.
	p99Limit time.Duration
	// ladder is the fixed list of offered rates max_rps is searched over.
	ladder []float64
	// source is the deployment serve.Build opens.
	source func(in *inputs) serve.Source
	// tail is the held-out action tail the workload posts to /ingest.
	tail func(in *inputs) []credist.Tuple
	// streamIngest posts the tail during the timed phase beside the reads;
	// otherwise it is posted by a sequential probe after the timed phase.
	streamIngest bool
	// seedsK fixes k for /seeds; 0 draws it from 1..snapSeedK.
	seedsK int
}

// geometric returns the fixed ladder lo·step^i up to hi.
func geometric(lo, hi, step float64) []float64 {
	var out []float64
	for r := lo; r <= hi*1.0001; r *= step {
		out = append(out, float64(int(r*10+0.5))/10)
	}
	return out
}

var readMix = []weighted{
	{kSpread, 6}, {kSpreadAudience, 1}, {kSpreadEps, 1},
	{kGain, 3}, {kSeeds, 1}, {kExplain, 1},
}

var workloads = []*workload{
	{
		name:     "serve-mix",
		rate:     200,
		mix:      readMix,
		p99Limit: 50 * time.Millisecond,
		ladder:   geometric(100, 4000, 1.05),
		source: func(in *inputs) serve.Source {
			return serve.Source{GraphPath: in.graphPath, LogPath: in.snapLog, ModelPath: in.modelPath, Mmap: true}
		},
		tail: func(in *inputs) []credist.Tuple { return in.snapTail },
	},
	{
		name:     "serve-partitioned",
		rate:     40,
		mix:      readMix,
		p99Limit: 250 * time.Millisecond,
		ladder:   geometric(20, 800, 1.05),
		source: func(in *inputs) serve.Source {
			return serve.Source{GraphPath: in.graphPath, LogPath: in.snapLog, ModelPath: in.modelPath, Mmap: true, Partitions: numPartitions}
		},
		tail: func(in *inputs) []credist.Tuple { return in.snapTail },
	},
	{
		name: "ingest",
		rate: 100,
		mix: []weighted{
			{kSpread, 8}, {kGain, 3}, {kSeeds, 1},
		},
		p99Limit: 50 * time.Millisecond,
		ladder:   geometric(50, 4000, 1.05),
		source: func(in *inputs) serve.Source {
			return serve.Source{GraphPath: in.graphPath, LogPath: in.ingestLog, Lambda: 0.001}
		},
		tail:         func(in *inputs) []credist.Tuple { return in.ingestTail },
		streamIngest: true,
		seedsK:       snapSeedK,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have: %s)", name, strings.Join(names, ", "))
}

// request is one scheduled call. Everything in it is drawn from the
// workload seed before the phase starts.
type request struct {
	id    int
	due   time.Duration // offset from the phase start
	kind  kind
	seeds []credist.NodeID // spread set, gain base, explain seed
	cands []credist.NodeID
	k     int
	batch int // index into the phase's ingest batches
}

// streamParams fixes everything a request stream depends on.
type streamParams struct {
	seed     int64
	phase    string // decorrelates the streams of different phases
	rate     float64
	duration time.Duration
	users    int
	firstID  int
	// batches is the number of ingest batches spread evenly over the phase
	// (0 for a read-only phase).
	batches int
}

// audienceSize is how many users a targeted (audience=) spread counts.
const audienceSize = 50

// audience is the run's fixed target audience, drawn from the seed.
func audience(seed int64, users int) []credist.NodeID {
	rng := rand.New(rand.NewPCG(uint64(seed), 0xa0d1e4ce))
	return distinct(rng, users, audienceSize)
}

// stream builds a phase's schedule: reads arrive at fixed spacing 1/rate
// with kinds and ids drawn from the seed, and ingest batches are due at
// the middle of equal slices of the phase. It is a pure function of p.
func stream(w *workload, p streamParams) []request {
	rng := rand.New(rand.NewPCG(uint64(p.seed), hashString(w.name+"/"+p.phase)))
	total := 0
	for _, m := range w.mix {
		total += m.weight
	}
	n := int(p.rate * p.duration.Seconds())
	reqs := make([]request, 0, n+p.batches)
	for i := 0; i < n; i++ {
		r := request{due: time.Duration(float64(i) / p.rate * float64(time.Second))}
		pick := rng.IntN(total)
		for _, m := range w.mix {
			if pick < m.weight {
				r.kind = m.kind
				break
			}
			pick -= m.weight
		}
		switch r.kind {
		case kSpread, kSpreadAudience, kSpreadEps:
			r.seeds = distinct(rng, p.users, 3)
		case kGain:
			ids := distinct(rng, p.users, 3)
			r.seeds, r.cands = ids[:1], ids[1:]
		case kSeeds:
			r.k = 1 + rng.IntN(snapSeedK)
			if w.seedsK > 0 {
				r.k = w.seedsK
			}
		case kExplain:
			r.seeds = distinct(rng, p.users, 1)
		}
		reqs = append(reqs, r)
	}
	for j := 0; j < p.batches; j++ {
		due := time.Duration((float64(j) + 0.5) / float64(p.batches) * float64(p.duration))
		reqs = append(reqs, request{due: due, kind: kIngest, batch: j})
	}
	sort.SliceStable(reqs, func(a, b int) bool { return reqs[a].due < reqs[b].due })
	for i := range reqs {
		reqs[i].id = p.firstID + i
	}
	return reqs
}

// firstOfEachKind returns one request per kind of the mix, the set-up
// probe: set-up ends when each has been answered correctly.
func firstOfEachKind(w *workload, seed int64, users int) []request {
	reqs := stream(w, streamParams{seed: seed, phase: "setup", rate: 1000, duration: 2 * time.Second, users: users})
	var out []request
	seen := map[kind]bool{}
	for _, r := range reqs {
		if !seen[r.kind] {
			seen[r.kind] = true
			r.id = len(out)
			r.due = 0
			out = append(out, r)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].kind < out[b].kind })
	return out
}

// splitBatches cuts a tail into n action-contiguous batches of nearly
// equal action counts (fewer when the tail has fewer actions).
func splitBatches(tail []credist.Tuple, n int) [][]credist.Tuple {
	var actions []int // start index of each action's tuples
	for i, t := range tail {
		if i == 0 || t.Action != tail[i-1].Action {
			actions = append(actions, i)
		}
	}
	if n > len(actions) {
		n = len(actions)
	}
	if n < 1 {
		return nil
	}
	out := make([][]credist.Tuple, n)
	for j := 0; j < n; j++ {
		lo := actions[j*len(actions)/n]
		hi := len(tail)
		if next := (j + 1) * len(actions) / n; next < len(actions) {
			hi = actions[next]
		}
		out[j] = tail[lo:hi]
	}
	return out
}

func distinct(rng *rand.Rand, users, n int) []credist.NodeID {
	ids := make([]credist.NodeID, 0, n)
	for len(ids) < n {
		id := credist.NodeID(rng.IntN(users))
		dup := false
		for _, x := range ids {
			dup = dup || x == id
		}
		if !dup {
			ids = append(ids, id)
		}
	}
	return ids
}

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func idList(ids []credist.NodeID) string {
	var b strings.Builder
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(id)))
	}
	return b.String()
}

// httpRequest renders a scheduled request against base. aud is the run's
// audience; batches the phase's ingest batches.
func (r *request) httpRequest(base string, aud []credist.NodeID, batches [][]credist.Tuple) (*http.Request, error) {
	method, url := http.MethodGet, ""
	var body []byte
	switch r.kind {
	case kSpread:
		url = "/spread?seeds=" + idList(r.seeds)
	case kSpreadAudience:
		url = "/spread?seeds=" + idList(r.seeds) + "&audience=" + idList(aud)
	case kSpreadEps:
		url = "/spread?seeds=" + idList(r.seeds) + "&eps=0.1"
	case kGain:
		url = "/gain?seeds=" + idList(r.seeds) + "&candidates=" + idList(r.cands)
	case kSeeds:
		url = "/seeds?k=" + strconv.Itoa(r.k)
	case kExplain:
		url = "/explain?seed=" + idList(r.seeds) + "&top=10"
	case kIngest:
		method, url = http.MethodPost, "/ingest"
		tuples := make([]serve.IngestTuple, len(batches[r.batch]))
		for i, t := range batches[r.batch] {
			tuples[i] = serve.IngestTuple{User: t.User, Action: t.Action, Time: t.Time}
		}
		var err error
		if body, err = json.Marshal(map[string]any{"tuples": tuples}); err != nil {
			return nil, err
		}
	}
	req, err := http.NewRequest(method, base+url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set(requestIDHeader, strconv.Itoa(r.id))
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, nil
}

// requestIDHeader links a client span to the server span of the same call.
const requestIDHeader = "X-Bench-Request-Id"
