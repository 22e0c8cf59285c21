// Package serve is the online query layer over the credit-distribution
// model: it holds learned models as immutable snapshots behind an atomic
// pointer and answers influence queries — spread evaluation, batched
// marginal gains, CELF seed selection, heuristic top-k — over HTTP/JSON.
//
// The paper's pitch is that sigma_cd is computable directly from learned
// data, with no Monte-Carlo simulation; this package is that pitch taken
// online. Every query is answered from the snapshot's precomputed scan
// products, so responses are bit-identical to the offline credist.Model
// calls, and /reload swaps in a newly learned model without dropping
// in-flight requests (each request pins the snapshot pointer it started
// with).
package serve

import (
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"credist"
	"credist/internal/actionlog"
	"credist/internal/par"
	"credist/internal/seedsel"
)

// Source specifies where a snapshot's dataset and model parameters come
// from. Exactly one of Preset or GraphPath+LogPath must be set (or Dataset,
// for embedded use). It doubles as the /reload request body.
type Source struct {
	// Preset names a built-in synthetic dataset (see credist.PresetNames).
	Preset string `json:"preset,omitempty"`
	// GraphPath and LogPath load a dataset from files in the formats
	// written by cmd/datagen.
	GraphPath string `json:"graph,omitempty"`
	LogPath   string `json:"log,omitempty"`
	// ModelPath restores a full binary snapshot written by Model.Save,
	// `credist learn -o` or POST /snapshot: learned parameters plus the
	// scanned UC structure, lineage-checked against the dataset. Only log
	// actions past the snapshot's recorded scan are processed, so starting
	// from a snapshot skips both learning and the full log scan.
	// Lambda/SimpleCredit must match the stored options or be left zero
	// to adopt them. Any other file is refused with the advice to rebuild
	// it with `credist learn -o`.
	ModelPath string `json:"model,omitempty"`
	// Mmap serves the frozen UC base directly out of the ModelPath file
	// through a read-only memory mapping instead of reading the file into
	// a heap buffer: the open copies no cells, and the OS pages shards in
	// and out on demand. It accepts the same files as the heap load.
	// Queries are bit-identical to a heap load, and nothing writes the
	// mapping: ingest scans its tail onto the heap.
	Mmap bool `json:"mmap,omitempty"`
	// TailPath appends an action-log tail file (as written by `datagen
	// -stream`) to the dataset's log before the model binds to it. With
	// ModelPath this is how a restarted server catches up past a checkpoint
	// taken after ingests: the on-disk log plus the tail must cover every
	// action the snapshot recorded.
	TailPath string `json:"tail,omitempty"`
	// Lambda is the UC truncation threshold (paper default 0.001).
	Lambda float64 `json:"lambda,omitempty"`
	// SimpleCredit selects the 1/d_in direct-credit rule instead of the
	// time-aware Eq. (9) rule.
	SimpleCredit bool `json:"simple_credit,omitempty"`

	// Partitions splits the snapshot's one planner into N contiguous
	// influencer-row ranges of its engine, reported per range in /stats,
	// with answers bit-identical at every partition count. 0 (the
	// default) serves the classic single-engine path. The ranges are
	// bookkeeping over the one loaded model — with ModelPath, the one
	// file, heap-read or mapped — so nothing is copied and no file is
	// written; N is clamped to the user count. A partitioned POST
	// /snapshot writes one whole-model file, the same bytes a single
	// engine writes.
	Partitions int `json:"partitions,omitempty"`

	// Dataset bypasses loading entirely; used by tests and embedders.
	Dataset *credist.Dataset `json:"-"`
}

// partitioned reports whether the source asks for partitions at all (1
// partition still takes the partitioned answers; see backend).
func (src Source) partitioned() bool {
	return src.Partitions > 0
}

func (src Source) dataset() (*credist.Dataset, error) {
	switch {
	case src.Dataset != nil:
		return src.Dataset, nil
	case src.Preset != "":
		if src.GraphPath != "" || src.LogPath != "" {
			return nil, fmt.Errorf("preset and graph/log are mutually exclusive")
		}
		return credist.GeneratePreset(src.Preset)
	case src.GraphPath != "" && src.LogPath != "":
		return credist.LoadDataset("custom", src.GraphPath, src.LogPath)
	default:
		return nil, fmt.Errorf("source needs a preset (one of: %s) or both graph and log paths",
			strings.Join(credist.PresetNames(), ", "))
	}
}

// describe renders the source for /stats and logs.
func (src Source) describe() string {
	var s string
	switch {
	case src.Dataset != nil:
		s = "embedded:" + src.Dataset.Name
	case src.Preset != "":
		s = "preset:" + src.Preset
	default:
		s = "files:" + src.GraphPath + "," + src.LogPath
	}
	if src.TailPath != "" {
		s += "+tail:" + src.TailPath
	}
	if src.ModelPath != "" {
		s += " model:" + src.ModelPath
		if src.Mmap {
			s += " (mmap)"
		}
	}
	if src.Partitions > 0 {
		s += fmt.Sprintf(" partitions:%d", src.Partitions)
	}
	return s
}

// SeedsResult is one served CELF seed selection — a prefix of the
// snapshot's single growable selection.
type SeedsResult struct {
	Seeds   []credist.NodeID `json:"seeds"`
	Gains   []float64        `json:"gains"`
	Spread  float64          `json:"spread"`
	Lookups int              `json:"lookups"`
}

// seedPrefix is the published state of a snapshot's seed selection: the
// longest prefix computed (or restored from a binary snapshot) so far.
// Every field is immutable once stored in the atomic pointer, so readers
// slice it lock-free; growth publishes a fresh copy.
type seedPrefix struct {
	seeds     []credist.NodeID
	gains     []float64
	lookupsAt []int64
	spreads   []float64 // spreads[i] = sum(gains[:i+1]), the per-prefix spread table
	// exhausted marks that the candidate pool ran dry: no larger k can
	// ever be answered, so requests beyond len(seeds) return everything.
	exhausted bool
}

// covers reports whether the prefix can answer k without any CELF work.
func (p *seedPrefix) covers(k int) bool { return k <= len(p.seeds) || p.exhausted }

// result slices the prefix's first k seeds into a response. Slices share
// the prefix's immutable arrays; no copying, no locking.
func (p *seedPrefix) result(k int) *SeedsResult {
	if k > len(p.seeds) {
		k = len(p.seeds)
	}
	r := &SeedsResult{Seeds: p.seeds[:k:k], Gains: p.gains[:k:k]}
	if k > 0 {
		r.Spread = p.spreads[k-1]
		r.Lookups = int(p.lookupsAt[k-1])
	}
	if r.Seeds == nil {
		r.Seeds = []credist.NodeID{}
	}
	if r.Gains == nil {
		r.Gains = []float64{}
	}
	return r
}

// newSeedPrefix copies a selection trace into a publishable prefix,
// precomputing the per-prefix spread table.
func newSeedPrefix(res seedsel.Result, exhausted bool) *seedPrefix {
	p := &seedPrefix{
		seeds:     append([]credist.NodeID(nil), res.Seeds...),
		gains:     append([]float64(nil), res.Gains...),
		lookupsAt: append([]int64(nil), res.LookupsAt...),
		spreads:   make([]float64, len(res.Gains)),
		exhausted: exhausted,
	}
	total := 0.0
	for i, g := range p.gains {
		total += g
		p.spreads[i] = total
	}
	return p
}

// Snapshot is one learned model frozen for serving. All public methods are
// safe for concurrent use: queries touch only immutable scan products (the
// evaluator and the backend's frozen planner, which queries only read
// through probes), and seed selection runs on one growable
// per-snapshot selection whose growth is serialized under a lock while
// reads slice the published prefix lock-free.
type Snapshot struct {
	// ID is assigned by the Registry; monotonically increasing per process.
	ID int64
	// LoadedAt is when the snapshot finished building.
	LoadedAt time.Time

	src   Source
	ds    *credist.Dataset
	model *credist.Model
	// be answers every model query: the model and its one planner,
	// partitioned or not (see backend).
	be *backend

	entries       int64
	residentBytes int64
	// Row-store split of residentBytes: heap-allocated shard bytes vs
	// bytes still served out of a mapped snapshot file, plus the backend
	// label ("mmap" while any shard aliases the mapping, else "heap").
	heapBytes   int64
	mappedBytes int64
	rowStore    string

	// Streaming-ingest lineage: the entries and actions this snapshot line
	// held at its last full build or compacting ingest (the base; whatever
	// was ingested since is the delta), plus when and how often it has
	// ingested since its last full build ({} for a freshly built or
	// reloaded snapshot). Engines keep no such split: the delta is only
	// this server's count.
	baseEntries int64
	baseActions int
	ingests     int64
	lastIngest  time.Time

	// Cold-start provenance: when the model came from a binary snapshot
	// file, how many actions the file covered and how many the load
	// appended on top from the dataset's log.
	modelActions int
	tailActions  int

	// selections counts the CELF growth runs this snapshot actually
	// executed — at most one per new high-water k, however many concurrent
	// requests raced for it, and exactly zero for any k at or below the
	// published prefix (including one restored from a model snapshot).
	selections atomic.Int64

	// seedMu serializes growth of the one per-snapshot selection; readers
	// never take it — they slice the atomically published prefix.
	seedMu  sync.Mutex
	seedSel *credist.GrowableSelection // created lazily on first growth
	prefix  atomic.Pointer[seedPrefix]
}

// backend answers a snapshot's model queries: the model plus one frozen
// scanned planner — one engine, split into row-range partitions when the
// source is partitioned. The planner's seed set stays empty forever:
// queries and selections commit their seeds to read-only probes over it
// (the /seeds selection over a clone sharing its shards), and gains,
// selections and explanations are bit-identical at every partition count.
// The methods here are the places where the two shapes answer
// differently.
type backend struct {
	model   *credist.Model
	planner *credist.Planner
	// partitioned is Source.partitioned(): even one partition takes the
	// partitioned answers below.
	partitioned bool
	// approxCap is the RR pool size a partitioned backend caps
	// approximate queries at: the pool the model held at Build, carried
	// through every ingest (0 for one engine).
	approxCap int
}

// spread answers from the model's exact evaluator on one engine.
// Partitions telescope per-seed gains over the lambda-truncated UC
// structure instead, so the propagation-DAG build never happens:
// bit-identical at every partition count, but slightly below the exact
// sigma_cd at lambda > 0 (equal to float tolerance only at lambda = 0).
func (b *backend) spread(seeds []credist.NodeID, o *credist.Objective) (float64, error) {
	if b.partitioned {
		return b.planner.SpreadObj(seeds, o)
	}
	return b.model.SpreadObj(seeds, o)
}

// approxOptions bounds an approximate query. One engine answers /spread
// from the live pool or exactly, and grows the pool for /seeds.
// Partitioned, the pool is capped at the one the model held at Build, its
// persisted sketch: before any ingest that is the live pool, so /spread
// answers from it and nothing is drawn. After one, the successor answers
// /spread exactly until /seeds regrows a pool up to the same size. A
// model built with no persisted sketch answers 501.
func (b *backend) approxOptions(opts credist.ApproxOptions) (credist.ApproxOptions, error) {
	if b.partitioned {
		if b.approxCap == 0 {
			return opts, errApproxPartitioned
		}
		opts.MaxSamples = b.approxCap
	}
	return opts, nil
}

// extend derives the backend serving model, the receiver's model after an
// Ingest: the engine scans only the appended tail, once at any partition
// count, and the receiver keeps serving unchanged.
func (b *backend) extend(model *credist.Model) (*backend, error) {
	planner, err := model.ExtendPlanner(b.planner)
	if err != nil {
		return nil, err
	}
	return &backend{model: model, planner: planner, partitioned: b.partitioned, approxCap: b.approxCap}, nil
}

// partitionStats is per-partition accounting (nil for one engine).
func (b *backend) partitionStats() []credist.PartitionStats {
	if b.partitioned {
		return b.planner.Stats()
	}
	return nil
}

// Build loads the source's dataset, learns (or restores) the model, and
// binds the snapshot's backend. The scanned planner comes from one log
// scan, or, when ModelPath names a binary snapshot, from a lineage-checked
// load that scans only the log tail past the snapshot's recorded actions.
// A partitioned source then splits that one planner into row ranges of
// its engine, so nothing is copied and no file is written. Any failure fails the build, on either shape.
// The returned snapshot has ID 0 until a Registry installs it.
func Build(src Source) (*Snapshot, error) {
	if src.Mmap && src.ModelPath == "" {
		return nil, fmt.Errorf("mmap requires a model path (the mapping is the snapshot file)")
	}
	ds, err := src.dataset()
	if err != nil {
		return nil, err
	}
	if src.TailPath != "" {
		f, err := os.Open(src.TailPath)
		if err != nil {
			return nil, fmt.Errorf("open tail: %w", err)
		}
		batch, header, err := actionlog.ParseTuples(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("append tail %s: %w", src.TailPath, err)
		}
		grown, err := ds.Log.AppendWithin(batch, header, ds.Graph.NumNodes())
		if err != nil {
			return nil, fmt.Errorf("append tail %s: %w", src.TailPath, err)
		}
		ds = &credist.Dataset{Name: ds.Name, Graph: ds.Graph, Log: grown}
	}
	opts := credist.Options{Lambda: src.Lambda, SimpleCredit: src.SimpleCredit}
	model, err := loadModel(src, ds, opts)
	if err != nil {
		return nil, err
	}
	planner := model.NewPlanner()
	if src.partitioned() {
		// No evaluator warm-up runs: /spread and /topk telescope over the
		// planner, and an /ingest leaves the successor's evaluator lazy
		// too, so the propagation-DAG build waits for the first exact
		// eps= answer or an embedder's direct Model.Spread.
		if planner, err = planner.Partition(src.Partitions); err != nil {
			return nil, err
		}
	} else {
		// The model's spread evaluator (the /spread and /topk path) builds
		// lazily on first use. Kick that build off in the background so a
		// snapshot-loaded server binds its port in milliseconds without the
		// first spread query absorbing the whole propagation-DAG build; an
		// earlier request simply waits on the same one-time build.
		go func() { _ = model.Spread(nil) }()
	}
	be := &backend{model: model, planner: planner, partitioned: src.partitioned()}
	if be.partitioned {
		be.approxCap = model.ApproxStats().Samples
	}
	sn := newSnapshot(src, be)
	// Everything the build loaded, a log tail past the snapshot files
	// included, is the base: the delta counts only what /ingest adds.
	sn.markBase()
	sn.modelActions, sn.tailActions = model.SnapshotActions(), model.OpenTailActions()
	// A seed prefix restored with the model (the loads drop it whenever a
	// log tail was appended, so it describes exactly this state) is
	// published immediately: /seeds?k up to its length is served with zero
	// CELF work from the first request on.
	if pfx := model.SeedPrefix(); pfx != nil && len(pfx.Seeds) > 0 {
		sn.prefix.Store(newSeedPrefix(seedsel.Result{
			Seeds:     pfx.Seeds,
			Gains:     pfx.Gains,
			LookupsAt: pfx.LookupsAt,
		}, false))
	}
	return sn, nil
}

// loadModel restores the model from a binary snapshot (memory-mapped
// when the source asks) or learns it from scratch.
func loadModel(src Source, ds *credist.Dataset, opts credist.Options) (*credist.Model, error) {
	switch {
	case src.ModelPath != "" && src.Mmap:
		// The mapping is deliberately never unmapped: ingest successors
		// and selection planners keep reading the still-mapped shards, and
		// even after a /reload the replaced snapshot may be pinned by
		// in-flight requests. One model file's mapping per process
		// lifetime is the cost of never faulting a reader.
		return credist.LoadModelMapped(ds, src.ModelPath, opts)
	case src.ModelPath != "":
		return credist.LoadModel(ds, src.ModelPath, opts)
	default:
		return credist.Learn(ds, opts), nil
	}
}

// newSnapshot is the constructor tail Build and Ingest share: it binds
// the backend and caches the row-store accounting.
func newSnapshot(src Source, be *backend) *Snapshot {
	p := be.planner
	return &Snapshot{
		LoadedAt:      time.Now(),
		src:           src,
		ds:            be.model.Dataset(),
		model:         be.model,
		be:            be,
		entries:       p.Entries(),
		residentBytes: p.ResidentBytes(),
		heapBytes:     p.HeapBytes(),
		mappedBytes:   p.MappedBytes(),
		rowStore:      p.RowStoreBackend(),
	}
}

// Partitioned reports whether this snapshot serves row-range partitions.
func (sn *Snapshot) Partitioned() bool { return sn.src.partitioned() }

// NumPartitions returns the partition count (0 on the single-engine path).
func (sn *Snapshot) NumPartitions() int { return len(sn.PartitionStats()) }

// PartitionStats returns per-partition accounting in partition order (nil
// on the single-engine path).
func (sn *Snapshot) PartitionStats() []credist.PartitionStats { return sn.be.partitionStats() }

// PartitionErr always returns nil: a partition that fails to load fails
// Build instead. Benchmark-pinned: it stays while credist-bench calls it.
func (sn *Snapshot) PartitionErr() error { return nil }

// Ingest builds the successor snapshot extended with a batch of new
// propagations, incrementally: the model's learned parameters stay
// frozen, and only the appended action tail is scanned, once, into a
// successor engine that shares every shard of the backend's. The receiver
// keeps serving unchanged — nothing it references is mutated — and the
// computed seed prefix is invalidated simply by the successor starting
// with an empty selection. compact additionally moves the base marks to
// the successor's totals, resetting the delta counts, on either shape.
func (sn *Snapshot) Ingest(tuples []credist.Tuple, compact bool) (*Snapshot, error) {
	model, err := sn.model.Ingest(tuples)
	if err != nil {
		return nil, err
	}
	be, err := sn.be.extend(model)
	if err != nil {
		return nil, err
	}
	next := newSnapshot(sn.src, be)
	next.baseEntries, next.baseActions = sn.baseEntries, sn.baseActions
	if compact {
		next.markBase()
	}
	next.ingests, next.lastIngest = sn.ingests+1, time.Now()
	next.modelActions, next.tailActions = sn.modelActions, sn.tailActions
	return next, nil
}

// Dataset returns the snapshot's dataset.
func (sn *Snapshot) Dataset() *credist.Dataset { return sn.ds }

// Model returns the underlying learned model.
func (sn *Snapshot) Model() *credist.Model { return sn.model }

// Entries returns the live UC credit-entry count of the backend.
func (sn *Snapshot) Entries() int64 { return sn.entries }

// markBase makes everything the snapshot holds the base: the delta counts
// start again from zero.
func (sn *Snapshot) markBase() {
	sn.baseEntries, sn.baseActions = sn.entries, sn.ds.Log.NumActions()
}

// BaseEntries returns the UC entries the snapshot line held at its last
// full build or compacting ingest.
func (sn *Snapshot) BaseEntries() int64 { return sn.baseEntries }

// DeltaEntries returns the UC entries ingested since the last full build
// or compacting ingest.
func (sn *Snapshot) DeltaEntries() int64 { return sn.entries - sn.baseEntries }

// DeltaActions returns how many actions were ingested since the last full
// build or compacting ingest.
func (sn *Snapshot) DeltaActions() int { return sn.ds.Log.NumActions() - sn.baseActions }

// Ingests returns how many ingest generations this snapshot line has
// accumulated since its last full build or reload.
func (sn *Snapshot) Ingests() int64 { return sn.ingests }

// LastIngest returns when the latest ingest finished (zero time if the
// snapshot came from a full build or reload).
func (sn *Snapshot) LastIngest() time.Time { return sn.lastIngest }

// ResidentBytes returns the UC structure's resident footprint —
// HeapBytes plus MappedBytes.
func (sn *Snapshot) ResidentBytes() int64 { return sn.residentBytes }

// HeapBytes returns the Go-heap-allocated portion of ResidentBytes.
func (sn *Snapshot) HeapBytes() int64 { return sn.heapBytes }

// MappedBytes returns the portion of ResidentBytes still served out of a
// memory-mapped snapshot file (zero unless the source set Mmap).
func (sn *Snapshot) MappedBytes() int64 { return sn.mappedBytes }

// RowStoreBackend reports how the backend's shards are served: "mmap"
// while any shard still aliases a mapped snapshot file, "heap" otherwise.
func (sn *Snapshot) RowStoreBackend() string { return sn.rowStore }

// NumUsers returns the user-universe size, the bound for node-id inputs.
func (sn *Snapshot) NumUsers() int { return sn.Dataset().NumUsers() }

// Spread evaluates the default-objective spread of one seed set; see
// SpreadObj.
func (sn *Snapshot) Spread(seeds []credist.NodeID) (float64, error) { return sn.SpreadObj(seeds, nil) }

// SpreadObj evaluates sigma_obj(S | blocked) under a campaign objective
// (audience weights, time window, blocked rivals; nil is plain sigma_cd).
// The single engine answers from the exact evaluator; the partitioned
// path telescopes per-seed gains over the lambda-truncated UC structure
// instead (see backend).
func (sn *Snapshot) SpreadObj(seeds []credist.NodeID, o *credist.Objective) (float64, error) {
	return sn.be.spread(seeds, o)
}

// ApproxSpread answers a spread query from the model's RR pool, or
// exactly when the pool does not meet eps (see credist.Model.ApproxSpread).
// A partitioned snapshot caps the pool at the size its model file
// persisted, and answers 501 when none was (see backend).
func (sn *Snapshot) ApproxSpread(seeds []credist.NodeID, opts credist.ApproxOptions) (credist.ApproxResult, error) {
	opts, err := sn.be.approxOptions(opts)
	if err != nil {
		return credist.ApproxResult{}, err
	}
	return sn.model.ApproxSpread(seeds, opts)
}

// ApproxSeeds runs RR maximum-coverage seed selection with a confidence
// interval on the selected set's spread; same partitioning rule as
// ApproxSpread.
func (sn *Snapshot) ApproxSeeds(k int, opts credist.ApproxOptions) ([]credist.NodeID, credist.ApproxResult, error) {
	opts, err := sn.be.approxOptions(opts)
	if err != nil {
		return nil, credist.ApproxResult{}, err
	}
	return sn.model.ApproxSeeds(k, opts)
}

// ApproxStats reports the RR tier's sample pool. On a partitioned
// deployment it is the pool restored from the model file's sketch until
// an ingest; the successor's pool grows up to that size on /seeds?eps=.
func (sn *Snapshot) ApproxStats() credist.ApproxStats { return sn.model.ApproxStats() }

var errApproxPartitioned = &apiError{code: http.StatusNotImplemented,
	msg: "approximate queries on a partitioned deployment are capped at the RR pool its model file persisted, and this model has none " +
		"(re-save it with `credist learn -ris-samples` and restart)"}

// SpreadBatch evaluates sigma_cd for many seed sets, fanning the sets over
// the available cores. Each set is evaluated independently, so the floats
// are identical to len(sets) sequential Spread calls.
func (sn *Snapshot) SpreadBatch(sets [][]credist.NodeID) ([]float64, error) {
	out := make([]float64, len(sets))
	errs := make([]error, len(sets))
	par.For(len(sets), 0, func(_, i int) { out[i], errs[i] = sn.Spread(sets[i]) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Gains returns the default-objective marginal gains; see GainsObj.
func (sn *Snapshot) Gains(base, candidates []credist.NodeID) ([]float64, error) {
	return sn.GainsObj(base, candidates, nil)
}

// GainsObj returns the marginal objective gain of each candidate against
// the base seed set (nil o is the default objective), batched, with the
// objective's blocked rivals committed first: the backend planner's
// GainsObj, which commits the seeds to a clone of its probe, so no engine
// is written. Every value is bit-identical at any partition count.
func (sn *Snapshot) GainsObj(base, candidates []credist.NodeID, o *credist.Objective) ([]float64, error) {
	return sn.be.planner.GainsObj(base, candidates, o)
}

// SelectSeeds answers a CELF seed selection for k seeds from the
// snapshot's single growable selection: seeds for the largest k computed
// so far contain the answer for every smaller k, so any request at or
// below the published prefix (including one restored from a binary model
// snapshot) is a lock-free slice with zero CELF work, and only a new
// high-water k pays — for exactly the marginal seeds beyond the current
// prefix, never a recomputation of the prefix itself. Concurrent growth
// requests are serialized; racers that arrive while a sufficient prefix
// is being published are served from it. cached reports whether the
// request was answered without running any selection. The result is
// bit-identical to the offline Planner.Select(k, nil).
func (sn *Snapshot) SelectSeeds(k int) (res *SeedsResult, cached bool, err error) {
	if pv := sn.prefix.Load(); pv != nil && pv.covers(k) {
		return pv.result(k), true, nil
	}
	sn.seedMu.Lock()
	defer sn.seedMu.Unlock()
	if pv := sn.prefix.Load(); pv != nil && pv.covers(k) {
		// A concurrent request grew past k while we waited for the lock.
		return pv.result(k), true, nil
	}
	if sn.seedSel == nil {
		// First growth: resume from the restored prefix when there is one
		// (committing its seeds to the selection's probe costs no gain
		// evaluations), start fresh otherwise. The selection probes a
		// clone of the backend's own (possibly ingest-extended) planner,
		// shards shared — never the model's lazy base,
		// which for an ingest-grown model would be a second from-scratch
		// scan of the combined log. Seeds are committed to a probe, so no
		// engine is written, and the partitioned selection is
		// bit-identical to the single-engine one.
		var restored *credist.SeedPrefix
		if pv := sn.prefix.Load(); pv != nil {
			restored = &credist.SeedPrefix{Seeds: pv.seeds, Gains: pv.gains, LookupsAt: pv.lookupsAt}
		}
		sel, err := sn.be.planner.ResumeSelection(restored)
		if err != nil {
			// A published prefix always comes from this snapshot's model,
			// so Resume cannot reject it; recover into a fresh selection
			// regardless.
			sel, _ = sn.be.planner.ResumeSelection(nil)
		}
		sn.seedSel = sel
	}
	sn.selections.Add(1)
	grown := sn.seedSel.Grow(k)
	pv := newSeedPrefix(grown, sn.seedSel.Exhausted())
	sn.prefix.Store(pv)
	return pv.result(k), false, nil
}

// SelectSeedsObj runs seed selection under a campaign objective —
// audience/window repricing, cost-benefit CELF under a budget, blocked
// rivals excluded and conditioned on. Unlike SelectSeeds it is a fresh
// one-shot run every time: the snapshot's growable selection and its
// published prefix memo answer the default objective only, and an
// objective-shaped result stored there would poison later default
// requests. Bit-identical to the offline Planner.Select at any worker or
// partition count.
func (sn *Snapshot) SelectSeedsObj(k int, o *credist.Objective) (*SeedsResult, error) {
	res, err := sn.be.planner.Select(k, o)
	if err != nil {
		return nil, err
	}
	out := &SeedsResult{Seeds: res.Seeds, Gains: res.Gains, Spread: res.Spread(), Lookups: res.Lookups}
	if out.Seeds == nil {
		out.Seeds = []credist.NodeID{}
	}
	if out.Gains == nil {
		out.Gains = []float64{}
	}
	return out, nil
}

// ExplainSeed decomposes candidate x's marginal gain (against this
// snapshot's live base state) into its top credit paths. The explained
// Gain is bit-for-bit the snapshot's Gains(nil, {x}) value, at any
// partition count.
func (sn *Snapshot) ExplainSeed(x credist.NodeID, top int) (credist.SeedExplanation, error) {
	return sn.be.planner.ExplainSeed(x, top)
}

// ExplainReach decomposes the credit the given seed set pushes onto
// target v: per-seed shares in request order whose fixed-order fold is
// bit-exactly the returned Total, plus the top contributing paths; the
// same at any partition count.
func (sn *Snapshot) ExplainReach(seeds []credist.NodeID, v credist.NodeID, top int) (credist.ReachExplanation, error) {
	return sn.be.planner.ExplainReach(seeds, v, top)
}

// Selections returns how many CELF growth runs this snapshot has actually
// executed: at most one per new high-water k, and zero for anything the
// computed (or restored) prefix already covers — the diagnostic that pins
// the no-duplicate-work guarantee under concurrent cold traffic.
func (sn *Snapshot) Selections() int64 { return sn.selections.Load() }

// SeedPrefixLen returns the length of the published seed prefix — the
// largest k answerable with zero CELF work.
func (sn *Snapshot) SeedPrefixLen() int {
	if pv := sn.prefix.Load(); pv != nil {
		return len(pv.seeds)
	}
	return 0
}

// checkpointPrefix returns the published seed prefix in the facade's
// persistence form, or nil. POST /snapshot persists it so a restart
// serves /seeds up to the same k instantly.
func (sn *Snapshot) checkpointPrefix() *credist.SeedPrefix {
	pv := sn.prefix.Load()
	if pv == nil || len(pv.seeds) == 0 {
		return nil
	}
	return &credist.SeedPrefix{Seeds: pv.seeds, Gains: pv.gains, LookupsAt: pv.lookupsAt}
}

// ModelActions returns how many actions the binary snapshot file this
// snapshot line cold-started from had scanned (0 when the model was
// learned in-process).
func (sn *Snapshot) ModelActions() int { return sn.modelActions }

// TailActions returns how many log actions past the snapshot file the
// cold start appended (0 when the model was learned in-process).
func (sn *Snapshot) TailActions() int { return sn.tailActions }

// TopK returns the k top users under a heuristic baseline ("highdeg" or
// "pagerank") together with the CD-model spread the set achieves — the
// paper's "Spread Achieved" comparison (Figure 6) as an online query.
func (sn *Snapshot) TopK(method string, k int) ([]credist.NodeID, float64, error) {
	var seeds []credist.NodeID
	switch method {
	case "highdeg":
		seeds = credist.HighDegreeSeeds(sn.Dataset(), k)
	case "pagerank":
		seeds = credist.PageRankSeeds(sn.Dataset(), k)
	default:
		return nil, 0, fmt.Errorf("unknown method %q (valid: highdeg, pagerank)", method)
	}
	spread, err := sn.Spread(seeds)
	if err != nil {
		return nil, 0, err
	}
	return seeds, spread, nil
}

// Registry hands out the current snapshot and swaps in replacements
// atomically. Readers pin a snapshot with Current and keep using it for the
// whole request; a concurrent Install never invalidates it.
type Registry struct {
	cur    atomic.Pointer[Snapshot]
	nextID atomic.Int64
}

// NewRegistry installs the initial snapshot.
func NewRegistry(sn *Snapshot) *Registry {
	r := &Registry{}
	r.Install(sn)
	return r
}

// Current returns the live snapshot.
func (r *Registry) Current() *Snapshot { return r.cur.Load() }

// Install assigns the snapshot the next ID and makes it current.
func (r *Registry) Install(sn *Snapshot) {
	sn.ID = r.nextID.Add(1)
	r.cur.Store(sn)
}
