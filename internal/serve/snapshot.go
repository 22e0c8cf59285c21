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
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"credist"
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
	// ParamsPath optionally restores time-aware parameters written by
	// Model.SaveParams instead of re-learning them from the log.
	ParamsPath string `json:"params,omitempty"`
	// ModelPath restores a full binary snapshot written by Model.Save or
	// POST /snapshot: learned parameters plus the scanned UC structure,
	// lineage-checked against the dataset. Only log actions past the
	// snapshot's recorded scan are processed, so starting from a snapshot
	// skips both learning and the full log scan. Mutually exclusive with
	// ParamsPath; Lambda/SimpleCredit must match the stored options or be
	// left zero to adopt them.
	ModelPath string `json:"model,omitempty"`
	// Mmap serves the frozen UC base directly out of the ModelPath file
	// through a read-only memory mapping instead of parsing it onto the
	// heap: the open touches no cells, so it is near-instant regardless of
	// model size, and the OS pages shards in on first use. Requires
	// ModelPath naming a version-3 snapshot (re-save older files to
	// upgrade). Queries are bit-identical to a heap load; writes (ingest,
	// seed commits) promote only the shards they touch.
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

	// Partitions splits the model into N contiguous row-range engine
	// partitions served behind a scatter-gather coordinator: /spread,
	// /gain, and /seeds fan over the partitions and merge by summation,
	// with answers bit-identical at every partition count. 0 (the default)
	// serves the classic single-engine path. With ModelPath, slice files
	// ("<model>.slice-<i>-of-<N>") are written next to the model on first
	// start and reopened directly — per-partition memory mappings when
	// Mmap is set — on every start after.
	Partitions int `json:"partitions,omitempty"`
	// SlicePaths serves directly from explicitly named snapshot-slice
	// files (as written by Model.WriteSnapshotSlice or a partitioned POST
	// /snapshot), bypassing the full model file entirely. The slices must
	// tile the user universe exactly; overlaps and gaps are rejected
	// naming the offending row ranges.
	SlicePaths []string `json:"slices,omitempty"`

	// Dataset bypasses loading entirely; used by tests and embedders.
	Dataset *credist.Dataset `json:"-"`
}

// partitioned reports whether the source asks for the scatter-gather
// serving path at all (1 partition still exercises the coordinator).
func (src Source) partitioned() bool {
	return src.Partitions > 0 || len(src.SlicePaths) > 0
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
	switch {
	case len(src.SlicePaths) > 0:
		s += fmt.Sprintf(" slices:%d", len(src.SlicePaths))
		if src.Mmap {
			s += " (mmap)"
		}
	case src.Partitions > 0:
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
// evaluator and the base planner, on which only the read-only Gain is ever
// invoked), and seed selection runs on one growable per-snapshot selection
// whose growth is serialized under a lock while reads slice the published
// prefix lock-free.
type Snapshot struct {
	// ID is assigned by the Registry; monotonically increasing per process.
	ID int64
	// LoadedAt is when the snapshot finished building.
	LoadedAt time.Time

	src Source
	// ds is the loaded dataset; in the degraded partitioned state (see
	// partitionErr) it is all a snapshot has, so Dataset reads it rather
	// than going through the model.
	ds    *credist.Dataset
	model *credist.Model
	// base is the one scanned planner for this model. Its seed set stays
	// empty forever — it is compacted (frozen) at build time, so requests
	// that need to commit seeds Clone it by sharing shards and rely on the
	// engine's copy-on-write to stay isolated. nil in partitioned mode,
	// where parts takes its place.
	base *credist.Planner
	// parts is the scatter-gather coordinator over row-range engine
	// partitions (nil on the single-engine path). Exactly one of base and
	// parts is set on a healthy snapshot.
	parts *credist.PartitionedPlanner
	// partitionErr records a failed partition assembly: the snapshot is
	// degraded — /healthz answers 503 and every model query 502 naming the
	// failed partition — instead of the process crash-looping on one
	// corrupt slice file. The CLI still refuses to start on it.
	partitionErr error
	// slicePaths names the slice files the partitions were loaded from
	// (empty for in-memory partitions).
	slicePaths []string

	entries       int64
	residentBytes int64
	// Row-store split of residentBytes: heap-allocated shard bytes vs
	// bytes still served out of a mapped snapshot file, plus the backend
	// label ("mmap" while any shard aliases the mapping, else "heap").
	heapBytes   int64
	mappedBytes int64
	rowStore    string

	// Streaming-ingest lineage: delta shape of the base planner plus when
	// and how often this snapshot line has ingested since its last full
	// build ({} for a freshly built or reloaded snapshot).
	deltaEntries int64
	deltaActions int
	ingests      int64
	lastIngest   time.Time

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

// Build loads the source's dataset, learns (or restores) the model, and
// obtains the scanned planner — from a single log scan, or, when
// ModelPath names a binary snapshot, from a lineage-checked load that
// scans only the log tail past the snapshot's recorded actions. The
// returned snapshot has ID 0 until a Registry installs it.
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
		grown, _, err := ds.Log.AppendFromReader(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("append tail %s: %w", src.TailPath, err)
		}
		if grown.NumUsers() > ds.Graph.NumNodes() {
			return nil, fmt.Errorf("tail %s grows the universe to %d users, but the graph has %d nodes",
				src.TailPath, grown.NumUsers(), ds.Graph.NumNodes())
		}
		ds = &credist.Dataset{Name: ds.Name, Graph: ds.Graph, Log: grown}
	}
	opts := credist.Options{Lambda: src.Lambda, SimpleCredit: src.SimpleCredit}
	if src.partitioned() {
		return buildPartitioned(src, ds, opts)
	}
	var model *credist.Model
	switch {
	case src.ModelPath != "":
		if src.ParamsPath != "" {
			return nil, fmt.Errorf("model and params are mutually exclusive")
		}
		if src.Mmap {
			// The mapping is deliberately never unmapped: ingest successors
			// and selection clones keep sharing the still-mapped shards,
			// and even after a /reload the replaced snapshot may be pinned
			// by in-flight requests. One model file's mapping per process
			// lifetime is the cost of never faulting a reader.
			model, err = credist.LoadModelMapped(ds, src.ModelPath, opts)
		} else {
			model, err = credist.LoadModel(ds, src.ModelPath, opts)
		}
		if err != nil {
			return nil, err
		}
	case src.ParamsPath != "":
		model, err = credist.LoadModel(ds, src.ParamsPath, opts)
		if err != nil {
			return nil, err
		}
	default:
		model = credist.Learn(ds, opts)
	}
	base := model.NewPlanner()
	// For a snapshot load the planner's delta is exactly the log tail the
	// file had not scanned; record it before compaction folds it away.
	tailActions := 0
	if src.ModelPath != "" {
		tailActions = base.DeltaActions()
	}
	// Freeze the scan product: every shard becomes shared, so selection
	// planner clones copy an outer slice instead of the whole UC store.
	base.Compact()
	sn := &Snapshot{
		LoadedAt:      time.Now(),
		src:           src,
		ds:            ds,
		model:         model,
		base:          base,
		entries:       base.Entries(),
		residentBytes: base.ResidentBytes(),
		heapBytes:     base.HeapBytes(),
		mappedBytes:   base.MappedBytes(),
		rowStore:      base.RowStoreBackend(),
	}
	if src.ModelPath != "" {
		sn.modelActions = base.NumActions() - tailActions
		sn.tailActions = tailActions
	}
	// A seed prefix restored with the model (LoadModel drops it whenever a
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
	// The model's spread evaluator (the /spread and /topk path) builds
	// lazily on first use. Kick that build off in the background so a
	// snapshot-loaded server binds its port in milliseconds without the
	// first spread query absorbing the whole propagation-DAG build; an
	// earlier request simply waits on the same one-time build.
	go func() { _ = sn.model.Spread(nil) }()
	return sn, nil
}

// buildPartitioned assembles a scatter-gather snapshot: a coordinator
// over row-range engine partitions, from explicit slice files, a model
// file (slices written next to it on first start, reopened after), or an
// in-memory split of a freshly learned model. A failed partition assembly
// does not fail the build — the snapshot comes back degraded with the
// error recorded, so an embedded server can bind and answer /healthz with
// 503 instead of crash-looping on one corrupt slice; the CLI checks
// PartitionErr and refuses to start.
func buildPartitioned(src Source, ds *credist.Dataset, opts credist.Options) (*Snapshot, error) {
	if src.Partitions > 0 && len(src.SlicePaths) > 0 && src.Partitions != len(src.SlicePaths) {
		return nil, fmt.Errorf("partitions=%d contradicts the %d slice paths", src.Partitions, len(src.SlicePaths))
	}
	if src.ParamsPath != "" && src.ModelPath != "" {
		return nil, fmt.Errorf("model and params are mutually exclusive")
	}
	var (
		model *credist.Model
		parts *credist.PartitionedPlanner
		paths []string
		err   error
	)
	switch {
	case len(src.SlicePaths) > 0:
		paths = src.SlicePaths
		model, parts, err = credist.LoadPartitions(ds, paths, src.Mmap, opts)
	case src.ModelPath != "":
		model, parts, paths, err = credist.LoadModelPartitioned(ds, src.ModelPath, src.Partitions, src.Mmap, opts)
	default:
		if src.ParamsPath != "" {
			model, err = credist.LoadModel(ds, src.ParamsPath, opts)
		} else {
			model = credist.Learn(ds, opts)
		}
		if err == nil {
			base := model.NewPlanner()
			base.Compact()
			parts, err = base.Partition(src.Partitions)
		}
	}
	if err != nil {
		return &Snapshot{LoadedAt: time.Now(), src: src, ds: ds, partitionErr: err}, nil
	}
	sn := &Snapshot{
		LoadedAt:      time.Now(),
		src:           src,
		ds:            ds,
		model:         model,
		parts:         parts,
		slicePaths:    paths,
		entries:       parts.Entries(),
		residentBytes: parts.ResidentBytes(),
		heapBytes:     parts.HeapBytes(),
		mappedBytes:   parts.MappedBytes(),
		rowStore:      parts.RowStoreBackend(),
	}
	if src.ModelPath != "" || len(src.SlicePaths) > 0 {
		sn.modelActions = parts.NumActions() - parts.DeltaActions()
		sn.tailActions = parts.DeltaActions()
	}
	if pfx := model.SeedPrefix(); pfx != nil && len(pfx.Seeds) > 0 {
		sn.prefix.Store(newSeedPrefix(seedsel.Result{
			Seeds:     pfx.Seeds,
			Gains:     pfx.Gains,
			LookupsAt: pfx.LookupsAt,
		}, false))
	}
	// No evaluator warm-up goroutine: in partitioned mode /spread and
	// /topk route through the coordinator, so the propagation-DAG build
	// never happens unless an embedder calls Model.Spread directly.
	//
	// Loading leaves several times the snapshot's live heap behind as
	// garbage: the dataset's text parse, and the whole-model sections
	// (provenance index, user tables) decoded only to reach the RR
	// sketch. Partitioned queries allocate little (they read the shared
	// partitions through a probe), so the collector would otherwise leave
	// that garbage resident for many seconds of traffic; collect it now
	// and return the pages, so the process's footprint is the snapshot's.
	debug.FreeOSMemory()
	return sn, nil
}

// Partitioned reports whether this snapshot serves (or was asked to
// serve) the scatter-gather path.
func (sn *Snapshot) Partitioned() bool { return sn.parts != nil || sn.partitionErr != nil }

// NumPartitions returns the partition count (0 on the single-engine path
// and in the degraded state).
func (sn *Snapshot) NumPartitions() int {
	if sn.parts == nil {
		return 0
	}
	return sn.parts.NumPartitions()
}

// PartitionStats returns per-partition accounting in partition order (nil
// on the single-engine path).
func (sn *Snapshot) PartitionStats() []credist.PartitionStats {
	if sn.parts == nil {
		return nil
	}
	return sn.parts.Stats()
}

// PartitionErr returns the recorded partition-assembly failure, or nil.
// A snapshot carrying one is degraded: every model query answers 502.
func (sn *Snapshot) PartitionErr() error { return sn.partitionErr }

// partitionGate turns the degraded state into the 502 every model query
// must return: a failed partition means no query can be answered over the
// full universe, and a partial sum silently missing one partition's rows
// would be far worse than an error.
func (sn *Snapshot) partitionGate() error {
	if sn.partitionErr != nil {
		return &apiError{code: http.StatusBadGateway, msg: fmt.Sprintf("partitioned model unavailable: %v", sn.partitionErr)}
	}
	return nil
}

// Ingest builds the successor snapshot extended with a batch of new
// propagations, incrementally: the model's learned parameters stay
// frozen, the base planner is cloned (frozen shards shared) and only the
// appended action tail is scanned. The receiver keeps serving unchanged —
// nothing it references is mutated — and the computed seed prefix is
// invalidated simply by the successor starting with an empty selection.
// compact additionally folds the accumulated delta into the frozen base
// before the successor is published.
func (sn *Snapshot) Ingest(tuples []credist.Tuple, compact bool) (*Snapshot, error) {
	if err := sn.partitionGate(); err != nil {
		return nil, err
	}
	model, err := sn.model.Ingest(tuples)
	if err != nil {
		return nil, err
	}
	if sn.parts != nil {
		return sn.ingestPartitioned(model)
	}
	base, err := model.ExtendPlanner(sn.base)
	if err != nil {
		return nil, err
	}
	if compact {
		base.Compact()
	}
	// Freeze before publishing: the successor's delta shards and per-user
	// state go shared, so selection planner clones stay cheap even when
	// the operator never sends compact (Compact above already froze; this
	// is then a no-op).
	base.Freeze()
	return &Snapshot{
		LoadedAt:      time.Now(),
		src:           sn.src,
		ds:            model.Dataset(),
		model:         model,
		base:          base,
		entries:       base.Entries(),
		residentBytes: base.ResidentBytes(),
		heapBytes:     base.HeapBytes(),
		mappedBytes:   base.MappedBytes(),
		rowStore:      base.RowStoreBackend(),
		deltaEntries:  base.DeltaEntries(),
		deltaActions:  base.DeltaActions(),
		ingests:       sn.ingests + 1,
		lastIngest:    time.Now(),
		modelActions:  sn.modelActions,
		tailActions:   sn.tailActions,
	}, nil
}

// ingestPartitioned derives the partitioned successor: every partition
// clones and scans only its rows of the appended tail, in parallel, and
// the coordinator over the new set replaces the old one atomically.
func (sn *Snapshot) ingestPartitioned(model *credist.Model) (*Snapshot, error) {
	parts, err := sn.parts.Extend(model)
	if err != nil {
		return nil, err
	}
	return &Snapshot{
		LoadedAt:      time.Now(),
		src:           sn.src,
		ds:            model.Dataset(),
		model:         model,
		parts:         parts,
		slicePaths:    sn.slicePaths,
		entries:       parts.Entries(),
		residentBytes: parts.ResidentBytes(),
		heapBytes:     parts.HeapBytes(),
		mappedBytes:   parts.MappedBytes(),
		rowStore:      parts.RowStoreBackend(),
		deltaEntries:  parts.DeltaEntries(),
		deltaActions:  parts.DeltaActions(),
		ingests:       sn.ingests + 1,
		lastIngest:    time.Now(),
		modelActions:  sn.modelActions,
		tailActions:   sn.tailActions,
	}, nil
}

// SaveSlices checkpoints the partitioned model as one snapshot-slice file
// per partition, carrying the published seed prefix so a restart serves
// /seeds instantly. Only valid on a healthy partitioned snapshot.
func (sn *Snapshot) SaveSlices(paths []string) error {
	if err := sn.partitionGate(); err != nil {
		return err
	}
	if sn.parts == nil {
		return fmt.Errorf("not a partitioned snapshot")
	}
	return sn.parts.SaveSlices(sn.model, sn.checkpointPrefix(), paths)
}

// Dataset returns the snapshot's dataset.
func (sn *Snapshot) Dataset() *credist.Dataset {
	if sn.model != nil {
		return sn.model.Dataset()
	}
	return sn.ds
}

// Model returns the underlying learned model.
func (sn *Snapshot) Model() *credist.Model { return sn.model }

// Entries returns the live UC credit-entry count of the base planner.
func (sn *Snapshot) Entries() int64 { return sn.entries }

// BaseEntries returns the UC entries in the frozen base shards.
func (sn *Snapshot) BaseEntries() int64 { return sn.entries - sn.deltaEntries }

// DeltaEntries returns the UC entries in the not-yet-compacted delta.
func (sn *Snapshot) DeltaEntries() int64 { return sn.deltaEntries }

// DeltaActions returns how many ingested actions sit outside the base.
func (sn *Snapshot) DeltaActions() int { return sn.deltaActions }

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

// RowStoreBackend reports how the base planner's shards are served:
// "mmap" while any shard still aliases the mapped snapshot file, "heap"
// otherwise.
func (sn *Snapshot) RowStoreBackend() string { return sn.rowStore }

// NumUsers returns the user-universe size, the bound for node-id inputs.
func (sn *Snapshot) NumUsers() int { return sn.Dataset().NumUsers() }

// Spread evaluates sigma_cd for one seed set. On the partitioned path the
// coordinator telescopes exact per-seed gains (bit-identical at every
// partition count, though summed in a different order than the
// single-engine evaluator); degraded partitioned snapshots answer 502.
func (sn *Snapshot) Spread(seeds []credist.NodeID) (float64, error) {
	if err := sn.partitionGate(); err != nil {
		return 0, err
	}
	if sn.parts != nil {
		return sn.parts.Spread(seeds)
	}
	return sn.model.Spread(seeds), nil
}

// ApproxSpread answers a spread query from the model's bounded-error RR
// tier (see credist.Model.ApproxSpread). The tier samples over the full
// user universe, which a partitioned deployment does not hold in any one
// engine, so a partitioned snapshot answers from the fixed sample pool its
// whole-model snapshot persisted (sampled before the split, over the full
// universe; precision is whatever the pool affords, reported honestly in
// achieved_eps) — and 501 when no sketch was persisted, since the tier
// cannot draw a single new sample there.
func (sn *Snapshot) ApproxSpread(seeds []credist.NodeID, opts credist.ApproxOptions) (credist.ApproxResult, error) {
	if err := sn.partitionGate(); err != nil {
		return credist.ApproxResult{}, err
	}
	if sn.parts != nil {
		res, ok, err := sn.model.ApproxSpreadFixed(seeds)
		if err != nil {
			return credist.ApproxResult{}, err
		}
		if !ok {
			return credist.ApproxResult{}, errApproxPartitioned
		}
		return res, nil
	}
	return sn.model.ApproxSpread(seeds, opts)
}

// ApproxSeeds runs RR maximum-coverage seed selection with a confidence
// interval on the selected set's spread; same partitioning rule as
// ApproxSpread.
func (sn *Snapshot) ApproxSeeds(k int, opts credist.ApproxOptions) ([]credist.NodeID, credist.ApproxResult, error) {
	if err := sn.partitionGate(); err != nil {
		return nil, credist.ApproxResult{}, err
	}
	if sn.parts != nil {
		seeds, res, ok, err := sn.model.ApproxSeedsFixed(k)
		if err != nil {
			return nil, credist.ApproxResult{}, err
		}
		if !ok {
			return nil, credist.ApproxResult{}, errApproxPartitioned
		}
		return seeds, res, nil
	}
	return sn.model.ApproxSeeds(k, opts)
}

// ApproxStats reports the RR tier's sample pool. On a partitioned
// deployment this is the fixed pool restored from the whole-model
// snapshot's sketch (all zero when none was persisted).
func (sn *Snapshot) ApproxStats() credist.ApproxStats {
	if sn.model == nil {
		return credist.ApproxStats{}
	}
	return sn.model.ApproxStats()
}

var errApproxPartitioned = &apiError{code: http.StatusNotImplemented,
	msg: "approximate queries on a partitioned deployment are served from a persisted RR sketch, and this model has none " +
		"(re-save it with `credist learn -ris-samples` and restart); no partition holds the full universe, so the tier cannot sample live"}

// SpreadBatch evaluates sigma_cd for many seed sets, fanning the sets over
// the available cores. Each set is evaluated independently, so the floats
// are identical to len(sets) sequential Spread calls.
func (sn *Snapshot) SpreadBatch(sets [][]credist.NodeID) ([]float64, error) {
	if err := sn.partitionGate(); err != nil {
		return nil, err
	}
	out := make([]float64, len(sets))
	errs := make([]error, len(sets))
	forEach(len(sets), func(i int) { out[i], errs[i] = sn.Spread(sets[i]) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Gains returns the marginal gain of each candidate against the base seed
// set, batched. The base seeds are committed to a read-only probe over the
// shared scanned planner (or the shared partitions), so nothing is cloned
// and no shard is promoted. Every value is bit-identical to
// credist.Model.Gains on the same arguments, at any partition count.
func (sn *Snapshot) Gains(base, candidates []credist.NodeID) ([]float64, error) {
	if err := sn.partitionGate(); err != nil {
		return nil, err
	}
	if sn.parts != nil {
		return sn.parts.Gains(base, candidates)
	}
	return sn.model.GainsObjOn(sn.base, base, candidates, nil)
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
// bit-identical to the offline Model.SelectSeeds(k).
func (sn *Snapshot) SelectSeeds(k int) (res *SeedsResult, cached bool, err error) {
	if err := sn.partitionGate(); err != nil {
		return nil, false, err
	}
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
		// (committing its seeds costs k Adds, no gain evaluations), start
		// fresh otherwise. The selection clones sn.base — the snapshot's
		// own (possibly ingest-extended) planner, shards shared — never
		// the model's lazy base, which for an ingest-grown model would be
		// a second from-scratch scan of the combined log; and it owns the
		// clone, so Engine.Add never touches the shared base. On the
		// partitioned path the same resume runs scatter-gather over fresh
		// partition clones, bit-identical to the single-engine selection.
		var restored *credist.SeedPrefix
		if pv := sn.prefix.Load(); pv != nil {
			restored = &credist.SeedPrefix{Seeds: pv.seeds, Gains: pv.gains, LookupsAt: pv.lookupsAt}
		}
		var sel *credist.GrowableSelection
		var rerr error
		if sn.parts != nil {
			sel, rerr = sn.parts.ResumeSelection(restored)
		} else {
			sel, rerr = sn.base.ResumeSelection(restored)
		}
		if rerr != nil {
			// A published prefix always comes from this snapshot's model,
			// so Resume cannot reject it; recover into a fresh selection
			// regardless.
			if sn.parts != nil {
				sel = sn.parts.NewSelection()
			} else {
				sel = sn.base.NewSelection()
			}
		}
		sn.seedSel = sel
	}
	sn.selections.Add(1)
	grown := sn.seedSel.Grow(k)
	pv := newSeedPrefix(grown, sn.seedSel.Exhausted())
	sn.prefix.Store(pv)
	return pv.result(k), false, nil
}

// SpreadObj is Spread under a campaign objective (audience weights, time
// window, blocked rivals): sigma_obj(S | blocked), routed to the
// scatter-gather coordinator or the exact evaluator exactly as Spread is.
// Handlers route default-objective requests to Spread instead, so this
// path never touches (and can never perturb) the default answers.
func (sn *Snapshot) SpreadObj(seeds []credist.NodeID, o *credist.Objective) (float64, error) {
	if err := sn.partitionGate(); err != nil {
		return 0, err
	}
	if sn.parts != nil {
		return sn.parts.SpreadObj(sn.model, seeds, o)
	}
	return sn.model.SpreadObj(seeds, o)
}

// GainsObj is Gains under a campaign objective: marginal objective gains
// over base with the objective's blocked rivals committed first. The
// single-engine path evaluates over this snapshot's own (possibly
// ingest-extended) base planner, never the model's lazy base.
func (sn *Snapshot) GainsObj(base, candidates []credist.NodeID, o *credist.Objective) ([]float64, error) {
	if err := sn.partitionGate(); err != nil {
		return nil, err
	}
	if sn.parts != nil {
		return sn.parts.GainsObj(sn.model, base, candidates, o)
	}
	return sn.model.GainsObjOn(sn.base, base, candidates, o)
}

// SelectSeedsObj runs seed selection under a campaign objective —
// audience/window repricing, cost-benefit CELF under a budget, blocked
// rivals excluded and conditioned on. Unlike SelectSeeds it is a fresh
// one-shot run every time: the snapshot's growable selection and its
// published prefix memo answer the default objective only, and an
// objective-shaped result stored there would poison later default
// requests. Bit-identical to the offline Model.SelectSeedsObj at any
// worker or partition count.
func (sn *Snapshot) SelectSeedsObj(k int, o *credist.Objective) (*SeedsResult, error) {
	if err := sn.partitionGate(); err != nil {
		return nil, err
	}
	var res seedsel.Result
	var err error
	if sn.parts != nil {
		res, err = sn.parts.SelectSeedsObj(sn.model, k, o)
	} else {
		res, err = sn.model.SelectSeedsObjOn(sn.base, k, o)
	}
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
// Gain is bit-for-bit the snapshot's Gains(nil, {x}) value. On the
// partitioned path the owner of x's row answers alone — credit paths are
// partitioned by influencer row, so no gather is needed; degraded
// partitioned snapshots answer 502.
func (sn *Snapshot) ExplainSeed(x credist.NodeID, top int) (credist.SeedExplanation, error) {
	if err := sn.partitionGate(); err != nil {
		return credist.SeedExplanation{}, err
	}
	if sn.parts != nil {
		return sn.parts.ExplainSeed(x, top)
	}
	return sn.model.ExplainSeedOn(sn.base, x, top), nil
}

// ExplainReach decomposes the credit the given seed set pushes onto
// target v: per-seed shares in request order whose fixed-order fold is
// bit-exactly the returned Total, plus the top contributing paths. On the
// partitioned path each seed's share comes wholly from its row's owner
// and the gathered answer is bit-identical to the single-engine one.
func (sn *Snapshot) ExplainReach(seeds []credist.NodeID, v credist.NodeID, top int) (credist.ReachExplanation, error) {
	if err := sn.partitionGate(); err != nil {
		return credist.ReachExplanation{}, err
	}
	if sn.parts != nil {
		return sn.parts.ExplainReach(seeds, v, top)
	}
	return sn.model.ExplainReachOn(sn.base, seeds, v, top), nil
}

// ProvStats reports the model's provenance index for /stats (all zero in
// the degraded state, and on partitioned deployments, which explain by
// walking each partition's own rows instead of an index).
func (sn *Snapshot) ProvStats() credist.ProvStats {
	if sn.model == nil {
		return credist.ProvStats{}
	}
	return sn.model.ProvStats()
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
// persistence form, or nil. POST /snapshot passes it to WriteSnapshot so
// a restart serves /seeds up to the same k instantly.
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
	if err := sn.partitionGate(); err != nil {
		return nil, 0, err
	}
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

// forEach runs fn(0..n-1) over up to GOMAXPROCS goroutines. Results are
// written by index, so parallelism never reorders a batch.
func forEach(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				fn(int(i))
			}
		}()
	}
	wg.Wait()
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
