package credist

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"

	"credist/internal/actionlog"
	"credist/internal/celf"
	"credist/internal/core"
	"credist/internal/graph"
	"credist/internal/partition"
	"credist/internal/seedsel"
)

// Options configures model learning.
type Options struct {
	// Lambda is the UC truncation threshold used during seed selection
	// (Section 5.3; paper default 0.001). Zero keeps every credit.
	Lambda float64
	// SimpleCredit switches the direct-credit rule from the time-aware
	// Eq. (9) (the default) to the equal-split 1/d_in rule.
	SimpleCredit bool
}

// Model is a learned credit-distribution model: the time decay and
// influenceability parameters plus the evaluator of the spread objective
// sigma_cd. Its two expensive scan products — the evaluator and the UC
// credit engine behind NewPlanner — are built lazily, at most once each,
// and then reused: a model restored from a binary snapshot (LoadModel)
// serves planners without ever re-scanning the log, and even a freshly
// learned model pays the Algorithm 2 scan once across any number of
// NewPlanner/Gains/SelectSeeds calls.
type Model struct {
	ds     *Dataset
	opts   Options
	credit core.CreditModel
	eval   func() *core.Evaluator
	base   func() *core.Engine // immutable; every planner shares it
	// prefix is a computed CELF seed prefix attached by RecordSeedPrefix
	// or restored by LoadModel from a binary snapshot; Save persists it so
	// a restarted process answers seed queries up to its length without
	// running selection.
	prefix *SeedPrefix
	// file is the snapshot behind a LoadModelMapped model (nil
	// otherwise); Close releases its mapping.
	file *core.SnapshotFile
	// approx is the bounded-error serving tier's RR-sample state: a
	// striped, deterministically grown collection of reverse credit walks,
	// seeded either lazily on the first approximate query or from a
	// version-5 snapshot's restored sketch (zero sampling on restart).
	approx approxTier
	// prov is the influence-provenance tier: the credit→actions index
	// behind ExplainSeed/ExplainReach, built lazily or restored from a
	// version-6 snapshot (zero build work on restart).
	prov provTier
	// delays lazily indexes per-(action, participant) delays from the
	// action's first participation — what time-windowed objectives gate
	// on. Derived from the log alone, at most once per model.
	delays func() *core.ActionDelays
}

// Close releases the file mapping behind a model opened with
// LoadModelMapped; for every other model it is a no-op. It must only be
// called once no planner derived from the model is in use and no
// ExplainReach on it is running — planners and their ingest successors
// read the mapped shards in place, a restored provenance index reads its
// records from the mapping, and those reads fault once the mapping is
// gone.
func (m *Model) Close() error {
	if m == nil {
		return nil
	}
	return m.file.Close()
}

// newModel wires a model with a lazily built evaluator and base engine.
func newModel(ds *Dataset, opts Options, credit core.CreditModel) *Model {
	m := &Model{ds: ds, opts: opts, credit: credit}
	m.eval = sync.OnceValue(func() *core.Evaluator {
		return core.NewEvaluator(ds.Graph, ds.Log, credit)
	})
	m.base = sync.OnceValue(func() *core.Engine {
		return core.NewEngine(ds.Graph, ds.Log, core.Options{Lambda: opts.Lambda, Credit: credit})
	})
	m.delays = sync.OnceValue(func() *core.ActionDelays {
		return core.BuildActionDelays(ds.Log)
	})
	return m
}

// Learn fits the CD model to the dataset's action log. Pass the training
// split when the test split must stay held out (the paper's protocol);
// pass the full dataset when the model is used operationally.
func Learn(ds *Dataset, opts Options) *Model {
	var credit core.CreditModel
	if opts.SimpleCredit {
		credit = core.SimpleCredit{}
	} else {
		credit = core.LearnTimeAware(ds.Graph, ds.Log)
	}
	return newModel(ds, opts, credit)
}

// Dataset returns the dataset the model is bound to.
func (m *Model) Dataset() *Dataset { return m.ds }

// Options returns the options the model was learned with.
func (m *Model) Options() Options { return m.opts }

// Spread predicts the expected influence spread sigma_cd of a seed set.
// It is safe for concurrent use: evaluation reads only immutable scan
// products, so any number of goroutines may call Spread (and Gains with an
// empty base set) on a shared Model.
func (m *Model) Spread(seeds []NodeID) float64 { return m.eval().Spread(seeds) }

// Gains returns the marginal gain sigma_cd(S+c) - sigma_cd(S) of every
// candidate c against the base seed set S, batched so the engine scan is
// paid at most once per model and the base seeds are committed once per
// call. It matches Planner exactly: Gains(base, cs)[i] is bit-for-bit the
// value a Planner returns from Gain(cs[i]) after Add-ing each base seed in
// order. The scanned engine is only read (see gainsOn).
func (m *Model) Gains(base, candidates []NodeID) []float64 {
	return gainsOn(core.NewProbe(m.base()), m.base().Workers(), nil, base, candidates, nil)
}

// Ingest returns a new Model extended with a batch of complete new
// propagations, without relearning: the credit parameters stay frozen and
// only the appended tail is processed (prefix propagation DAGs and direct
// credits are shared with the receiver, which keeps answering queries
// unchanged). The batch follows Log.Append's contract — canonical
// (action, time, user) order, action ids starting at the log's current
// NumActions() — and every user must exist in the social graph. Results on
// the new model are bit-identical to a model over the combined dataset
// with the same parameters (e.g. one restored by LoadModel).
func (m *Model) Ingest(tuples []Tuple) (*Model, error) {
	newLog, err := m.ds.Log.AppendWithin(tuples, 0, m.ds.Graph.NumNodes())
	if err != nil {
		return nil, err
	}
	eval, err := m.eval().Extend(m.ds.Graph, newLog, ActionID(m.ds.Log.NumActions()))
	if err != nil {
		return nil, err
	}
	// The grown model gets a self-contained lazy base (a fresh scan of the
	// combined log on first use), NOT one chained off the receiver's:
	// capturing the predecessor here would retain every prior generation's
	// model, log copy, and evaluator for as long as the lazy base stays
	// unforced — unbounded memory on a server that trickles ingests. A
	// caller who wants the cheap tail-scan derivation uses ExtendPlanner
	// with an explicit planner, which retains nothing.
	grown := newModel(&Dataset{Name: m.ds.Name, Graph: m.ds.Graph, Log: newLog}, m.opts, m.credit)
	grown.eval = func() *core.Evaluator { return eval }
	return grown, nil
}

// ExtendPlanner derives a planner for this (post-Ingest) model from one
// scanned against the pre-ingest log: only the appended action tail is
// scanned, into successor engines that share every shard of the source's
// — one full engine, or every row-range partition in parallel, each
// keeping only its rows of the tail. The source planner must come from the
// model lineage this model was ingested from (same credit parameters, a
// prefix of the same log) and must not have committed seeds, whose gains
// describe the old log; see checkPlanner for what is rejected. A planner
// from a different log that happens to agree on all of that (possible
// only with the parameterless simple-credit rule) cannot be detected
// cheaply and yields meaningless results — pairing planners with their
// own model lineage is the caller's contract. Gains and CELF selections on
// the result are bit-identical to those of a freshly scanned NewPlanner,
// at a fraction of the cost; see BenchmarkAppendVsRescan. The source keeps
// serving unchanged, and the successor reads its mapped shards without
// owning the mappings: Close the planner that opened them.
func (m *Model) ExtendPlanner(p *Planner) (*Planner, error) {
	if err := m.checkPlanner(p, "extend", false); err != nil {
		return nil, err
	}
	parts, err := partition.Append(p.parts, m.ds.Graph, m.ds.Log, ActionID(p.NumActions()))
	if err != nil {
		return nil, err
	}
	return newPlanner(parts...), nil
}

// checkPlanner is the one planner-vs-model check behind extending and
// checkpointing: p must hold no committed seeds, be scanned with this
// model's credit parameters and truncation threshold over a universe the
// model's graph covers, and cover a prefix of the model's log — all of it
// when exact is set, as a checkpoint records the model's log as its
// lineage. verb names the refused operation in the error.
func (m *Model) checkPlanner(p *Planner, verb string, exact bool) error {
	if n := len(p.Seeds()); n > 0 {
		return fmt.Errorf("credist: cannot %s a planner with %d committed seeds", verb, n)
	}
	eng := p.parts[0]
	if eng.CreditModel() != m.credit {
		return fmt.Errorf("credist: planner was scanned with different credit parameters than this model")
	}
	if pl, ml := eng.Lambda(), m.opts.Lambda; pl != ml {
		return fmt.Errorf("credist: planner was scanned with lambda %g, model uses %g", pl, ml)
	}
	if pn, gn := p.NumUsers(), m.ds.Graph.NumNodes(); pn > gn {
		return fmt.Errorf("credist: planner universe (%d users) exceeds the model's graph (%d nodes)", pn, gn)
	}
	if pn, ln := p.NumActions(), m.ds.Log.NumActions(); pn > ln || exact && pn != ln {
		return fmt.Errorf("credist: planner covers %d actions, model's log holds %d", pn, ln)
	}
	return nil
}

// SelectSeeds picks k seeds with the paper's algorithm (Scan + greedy with
// CELF, the first-iteration gain pass fanned over the available cores) and
// returns them with their marginal gains; summing the gains gives the
// predicted spread of the whole set. Results are bit-identical regardless
// of worker count.
func (m *Model) SelectSeeds(k int) ([]NodeID, []float64) {
	res := m.selection(k)
	return res.Seeds, res.Gains
}

// Selection runs seed selection and returns the full trace (seeds, gains,
// per-seed timing, and the number of marginal-gain evaluations).
func (m *Model) Selection(k int) seedsel.Result { return m.selection(k) }

func (m *Model) selection(k int) seedsel.Result {
	return selectObjOn(core.NewProbe(m.base()), m.base().Workers(), k, nil, nil)
}

// SeedPrefix is a computed CELF seed-selection prefix: seeds in selection
// order, their marginal gains (cumulative sums are the per-prefix
// spreads), and the cumulative gain-evaluation count when each seed was
// committed. A prefix attached to a model is persisted by Save and
// restored by LoadModel, so a restarted process serves seed queries up to
// the stored length without running selection at all; any smaller k is a
// slice of the arrays. Like NodeID and seedsel.Result, it is an alias of
// the one shared representation, so no conversions happen at package
// boundaries.
type SeedPrefix = core.SeedPrefix

// SeedPrefix returns the prefix attached to the model (by RecordSeedPrefix
// or a snapshot load), or nil. Callers must not mutate it.
func (m *Model) SeedPrefix() *SeedPrefix { return m.prefix }

// RecordSeedPrefix attaches a selection trace (from Selection, or a
// GrowableSelection's Grow) to the model so Save persists it. The trace
// must come from this model — recording a foreign selection would persist
// seeds the restored model never chose.
func (m *Model) RecordSeedPrefix(res seedsel.Result) {
	m.prefix = &SeedPrefix{
		Seeds:     append([]NodeID(nil), res.Seeds...),
		Gains:     append([]float64(nil), res.Gains...),
		LookupsAt: append([]int64(nil), res.LookupsAt...),
	}
}

// GrowableSelection is a prefix-incremental CELF run bound to its own
// planner clone: Grow(k) extends the committed selection to k seeds,
// keeping the lazy-forward heap across calls, so after Grow(50) any
// k <= 50 is answered from the recorded arrays and Grow(60) pays only the
// marginal work. Seeds are committed to the selection's own probe
// (core.ProbeEstimator), never to the clone. Not safe for concurrent use;
// the serving layer serializes Grow and publishes immutable copies for
// readers.
type GrowableSelection struct {
	p   *Planner
	sel *celf.Selection
}

// NewSelection starts an empty growable selection over a fresh planner
// clone of the model's scanned engine.
func (m *Model) NewSelection() *GrowableSelection {
	return newGrowableSelection(m.NewPlanner())
}

// ResumeSelection rebuilds a growable selection from a previously
// computed prefix (typically the model's own restored SeedPrefix): the
// prefix seeds are committed to the probe without any gain evaluations,
// and the first Grow past the prefix pays one fresh gain pass to rebuild
// the heap. Seeds and gains of the continuation are bit-identical to a
// continuous run.
func (m *Model) ResumeSelection(prefix *SeedPrefix) (*GrowableSelection, error) {
	return resumeGrowableSelection(m.NewPlanner(), prefix)
}

// NewSelection starts a growable selection over a clone of this planner,
// continuing from the planner's committed seeds. The selection commits
// its seeds to a probe of its own, so neither the receiver nor the clone
// sees them, and a later Add on the receiver does not reach the
// selection. This is how a serving layer grows selections off its
// incrementally extended base planner instead of forcing a second
// from-scratch scan out of the model. Seeds and gains are bit-identical
// at every partition count.
func (p *Planner) NewSelection() *GrowableSelection {
	return newGrowableSelection(p.Clone())
}

// ResumeSelection is NewSelection continuing from a previously computed
// prefix; see Model.ResumeSelection. A receiver holding committed seeds
// is rejected: a prefix describes a selection from an empty seed set.
// The prefix may come from a selection at a different partition count.
func (p *Planner) ResumeSelection(prefix *SeedPrefix) (*GrowableSelection, error) {
	return resumeGrowableSelection(p.Clone(), prefix)
}

// newGrowableSelection wraps a selection around a planner the caller
// hands over; the selection commits to a clone of the planner's probe.
func newGrowableSelection(p *Planner) *GrowableSelection {
	return &GrowableSelection{p: p, sel: celf.NewSelection(p.probe.Clone().Estimator(nil), celf.Options{Workers: p.workers()})}
}

func resumeGrowableSelection(p *Planner, prefix *SeedPrefix) (*GrowableSelection, error) {
	if prefix == nil {
		return newGrowableSelection(p), nil
	}
	// A prefix describes a selection from an empty seed set, so replaying
	// it on a planner with committed seeds would silently double-commit any
	// overlap and report gains from a state that never existed.
	if committed := p.Seeds(); len(committed) > 0 {
		return nil, fmt.Errorf("credist: cannot resume a seed prefix on a planner with %d committed seeds", len(committed))
	}
	sel, err := celf.Resume(p.probe.Clone().Estimator(nil), *prefix, celf.Options{Workers: p.workers()})
	if err != nil {
		return nil, err
	}
	return &GrowableSelection{p: p, sel: sel}, nil
}

// Grow extends the selection to at most k seeds and returns the full
// accumulated trace (slicing it to any length <= Len yields that prefix's
// selection). Growing to a k at or below the current length does no work.
func (s *GrowableSelection) Grow(k int) seedsel.Result { return s.sel.Grow(k) }

// Len returns the number of committed seeds.
func (s *GrowableSelection) Len() int { return s.sel.Len() }

// Exhausted reports whether the candidate pool ran dry: no further Grow
// can add seeds.
func (s *GrowableSelection) Exhausted() bool { return s.sel.Exhausted() }

// Planner exposes the selection's owned planner for inspection (entries,
// resident bytes, delta accounting). It holds none of the selection's
// seeds, which live in the probe; mutating it corrupts the selection, so
// it is read-only by contract.
func (s *GrowableSelection) Planner() *Planner { return s.p }

// Planner is the stateful side of the model: the model's immutable
// scanned UC credit structure of Algorithm 2 plus a core.Probe holding
// the committed seed set. The structure is one full engine, or row-range
// engine partitions tiling the user universe (Partition, LoadPartitions):
// the probe reads every row from the partition owning it, and Theorem 3
// prices a candidate from its own rows alone, so every gain, selection and
// explanation is bit-identical at any partition count. Gain is read-only
// (and safe to call from many goroutines at once); Add and Select commit
// to the probe. Planners over one model share its engines, so NewPlanner
// and Clone cost a small copy of the commit records, never a rescan or a
// shard copy; this is how a serving layer keeps one planner per model
// snapshot and hands independent copies to concurrent seed-selection
// requests.
type Planner struct {
	// parts is one full engine, or partitions sorted by row range.
	parts []*core.Engine
	probe *core.Probe
	// files holds the slice files LoadPartitions mapped (nil otherwise);
	// Close releases them. Clones and Extend successors read the mappings
	// but do not own them.
	files []*core.SnapshotFile
}

// newPlanner returns a planner with an empty seed set over parts, which
// must tile the universe (one full engine, or partition.Tile's output).
func newPlanner(parts ...*core.Engine) *Planner {
	return &Planner{parts: parts, probe: core.NewProbe(parts...)}
}

// NewPlanner returns a planner with an empty seed set over the model's
// scanned UC structure (Algorithm 2). The scan happens at most once per
// model — on the first call, or never for a model restored by LoadModel
// from a binary snapshot — and every planner shares it, so repeated
// calls cost microseconds, not a log rescan.
func (m *Model) NewPlanner() *Planner { return newPlanner(m.base()) }

// Clone returns an independent copy: Add and Select on the clone never
// disturb the receiver, and the clone's results are bit-identical to those
// of a freshly scanned planner driven through the same calls. It copies
// the commit records and shares the engines.
func (p *Planner) Clone() *Planner { return &Planner{parts: p.parts, probe: p.probe.Clone()} }

// workers is the engines' worker knob, which query fan-out and CELF reuse.
func (p *Planner) workers() int { return p.parts[0].Workers() }

// partitioned reports whether the planner serves row-range partitions
// (even a single one covering every row) rather than one full engine.
func (p *Planner) partitioned() bool { return p.parts[0].IsPartition() }

// Gain returns the marginal gain sigma_cd(S+x) - sigma_cd(S) of candidate x
// against the committed seed set (Theorem 3). Read-only.
func (p *Planner) Gain(x NodeID) float64 { return p.probe.Gain(x, nil) }

// Add commits x to the seed set (Algorithm 5); committing a seed twice
// changes nothing.
func (p *Planner) Add(x NodeID) { p.probe.Commit(x, nil) }

// Seeds returns the committed seed set in selection order.
func (p *Planner) Seeds() []NodeID { return p.probe.Seeds() }

// Select greedily extends the committed seed set by up to k seeds with
// CELF (Algorithm 3) via the shared selection engine — the
// first-iteration gain pass and stale-bound refreshes fan over the
// engine's configured workers, with bit-identical seeds and gains at any
// worker count — and returns the selection trace. The selection starts
// from the planner's commits and commits the chosen seeds to it. Use
// Clone first to keep the receiver reusable.
func (p *Planner) Select(k int) seedsel.Result {
	return celf.Run(p.probe.Estimator(nil), k, celf.Options{Workers: p.workers()})
}

// sum adds f over the engines.
func (p *Planner) sum(f func(*core.Engine) int64) int64 {
	var total int64
	for _, e := range p.parts {
		total += f(e)
	}
	return total
}

// Entries returns the number of live UC credit entries, the paper's memory
// statistic (Figure 8, Table 4). Every cell lives in exactly one
// partition, so the count is the same at any partition count.
func (p *Planner) Entries() int64 { return p.sum((*core.Engine).Entries) }

// ResidentBytes reports the UC structure's total footprint: HeapBytes
// plus MappedBytes.
func (p *Planner) ResidentBytes() int64 { return p.HeapBytes() + p.MappedBytes() }

// HeapBytes reports the Go-heap slice footprint of the UC structure;
// shards served from a mapped snapshot contribute nothing.
func (p *Planner) HeapBytes() int64 { return p.sum((*core.Engine).HeapBytes) }

// MappedBytes reports the file-backed footprint: bytes of mapped snapshot
// files this planner's shards alias (zero for heap-loaded models).
// Commits never change it.
func (p *Planner) MappedBytes() int64 { return p.sum((*core.Engine).MappedBytes) }

// RowStoreBackend reports how the planner's shards are served: "mmap"
// while any shard aliases a mapped snapshot, "heap" otherwise.
func (p *Planner) RowStoreBackend() string {
	for _, e := range p.parts {
		if e.RowStoreBackend() == "mmap" {
			return "mmap"
		}
	}
	return "heap"
}

// NumUsers returns the user-universe size.
func (p *Planner) NumUsers() int { return p.parts[0].NumNodes() }

// NumActions returns how many actions the planner has scanned.
func (p *Planner) NumActions() int { return p.parts[0].NumActions() }

// DeltaActions returns how many appended actions sit outside the base
// (zero for a fresh or compacted planner). Every partition appends the
// same actions, so this is not a sum.
func (p *Planner) DeltaActions() int { return p.parts[0].DeltaActions() }

// DeltaEntries returns the UC entries the appended actions contributed.
func (p *Planner) DeltaEntries() int64 { return p.sum((*core.Engine).DeltaEntries) }

// Compact folds appended delta actions into the base, resetting the delta
// accounting; shards, commits and results are unchanged. Must not run
// concurrently with other calls on the same planner.
func (p *Planner) Compact() {
	seeds := p.probe.Seeds()
	parts := make([]*core.Engine, len(p.parts))
	for i, e := range p.parts {
		parts[i] = e.Compact()
	}
	p.parts, p.probe = parts, core.NewProbe(parts...)
	for _, s := range seeds {
		p.Add(s)
	}
}

// Freeze does nothing. Engines are immutable, so there is nothing left to
// freeze; it remains so existing callers keep compiling.
func (p *Planner) Freeze() {}

// Influenceability returns the learned infl(u) when the time-aware rule is
// in use, or 1 under the simple rule (which does not model it).
func (m *Model) Influenceability(u NodeID) float64 {
	if ta, ok := m.credit.(*core.TimeAwareCredit); ok {
		return ta.Influenceability(u)
	}
	return 1
}

// PairCredit returns kappa_{v,u}, the average credit v earns for
// influencing u across the log (Eq. 6) — a learned, data-based analogue of
// an edge influence probability.
func (m *Model) PairCredit(v, u NodeID) float64 { return m.eval().PairCredit(v, u) }

// Initiators returns, for each action of a dataset, the users who
// performed it before any of their neighbors — the paper's notion of a
// propagation's seed set (used to build test cases).
func Initiators(ds *Dataset, a ActionID) []NodeID {
	p := actionlog.BuildPropagation(ds.Log, ds.Graph, a)
	return p.Initiators()
}

// HighDegreeSeeds returns the k highest out-degree users, the High Degree
// baseline of the paper's "Spread Achieved" experiment.
func HighDegreeSeeds(ds *Dataset, k int) []NodeID {
	return seedsel.HighDegree(ds.Graph, k)
}

// PageRankSeeds returns the k top users by PageRank on the reversed graph,
// the paper's PageRank baseline.
func PageRankSeeds(ds *Dataset, k int) []NodeID {
	return seedsel.PageRankSeeds(ds.Graph, k, graph.PageRankOptions{})
}

// SaveParams writes the model's learned parameters (time-aware credit
// only; the simple rule has none) so a model fitted once can be restored
// with LoadModel without re-learning.
func (m *Model) SaveParams(path string) error {
	ta, ok := m.credit.(*core.TimeAwareCredit)
	if !ok {
		return fmt.Errorf("credist: simple-credit models have no parameters to save")
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("credist: create params file: %w", err)
	}
	if err := core.WriteTimeAware(f, ta); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Save writes the model as a durable binary snapshot: learned parameters
// plus the fully scanned UC credit structure, the dataset lineage
// (name, universe, action count, graph/log content hashes), and the
// model's attached seed prefix if one was recorded or restored. A process
// restarted with LoadModel against the same (or a grown) dataset skips
// both learning and the log scan — cold start becomes a file read plus an
// append of only the unscanned tail. Saving forces the model's one-time
// scan if it has not happened yet.
//
// The snapshot is written to a temp file in the same directory and
// renamed into place, so a crash mid-write never truncates the path, and
// a LoadModelMapped model can save over its own file: it keeps serving
// from the old file's mapping until Close.
func (m *Model) Save(path string) error { return m.SaveOn(path, nil, m.prefix) }

// SaveOn is Save of an explicit planner and seed prefix, under
// WriteSnapshot's rules: how a serving layer checkpoints its live
// (possibly ingest-extended) planner atomically.
func (m *Model) SaveOn(path string, p *Planner, prefix *SeedPrefix) error {
	if err := writeFileAtomic(path, func(w io.Writer) error {
		return m.WriteSnapshot(w, p, prefix)
	}); err != nil {
		return fmt.Errorf("credist: save snapshot %s: %w", path, err)
	}
	return nil
}

// WriteSnapshot streams the binary snapshot to w. p selects the scanned
// planner to serialize — it must belong to this model's lineage (same
// credit parameters and truncation threshold), cover exactly the model's
// log, and hold no committed seeds; nil uses the model's own base scan.
// Passing an explicit planner is how a serving layer checkpoints its live
// (possibly ingest-extended) planner without a second scan. prefix, if
// non-nil, is the computed seed prefix to persist alongside the engine —
// it must have been selected against exactly the state being written
// (this model's parameters over the planner's log), or a restart would
// serve seeds the restored model never chose.
func (m *Model) WriteSnapshot(w io.Writer, p *Planner, prefix *SeedPrefix) error {
	eng, err := m.snapshotEngine(p)
	if err != nil {
		return err
	}
	// The RR sketch and provenance index ride along whenever their tiers
	// hold one: both are derived over exactly the model's log, and the
	// lineage written here is that same log's, so sections attached to
	// this model are always consistent with the snapshot (the version
	// stays 3 when there is no section, keeping sectionless files
	// byte-identical).
	return eng.WriteSnapshot(w, core.DatasetLineage(m.ds.Name, m.ds.Graph, m.ds.Log), prefix, m.approxSketch(), m.provForSave())
}

// snapshotEngine returns the engine a snapshot of p writes: the model's
// base scan for nil, else p's one full engine after checkPlanner. A
// partitioned planner is checkpointed slice by slice (SaveSlices).
func (m *Model) snapshotEngine(p *Planner) (*core.Engine, error) {
	if p == nil {
		return m.base(), nil
	}
	if err := m.checkPlanner(p, "snapshot", true); err != nil {
		return nil, err
	}
	if p.partitioned() {
		return nil, fmt.Errorf("credist: cannot write a partitioned planner as one snapshot; save its slices")
	}
	return p.parts[0], nil
}

// IsModelSnapshot reports whether data (at least the first 8 bytes of a
// file) begins with the binary model-snapshot magic — the format written
// by Model.Save and `credist learn -o`, as opposed to the SaveParams text
// format.
func IsModelSnapshot(data []byte) bool { return core.IsSnapshotHeader(data) }

// LoadModel restores a model from a file written by Save (binary
// snapshot) or SaveParams (text parameters), sniffing the format from the
// file header and binding the result to the given dataset.
//
// For a binary snapshot the dataset is lineage-checked: the graph must
// hash-match the one the snapshot was built against, and the log must
// contain the snapshot's scanned prefix verbatim. The log may be longer —
// the restored engine appends only the unscanned tail (bit-identical to a
// from-scratch rescan of the combined log), which is what makes restarting
// an ingesting service a matter of milliseconds instead of a full rescan.
// The snapshot's stored options are authoritative: pass the same options
// it was saved with, or the zero Options to adopt them; anything else is
// a lineage error.
//
// For text parameters (time-aware only) the behavior is unchanged: the
// dataset must share the user universe the parameters were learned on,
// and opts is taken as given.
func LoadModel(ds *Dataset, path string, opts Options) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("credist: open model file: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	if header, err := br.Peek(8); err == nil && core.IsSnapshotHeader(header) {
		return loadSnapshotModel(ds, path, false, opts)
	}
	credit, err := core.ReadTimeAware(br, ds.Graph.NumNodes())
	if err != nil {
		return nil, err
	}
	// Same guard the snapshot path applies: parameters must cover every
	// graph node, or the first Gamma evaluation for an uncovered user
	// would panic instead of erroring here.
	if credit.UniverseSize() < ds.Graph.NumNodes() {
		return nil, fmt.Errorf("credist: parameters cover %d users, graph has %d nodes", credit.UniverseSize(), ds.Graph.NumNodes())
	}
	return newModel(ds, opts, credit), nil
}

// LoadModelMapped restores a model from a version-3 binary snapshot with
// the frozen UC base served directly from the memory-mapped file: no cell
// is parsed, no shard allocated, and the OS pages cold shards in and out
// on demand, so the model can exceed RAM and opening is near-instant
// regardless of model size. Everything else matches LoadModel's snapshot
// path — lineage check, stored-options authority, tail append for a grown
// log (the tail is scanned onto the heap; the base stays mapped) — and
// every query is bit-identical to the heap-loaded model. Text parameter
// files and pre-v3 snapshots are rejected; re-save with Save to upgrade.
//
// A provenance index stored in the file is served from the mapping too.
// The caller owns the mapping's lifetime: Close the model only after all
// planners derived from it are gone and its explanations have returned.
func LoadModelMapped(ds *Dataset, path string, opts Options) (*Model, error) {
	return loadSnapshotModel(ds, path, true, opts)
}

// loadSnapshotModel opens a binary snapshot, heap-read or mapped, and
// binds it to ds. A mapped model keeps the file open until Close.
func loadSnapshotModel(ds *Dataset, path string, mmap bool, opts Options) (*Model, error) {
	f, err := core.OpenSnapshot(path, mmap)
	if err != nil {
		return nil, err
	}
	m, err := bindSnapshotModel(ds, f, opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	if mmap {
		m.file = f
	}
	return m, nil
}

// bindSnapshotModel finishes a snapshot load regardless of backend:
// lineage check, options resolution, and the tail append for a log that
// has grown past the snapshot's scanned prefix.
func bindSnapshotModel(ds *Dataset, f *core.SnapshotFile, opts Options) (*Model, error) {
	eng, lin, prefix, sketch, prov := f.Engine, f.Lineage, f.Prefix, f.Sketch, f.Prov
	if err := lin.Check(ds.Graph, ds.Log); err != nil {
		return nil, err
	}
	credit := eng.CreditModel()
	// The graph hash matched, so a snapshot learned on this graph covers
	// every node; a crafted file that passed its CRC but shrank the
	// parameter table must still be refused before Gamma can index past it.
	if ta, ok := credit.(*core.TimeAwareCredit); ok && ta.UniverseSize() < ds.Graph.NumNodes() {
		return nil, fmt.Errorf("credist: snapshot parameters cover %d users, graph has %d nodes", ta.UniverseSize(), ds.Graph.NumNodes())
	}
	_, simple := credit.(core.SimpleCredit)
	stored := Options{Lambda: eng.Lambda(), SimpleCredit: simple}
	if opts != (Options{}) && opts != stored {
		return nil, fmt.Errorf("credist: snapshot was saved with options %+v, load requested %+v (pass the zero Options to adopt the stored ones)", stored, opts)
	}
	if ds.Log.NumActions() > lin.NumActions {
		var err error
		if eng, err = eng.AppendActions(ds.Graph, ds.Log, ActionID(lin.NumActions)); err != nil {
			return nil, err
		}
		// The stored seed prefix was selected over the snapshot's log
		// prefix; appended actions change every marginal gain, so it no
		// longer describes this model and is dropped. The RR sketch falls
		// for the same reason (its walks sampled the old log's DAGs), and
		// the provenance index too: the tail adds credit cells it never
		// indexed.
		prefix = nil
		sketch = nil
		prov = nil
	}
	// The delta accounting is kept, so callers (and /stats) see how much
	// of the engine came from the post-snapshot tail.
	m := newModel(ds, stored, credit)
	m.base = func() *core.Engine { return eng }
	m.prefix = prefix
	if err := m.restoreApprox(sketch); err != nil {
		return nil, err
	}
	m.prov.restored = prov
	return m, nil
}
