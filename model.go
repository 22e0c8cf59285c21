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
	base   func() *core.Engine // frozen; NewPlanner hands out clones
	// prefix is a computed CELF seed prefix attached by RecordSeedPrefix
	// or restored by LoadModel from a binary snapshot; Save persists it so
	// a restarted process answers seed queries up to its length without
	// running selection.
	prefix *SeedPrefix
	// mapped is the file mapping behind a LoadModelMapped model (nil
	// otherwise); Close releases it.
	mapped *core.MappedSnapshot
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
// called once no planner derived from the model is in use — planners
// share the mapped shards copy-on-write, and their reads fault once the
// mapping is gone.
func (m *Model) Close() error {
	if m == nil {
		return nil
	}
	return m.mapped.Close()
}

// newModel wires a model with a lazily built evaluator and base engine.
func newModel(ds *Dataset, opts Options, credit core.CreditModel) *Model {
	m := &Model{ds: ds, opts: opts, credit: credit}
	m.eval = sync.OnceValue(func() *core.Evaluator {
		return core.NewEvaluator(ds.Graph, ds.Log, credit)
	})
	m.base = sync.OnceValue(func() *core.Engine {
		e := core.NewEngine(ds.Graph, ds.Log, core.Options{Lambda: opts.Lambda, Credit: credit})
		// Compact at exact size and freeze: clones share every shard, and
		// the scan's growth slack is shed once instead of retained for the
		// model's lifetime.
		e.Compact()
		return e
	})
	m.delays = sync.OnceValue(func() *core.ActionDelays {
		return core.BuildActionDelays(ds.Log)
	})
	m.wireProv()
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
	return gainsOn(m.base(), nil, base, candidates, nil)
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
	newLog, err := m.ds.Log.Append(tuples)
	if err != nil {
		return nil, err
	}
	if newLog.NumUsers() > m.ds.Graph.NumNodes() {
		return nil, fmt.Errorf("credist: ingested log universe (%d users) exceeds the graph (%d nodes)",
			newLog.NumUsers(), m.ds.Graph.NumNodes())
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
	// caller who wants the cheap clone+tail-scan derivation uses
	// ExtendPlanner with an explicit planner, which retains nothing.
	grown := newModel(&Dataset{Name: m.ds.Name, Graph: m.ds.Graph, Log: newLog}, m.opts, m.credit)
	grown.eval = func() *core.Evaluator { return eval }
	return grown, nil
}

// ExtendPlanner derives a planner for this (post-Ingest) model from one
// scanned against the pre-ingest log: the planner is cloned — frozen
// shards shared, not copied — and only the appended action tail is
// scanned. The source planner must come from the model lineage this model
// was ingested from (same credit parameters, a prefix of the same log)
// and must not have committed seeds. Mismatched credit parameters,
// truncation thresholds, and user universes are rejected; a planner from
// a different log that happens to agree on all of those (possible only
// with the parameterless simple-credit rule) cannot be detected cheaply
// and yields meaningless results — pairing planners with their own model
// lineage is the caller's contract. Gains and CELF selections on the
// result are bit-identical to those of a freshly scanned NewPlanner, at a
// fraction of the cost; see BenchmarkAppendVsRescan.
func (m *Model) ExtendPlanner(p *Planner) (*Planner, error) {
	if p.eng.CreditModel() != m.credit {
		return nil, fmt.Errorf("credist: planner was scanned with different credit parameters than this model")
	}
	if pl, ml := p.eng.Lambda(), m.opts.Lambda; pl != ml {
		return nil, fmt.Errorf("credist: planner was scanned with lambda %g, model uses %g", pl, ml)
	}
	if pn, gn := p.eng.NumNodes(), m.ds.Graph.NumNodes(); pn > gn {
		return nil, fmt.Errorf("credist: planner universe (%d users) exceeds the model's graph (%d nodes)", pn, gn)
	}
	np := p.Clone()
	if err := np.eng.AppendActions(m.ds.Graph, m.ds.Log, ActionID(p.eng.NumActions())); err != nil {
		return nil, err
	}
	return np, nil
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
	return m.NewPlanner().Select(k)
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
// marginal work. Not safe for concurrent use; the serving layer
// serializes Grow and publishes immutable copies for readers.
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
// prefix seeds are committed without any gain evaluations, and the first
// Grow past the prefix pays one fresh gain pass to rebuild the heap.
// Seeds and gains of the continuation are bit-identical to a continuous
// run.
func (m *Model) ResumeSelection(prefix *SeedPrefix) (*GrowableSelection, error) {
	return resumeGrowableSelection(m.NewPlanner(), prefix)
}

// NewSelection starts an empty growable selection over a clone of this
// planner — shards shared, copy-on-write isolating the selection's Adds.
// This is how a serving layer grows selections off its incrementally
// extended base planner instead of forcing a second from-scratch scan
// out of the model.
func (p *Planner) NewSelection() *GrowableSelection {
	return newGrowableSelection(p.Clone())
}

// ResumeSelection is NewSelection continuing from a previously computed
// prefix; see Model.ResumeSelection. A receiver holding committed seeds
// is rejected: a prefix describes a selection from an empty seed set.
func (p *Planner) ResumeSelection(prefix *SeedPrefix) (*GrowableSelection, error) {
	return resumeGrowableSelection(p.Clone(), prefix)
}

// newGrowableSelection wraps a selection around a planner the caller
// hands over (the selection owns and mutates it).
func newGrowableSelection(p *Planner) *GrowableSelection {
	return &GrowableSelection{p: p, sel: celf.NewSelection(p.eng, celf.Options{Workers: p.eng.Workers()})}
}

func resumeGrowableSelection(p *Planner, prefix *SeedPrefix) (*GrowableSelection, error) {
	if prefix == nil {
		return newGrowableSelection(p), nil
	}
	// Same precondition WriteSnapshotPrefix enforces for its engine: a
	// prefix describes a selection from an empty seed set, so replaying it
	// on a planner with committed seeds would silently double-commit any
	// overlap and report gains from a state that never existed.
	if committed := p.Seeds(); len(committed) > 0 {
		return nil, fmt.Errorf("credist: cannot resume a seed prefix on a planner with %d committed seeds", len(committed))
	}
	sel, err := celf.Resume(p.eng, *prefix, celf.Options{Workers: p.eng.Workers()})
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
// resident bytes, delta accounting). Mutating it corrupts the selection;
// it is read-only by contract. Selections grown from a PartitionedPlanner
// have no single planner and return nil.
func (s *GrowableSelection) Planner() *Planner { return s.p }

// Planner is the stateful side of the model: the scanned UC credit
// structure of Algorithm 2 plus the committed seed set. Gain is read-only
// (and safe to call from many goroutines at once); Add and Select mutate.
// A Planner is built by one log scan and duplicated with Clone in
// milliseconds, which is how a serving layer keeps one immutable planner
// per model snapshot and hands independent copies to concurrent
// seed-selection requests.
type Planner struct {
	eng *core.Engine
}

// NewPlanner returns a planner with an empty seed set over the model's
// scanned UC structure (Algorithm 2). The scan happens at most once per
// model — on the first call, or never for a model restored by LoadModel
// from a binary snapshot — and every planner is an independent clone
// sharing the frozen scan products copy-on-write, so repeated calls cost
// microseconds, not a log rescan. Results are bit-identical to a freshly
// scanned engine.
func (m *Model) NewPlanner() *Planner {
	return &Planner{eng: m.base().Clone()}
}

// Clone returns an independent deep copy: Add and Select on the clone never
// disturb the receiver, and the clone's results are bit-identical to those
// of a freshly scanned planner driven through the same calls.
func (p *Planner) Clone() *Planner { return &Planner{eng: p.eng.Clone()} }

// Gain returns the marginal gain sigma_cd(S+x) - sigma_cd(S) of candidate x
// against the committed seed set (Theorem 3). Read-only.
func (p *Planner) Gain(x NodeID) float64 { return p.eng.Gain(x) }

// Add commits x to the seed set, updating the credit structure incrementally
// (Algorithm 5).
func (p *Planner) Add(x NodeID) { p.eng.Add(x) }

// Seeds returns the committed seed set in selection order.
func (p *Planner) Seeds() []NodeID { return p.eng.Seeds() }

// Select greedily extends the committed seed set by up to k seeds with
// CELF (Algorithm 3) via the shared selection engine — the
// first-iteration gain pass and stale-bound refreshes fan over the
// engine's configured workers, with bit-identical seeds and gains at any
// worker count — and returns the selection trace. It mutates the planner;
// use Clone first to keep the receiver reusable.
func (p *Planner) Select(k int) seedsel.Result {
	return celf.Run(p.eng, k, celf.Options{Workers: p.eng.Workers()})
}

// Entries returns the number of live UC credit entries, the paper's memory
// statistic (Figure 8, Table 4).
func (p *Planner) Entries() int64 { return p.eng.Entries() }

// ResidentBytes reports the UC structure's total footprint: HeapBytes
// plus MappedBytes.
func (p *Planner) ResidentBytes() int64 { return p.eng.ResidentBytes() }

// HeapBytes reports the Go-heap slice footprint of the UC structure;
// shards still served from a mapped snapshot contribute nothing.
func (p *Planner) HeapBytes() int64 { return p.eng.HeapBytes() }

// MappedBytes reports the file-backed footprint: bytes of a mapped
// snapshot's base section this planner's shards still alias (zero for
// heap-loaded models, shrinking as writes promote shards to heap).
func (p *Planner) MappedBytes() int64 { return p.eng.MappedBytes() }

// RowStoreBackend reports how the planner's shards are served: "mmap"
// while any shard still aliases a mapped snapshot, "heap" otherwise.
func (p *Planner) RowStoreBackend() string { return p.eng.RowStoreBackend() }

// NumActions returns how many actions the planner has scanned.
func (p *Planner) NumActions() int { return p.eng.NumActions() }

// DeltaActions returns how many appended actions sit outside the frozen
// base (zero for a fresh or compacted planner).
func (p *Planner) DeltaActions() int { return p.eng.DeltaActions() }

// DeltaEntries returns the UC entries the appended actions contributed.
func (p *Planner) DeltaEntries() int64 { return p.eng.DeltaEntries() }

// Compact folds appended delta shards into the frozen base and releases
// every shard to shared status, so subsequent Clones copy nothing (seed
// selection then works copy-on-write). Must not run concurrently with
// other calls on the same planner; results are unchanged.
func (p *Planner) Compact() { p.eng.Compact() }

// Freeze releases every shard to shared status without folding the delta:
// Clones copy nothing, later mutations pay copy-on-write, and the delta
// accounting survives for stats. The serving layer freezes a snapshot's
// base planner before publishing it. Must not run concurrently with other
// calls on the same planner.
func (p *Planner) Freeze() { p.eng.Freeze() }

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
func (m *Model) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("credist: create snapshot file: %w", err)
	}
	if err := m.WriteSnapshot(f, nil, m.prefix); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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
	eng := (*core.Engine)(nil)
	if p == nil {
		eng = m.base()
	} else {
		if p.eng.CreditModel() != m.credit {
			return fmt.Errorf("credist: planner was scanned with different credit parameters than this model")
		}
		if pl, ml := p.eng.Lambda(), m.opts.Lambda; pl != ml {
			return fmt.Errorf("credist: planner was scanned with lambda %g, model uses %g", pl, ml)
		}
		if pn, ln := p.NumActions(), m.ds.Log.NumActions(); pn != ln {
			return fmt.Errorf("credist: planner covers %d actions, model's log holds %d", pn, ln)
		}
		eng = p.eng
	}
	// The RR sketch and provenance index ride along whenever their tiers
	// hold one: both are derived over exactly the model's log, and the
	// lineage written here is that same log's, so sections attached to
	// this model are always consistent with the snapshot (the version
	// stays 3 when there is no section, keeping sectionless files
	// byte-identical).
	return eng.WriteSnapshotProv(w, core.DatasetLineage(m.ds.Name, m.ds.Graph, m.ds.Log), prefix, m.approxSketch(), m.provForSave())
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
		return loadSnapshotModel(ds, br, opts)
	}
	credit, err := core.ReadTimeAware(br)
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
// The caller owns the mapping's lifetime: Close the model only after all
// planners derived from it are gone.
func LoadModelMapped(ds *Dataset, path string, opts Options) (*Model, error) {
	eng, lin, prefix, sketch, prov, ms, err := core.OpenSnapshotMappedProv(path)
	if err != nil {
		return nil, err
	}
	m, err := bindSnapshotModel(ds, eng, lin, prefix, sketch, prov, opts)
	if err != nil {
		ms.Close()
		return nil, err
	}
	m.mapped = ms
	return m, nil
}

// loadSnapshotModel binds a heap-parsed binary snapshot to ds.
func loadSnapshotModel(ds *Dataset, r io.Reader, opts Options) (*Model, error) {
	eng, lin, prefix, sketch, prov, err := core.ReadSnapshotProv(r)
	if err != nil {
		return nil, err
	}
	return bindSnapshotModel(ds, eng, lin, prefix, sketch, prov, opts)
}

// bindSnapshotModel finishes a snapshot load regardless of backend:
// lineage check, options resolution, and the tail append for a log that
// has grown past the snapshot's scanned prefix.
func bindSnapshotModel(ds *Dataset, eng *core.Engine, lin core.Lineage, prefix *SeedPrefix, sketch *core.RRSketch, prov *core.ProvIndex, opts Options) (*Model, error) {
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
		if err := eng.AppendActions(ds.Graph, ds.Log, ActionID(lin.NumActions)); err != nil {
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
	// Freeze rather than Compact: clones share everything either way, and
	// keeping the delta accounting lets callers (and /stats) see how much
	// of the engine came from the post-snapshot tail.
	eng.Freeze()
	m := newModel(ds, stored, credit)
	m.base = func() *core.Engine { return eng }
	m.prefix = prefix
	m.approx.restored = sketch
	m.prov.restored = prov
	return m, nil
}
