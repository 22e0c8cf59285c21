package credist

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"credist/internal/actionlog"
	"credist/internal/core"
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
// NewPlanner calls. Every gain, selection and explanation is answered by
// a Planner; the model answers the exact spread (Spread, SpreadObj).
type Model struct {
	ds     *Dataset
	opts   Options
	credit core.CreditModel
	eval   func() *core.Evaluator
	// evalUsed is set once eval's build starts: Ingest extends only an
	// evaluator something already asked for.
	evalUsed atomic.Bool
	base     func() *core.Engine // immutable; every planner shares it
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
	// drawn by the first seed selection or BuildApproxSketch, or restored
	// from a version-5 snapshot's sketch (zero sampling on restart).
	approx approxTier
	// delays lazily indexes per-(action, participant) delays from the
	// action's first participation — what time-windowed objectives gate
	// on. Derived from the log alone, at most once per model.
	delays func() *core.ActionDelays
	// fileActions is how many log actions its snapshot file held
	// scanned, and openTail how many past them the open scanned
	// (loadSnapshotModel); both are zero for every other model.
	fileActions, openTail int
}

// Close releases the file mapping behind a model opened with
// LoadModelMapped; for every other model it is a no-op. It must only be
// called once no planner derived from the model is in use and no query on
// it is running — the model, its planners and their ingest successors
// read the mapped shards in place, and those reads fault once the mapping
// is gone.
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
		m.evalUsed.Store(true)
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

// OpenTailActions returns how many log actions past its snapshot files
// the load that opened the model scanned from the log: the rest came
// scanned from the files. It is zero for a model that was learned or
// derived by Ingest.
func (m *Model) OpenTailActions() int { return m.openTail }

// SnapshotActions returns how many log actions the snapshot files the
// model was opened from held scanned. It is zero for a model that was
// learned or derived by Ingest.
func (m *Model) SnapshotActions() int { return m.fileActions }

// Options returns the options the model was learned with.
func (m *Model) Options() Options { return m.opts }

// Spread predicts the expected influence spread sigma_cd of a seed set.
// It is safe for concurrent use: evaluation reads only immutable scan
// products, so any number of goroutines may call Spread on a shared
// Model. A seed outside [0, NumUsers) panics; SpreadObj returns an error
// for it instead.
func (m *Model) Spread(seeds []NodeID) float64 { return m.eval().Spread(seeds, nil) }

// Ingest returns a new Model extended with a batch of complete new
// propagations, without relearning: the credit parameters stay frozen and
// only the appended tail is processed (prefix propagation DAGs and direct
// credits are shared with the receiver, which keeps answering queries
// unchanged). The batch follows Log.Append's contract — canonical
// (action, time, user) order, action ids starting at the log's current
// NumActions() — and every user must exist in the social graph. Results on
// the new model are bit-identical to a model over the combined dataset
// with the same parameters (e.g. one restored by LoadModel). Only an
// evaluator something asked for is extended; else the new one stays lazy.
func (m *Model) Ingest(tuples []Tuple) (*Model, error) {
	newLog, err := m.ds.Log.AppendWithin(tuples, 0, m.ds.Graph.NumNodes())
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
	if m.evalUsed.Load() {
		eval, err := m.eval().Extend(m.ds.Graph, newLog, ActionID(m.ds.Log.NumActions()))
		if err != nil {
			return nil, err
		}
		grown.eval = func() *core.Evaluator { return eval }
		grown.evalUsed.Store(true)
	}
	return grown, nil
}

// ExtendPlanner derives a planner for this (post-Ingest) model from one
// scanned against the pre-ingest log: only the appended action tail is
// scanned, once, into a successor engine that shares every shard of the
// source's, and a partitioned source keeps its ranges, the trailing one
// stretched over any users the tail registered. The source planner must
// come from the model lineage this model was ingested from (same credit
// parameters, a prefix of the same log) and must not have committed
// seeds, whose gains describe the old log; see checkPlanner for what is
// rejected. A planner from a different log that happens to agree on all
// of that (possible only with the parameterless simple-credit rule)
// cannot be detected cheaply and yields meaningless results — pairing
// planners with their own model lineage is the caller's contract. Gains
// and CELF selections on the result are bit-identical to those of a
// freshly scanned NewPlanner, at a fraction of the cost; see
// BenchmarkAppendVsRescan. The source keeps serving unchanged, and the
// successor reads its mapped shards without owning the mappings: Close
// the planner that opened them.
func (m *Model) ExtendPlanner(p *Planner) (*Planner, error) {
	if err := m.checkPlanner(p, "extend", false); err != nil {
		return nil, err
	}
	eng, err := p.eng.AppendActions(m.ds.Graph, m.ds.Log, ActionID(p.NumActions()))
	if err != nil {
		return nil, err
	}
	return newPlanner(m, eng, partition.Extend(p.ranges, eng.NumNodes())), nil
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
	eng := p.eng
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

// NewPlanner returns a planner with an empty seed set over the model's
// scanned UC structure (Algorithm 2). The scan happens at most once per
// model — on the first call, or never for a model restored by LoadModel
// from a binary snapshot — and every planner shares it, so repeated
// calls cost microseconds, not a log rescan.
func (m *Model) NewPlanner() *Planner { return newPlanner(m, m.base(), nil) }

// Selection runs default-objective seed selection from an empty seed set
// and returns the full trace (seeds, gains, per-seed timing, and the
// number of marginal-gain evaluations); it is NewPlanner().Select(k, nil).
func (m *Model) Selection(k int) seedsel.Result {
	res, _ := m.NewPlanner().Select(k, nil) // the default objective never fails
	return res
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
	return seedsel.PageRankSeeds(ds.Graph, k)
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
// (possibly ingest-extended) planner without a second scan; a
// partitioned planner writes the same one whole-model file. prefix, if
// non-nil, is the computed seed prefix to persist alongside the engine —
// it must have been selected against exactly the state being written
// (this model's parameters over the planner's log), or a restart would
// serve seeds the restored model never chose.
func (m *Model) WriteSnapshot(w io.Writer, p *Planner, prefix *SeedPrefix) error {
	var eng *core.Engine
	if p == nil {
		eng = m.base()
	} else {
		if err := m.checkPlanner(p, "snapshot", true); err != nil {
			return err
		}
		eng = p.eng
	}
	// The RR sketch rides along whenever the approximate tier holds one:
	// it is derived over exactly the model's log, and the lineage written
	// here is that same log's, so a sketch attached to this model is
	// always consistent with the snapshot (the version stays 3 without
	// one, keeping sketchless files byte-identical).
	return eng.WriteSnapshot(w, core.DatasetLineage(m.ds.Name, m.ds.Graph, m.ds.Log), prefix, m.approxSketch())
}

// IsModelSnapshot reports whether data (at least the first 8 bytes of a
// file) begins with the binary model-snapshot magic — the format written
// by Model.Save and `credist learn -o`.
func IsModelSnapshot(data []byte) bool { return core.IsSnapshotHeader(data) }

// LoadModel restores a model from a binary snapshot written by Save or
// `credist learn -o`, of version 3, 5 or 6, reading the whole file into
// memory and binding the result to the given dataset. LoadModelMapped
// accepts exactly the same files and refuses the same ones: anything
// else, a text parameter file or a version-4 slice included, is refused
// with an error that names the file and says to rebuild it with
// `credist learn -o`.
//
// The dataset is lineage-checked: the graph must hash-match the one the
// snapshot was built against, and the log must contain the snapshot's
// scanned prefix verbatim. The log may be longer — the restored engine
// appends only the unscanned tail (bit-identical to a from-scratch rescan
// of the combined log), which is what makes restarting an ingesting
// service a matter of milliseconds instead of a full rescan. The
// snapshot's stored options are authoritative: pass the same options it
// was saved with, or the zero Options to adopt them; anything else is a
// lineage error.
func LoadModel(ds *Dataset, path string, opts Options) (*Model, error) {
	return loadSnapshotModel(ds, path, false, opts)
}

// LoadModelMapped is LoadModel with the frozen UC base served directly
// from the memory-mapped file: no cell is parsed, no shard allocated, and
// the OS pages cold shards in and out on demand, so the model can exceed
// RAM and opening is near-instant regardless of model size. It accepts
// the same files as LoadModel, with the same lineage check, stored-options
// authority and tail append for a grown log (the tail is scanned onto the
// heap; the base stays mapped), and every query is bit-identical to the
// heap-loaded model.
//
// The caller owns the mapping's lifetime: Close the model only after all
// planners derived from it are gone and its queries have returned.
func LoadModelMapped(ds *Dataset, path string, opts Options) (*Model, error) {
	return loadSnapshotModel(ds, path, true, opts)
}

// loadSnapshotModel is the one snapshot bind behind LoadModel,
// LoadModelMapped and the partitioned opens. It opens the whole-model
// file at path, heap-read or mapped, and binds it to ds: the file must
// pass the lineage check, its learned parameters must cover the graph,
// and its stored options must match opts (the zero Options adopts them).
// When the log has grown past the file's scan, the engine appends the
// unscanned tail once. A mapped model keeps the file open until Close,
// since its engine aliases the mapping; a heap open leaves nothing open.
func loadSnapshotModel(ds *Dataset, path string, mmap bool, opts Options) (*Model, error) {
	f, err := core.OpenSnapshot(path, mmap)
	if err != nil {
		return nil, fmt.Errorf("credist: snapshot %s: %w", path, err)
	}
	// fail closes the file before returning err.
	fail := func(err error) (*Model, error) {
		f.Close()
		return nil, fmt.Errorf("credist: %w", err)
	}
	if err := f.Lineage.Check(ds.Graph, ds.Log); err != nil {
		return fail(fmt.Errorf("snapshot %s: %w", path, err))
	}
	// The graph hash matched, so parameters learned on this graph cover
	// every node; a crafted file that passed its CRC but shrank the
	// parameter table must still be refused before Gamma can index past it.
	eng := f.Engine
	if ta, ok := eng.CreditModel().(*core.TimeAwareCredit); ok && ta.UniverseSize() < ds.Graph.NumNodes() {
		return fail(fmt.Errorf("snapshot %s: parameters cover %d users, graph has %d nodes", path, ta.UniverseSize(), ds.Graph.NumNodes()))
	}
	stored := storedOptions(eng)
	if opts != (Options{}) && opts != stored {
		return fail(fmt.Errorf("snapshot was saved with options %+v, load requested %+v (pass the zero Options to adopt the stored ones)", stored, opts))
	}
	prefix, sketch := f.Prefix, f.Sketch
	if ds.Log.NumActions() > f.Lineage.NumActions {
		if eng, err = eng.AppendActions(ds.Graph, ds.Log, ActionID(f.Lineage.NumActions)); err != nil {
			return fail(err)
		}
		// The stored seed prefix was selected over the file's log prefix;
		// appended actions change every marginal gain, so it no longer
		// describes this model. The RR sketch falls for the same reason:
		// its walks sampled the old log's DAGs.
		prefix, sketch = nil, nil
	}
	m := newModel(ds, stored, eng.CreditModel())
	m.base = func() *core.Engine { return eng }
	m.prefix = prefix
	m.fileActions = f.Lineage.NumActions
	m.openTail = ds.Log.NumActions() - f.Lineage.NumActions
	if err := m.restoreApprox(sketch); err != nil {
		return fail(err)
	}
	if mmap {
		m.file = f
	}
	return m, nil
}

// storedOptions returns the options a snapshot engine was saved with.
func storedOptions(e *core.Engine) Options {
	_, simple := e.CreditModel().(core.SimpleCredit)
	return Options{Lambda: e.Lambda(), SimpleCredit: simple}
}
