package core

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"credist/internal/actionlog"
	"credist/internal/graph"
)

// Engine is the incremental marginal-gain machinery behind the CD-model
// greedy algorithm. Construction performs the one-time Scan of the action
// log (Algorithm 2), building for every action the total-credit structure
// UC where UC[v][u][a] = Gamma^{V-S}_{v,u}(a); thereafter Gain evaluates
// Theorem 3 in time linear in the touched credit entries (Algorithm 4) and
// Add maintains UC and SC incrementally via Lemmas 2 and 3 (Algorithm 5).
//
// UC is stored as sorted sparse rows (sparse.go), so every walk — scan,
// gain, seed update — visits entries in a fixed (influencer, influenced)
// order and the floating-point results are bit-for-bit identical across
// runs, reloads, and worker counts.
//
// Shards split into a frozen base and a mutable delta. Because credits
// never cross actions, an engine can grow by scanning only new actions
// (AppendActions) while the already-scanned shards stay untouched, and
// sibling engines (Clone) share frozen shards instead of copying them:
// Add copies a shard on first write (copy-on-write), so the shared base is
// never mutated. Compact folds the delta into the base, re-freezing the
// engine so future clones are cheap again.
type Engine struct {
	numUsers int
	// au and actionsOf are mutated in place only while ownsUsers is true
	// (the engine holds the sole reference); once shared by Clone or
	// frozen by Compact, AppendActions/IngestAction replace them wholesale
	// instead, so siblings keep a consistent view.
	ownsUsers bool
	au        []int32   // Au: actions performed per user (training log)
	actionsOf [][]int32 // per user: training actions they performed

	// uc[a] points at action a's shard through the rowStore interface
	// (rowstore.go): a heap ucAction, or a read-only window into a mapped
	// version-3 snapshot. owned[a] reports whether this engine may mutate
	// the shard in place — owned shards are always heap; unowned shards
	// are shared with sibling engines (or the mapping) and are promoted to
	// a private heap copy by mutShard before the first write. Delta shards
	// (indices >= baseActions) are always heap: they come only from this
	// process's own scans.
	uc    []rowStore
	owned []bool

	sc      []map[int32]float64 // per action: Gamma_{S,x}(a) for current seeds
	seeds   []graph.NodeID
	entries int64 // live UC entry count, for memory accounting
	lambda  float64
	credit  CreditModel // the direct-credit rule the shards were scanned with
	workers int         // raw Options.Workers, reused by AppendActions

	baseActions  int   // shards [0, baseActions) form the frozen base
	deltaEntries int64 // entries the delta shards contributed when scanned

	// A partition engine (partition.go) holds only the UC rows of
	// influencers in [partLo, partHi) while carrying the full global
	// per-user state; partitioned stays false on full engines, whose row
	// range is implicitly [0, numUsers).
	partitioned    bool
	partLo, partHi int
}

// Options configures engine construction.
type Options struct {
	// Lambda is the truncation threshold of Section 5.3: path credits
	// below it are discarded during the scan, bounding memory. The paper's
	// default is 0.001. Zero means no truncation.
	Lambda float64
	// Credit selects the direct-credit rule; nil means SimpleCredit.
	Credit CreditModel
	// Workers parallelizes the action-log scan. Credits are per-action, so
	// actions shard cleanly across goroutines; because every shard is a
	// sorted sparse structure, results are bit-for-bit identical
	// regardless of worker count. Default GOMAXPROCS; 1 forces the serial
	// scan of Algorithm 2.
	Workers int
}

// NewEngine scans the training log and returns a ready engine. The fresh
// engine owns every shard, so seed selection mutates in place with no
// copy-on-write cost; call Compact to freeze it for cheap cloning.
func NewEngine(g *graph.Graph, train *actionlog.Log, opts Options) *Engine {
	model := opts.Credit
	if model == nil {
		model = SimpleCredit{}
	}
	numActions := train.NumActions()
	e := &Engine{
		numUsers:    train.NumUsers(),
		ownsUsers:   true,
		au:          make([]int32, train.NumUsers()),
		actionsOf:   make([][]int32, train.NumUsers()),
		sc:          make([]map[int32]float64, numActions),
		lambda:      opts.Lambda,
		credit:      model,
		workers:     opts.Workers,
		baseActions: numActions,
	}
	for u := 0; u < train.NumUsers(); u++ {
		e.au[u] = int32(train.ActionCount(graph.NodeID(u)))
	}
	shards, props, entries := scanShards(g, train, 0, numActions, model, e.lambda, e.workers)
	e.uc = make([]rowStore, numActions)
	for a, shard := range shards {
		e.uc[a] = shard
	}
	e.entries = entries
	e.owned = make([]bool, numActions)
	for a := range e.owned {
		e.owned[a] = true
	}
	// actionsOf is rebuilt serially in action order so its contents do not
	// depend on worker scheduling.
	for a := 0; a < numActions; a++ {
		for _, u := range props[a].Users {
			e.actionsOf[u] = append(e.actionsOf[u], actionlog.ActionID(a))
		}
	}
	return e
}

// scanShards builds the UC shards (and propagation DAGs) of actions
// [from, to) of the log, fanned over a worker pool. Shards are written by
// index, so the result is independent of scheduling.
func scanShards(g *graph.Graph, log *actionlog.Log, from, to int, model CreditModel, lambda float64, workers int) ([]*ucAction, []*actionlog.Propagation, int64) {
	n := to - from
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	shards := make([]*ucAction, n)
	props := make([]*actionlog.Propagation, n)
	perWorker := make([]int64, workers)
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				a := actionlog.ActionID(from + int(i))
				p := actionlog.BuildPropagation(log, g, a)
				props[i] = p
				shard, tally := scanAction(p, model, lambda, perWorker[w])
				shards[i] = &shard
				perWorker[w] = tally
			}
		}(w)
	}
	wg.Wait()
	var entries int64
	for _, n := range perWorker {
		entries += n
	}
	return shards, props, entries
}

// scanAction processes one propagation chronologically (the per-action
// body of Algorithm 2), accumulating direct and transitive credits into a
// fresh UC shard. It returns the shard and the updated entry tally. All
// loops walk slices in sorted order, so the accumulated floats do not
// depend on scheduling or hashing.
func scanAction(p *actionlog.Propagation, model CreditModel, lambda float64, entries int64) (ucAction, int64) {
	ua := ucAction{}
	add := func(v, u int32, delta float64) {
		cr, created := ua.cell(v, u)
		if created {
			entries++
		}
		*cr += delta
	}
	for i, u := range p.Users {
		for _, j := range p.Parents[i] {
			v := p.Users[j]
			gamma := model.Gamma(p, int32(i), j)
			if gamma < lambda || gamma <= 0 {
				continue
			}
			add(v, u, gamma)
			// Transitive credit: everyone with credit over v extends it
			// to u, scaled by gamma (Eq. 5), subject to truncation. The
			// adds below only touch u's column, so the snapshot of v's
			// column stays valid.
			for _, w := range ua.col(v) {
				c, _ := ua.get(w, v)
				c *= gamma
				if c >= lambda && c > 0 {
					add(w, u, c)
				}
			}
		}
	}
	return ua, entries
}

// AppendActions extends the engine with the tail of a combined log without
// re-scanning the prefix: log must contain the engine's already-scanned
// actions as [0, from) and from must equal NumActions(). The tail
// [from, log.NumActions()) is scanned in parallel into delta shards, au
// and actionsOf are extended (copied first when shared with clones, via
// mutUsers), and users the engine has not seen — the log universe may
// have grown — are registered, provided the graph covers them. Gain,
// Spread via SC, and CELF selections on the result are bit-for-bit
// identical to a from-scratch NewEngine over the combined log with the
// same credit rule, because every carried-over structure is per-action
// and Au only grows.
//
// Appending is only legal before the first Add: committed seeds turn UC
// into the V-S restriction, which raw per-action credits would corrupt.
func (e *Engine) AppendActions(g *graph.Graph, log *actionlog.Log, from actionlog.ActionID) error {
	if len(e.seeds) > 0 {
		return ErrSeedsCommitted
	}
	if int(from) != len(e.uc) {
		return fmt.Errorf("core: append from action %d, but engine has scanned %d", from, len(e.uc))
	}
	if log.NumActions() < int(from) {
		return fmt.Errorf("core: combined log has %d actions, fewer than the %d already scanned", log.NumActions(), from)
	}
	if log.NumUsers() > g.NumNodes() {
		return fmt.Errorf("core: log universe (%d users) exceeds the graph (%d nodes)", log.NumUsers(), g.NumNodes())
	}
	if log.NumUsers() < e.numUsers {
		return fmt.Errorf("core: log universe shrank: %d users, engine has %d", log.NumUsers(), e.numUsers)
	}
	to := log.NumActions()
	shards, props, entries := scanShards(g, log, int(from), to, e.credit, e.lambda, e.workers)

	// The per-user walk is serial and in action order, so actionsOf ends
	// up exactly as NewEngine over the combined log would build it.
	oldNumUsers := e.numUsers
	e.mutUsers(log.NumUsers())
	// A partition whose range ends at the universe end keeps ending there:
	// rows of users the appended tail registered belong to the trailing
	// partition, preserving full coverage without cross-partition
	// coordination.
	if e.partitioned && e.partHi == oldNumUsers {
		e.partHi = e.numUsers
	}

	// Ingest routing: a partition keeps only the scanned rows it owns —
	// under the range as just extended, so new users' rows are kept by the
	// trailing partition rather than dropped. The filtered shards sum to
	// exactly the full scan across a contiguous partition set, and the
	// global per-user walk below is identical on every partition, so
	// per-partition appends stay bit-equivalent to slicing a freshly
	// appended full engine.
	if e.partitioned {
		entries = 0
		for i, shard := range shards {
			sub, n := e.filterShardToPartition(shard)
			shards[i] = sub
			entries += n
		}
	}
	for i, p := range props {
		a := from + actionlog.ActionID(i)
		for _, u := range p.Users {
			e.au[u]++
			e.actionsOf[u] = append(e.actionsOf[u], a)
		}
	}

	uc := make([]rowStore, to)
	copy(uc, e.uc)
	for i, shard := range shards {
		uc[int(from)+i] = shard
	}
	owned := make([]bool, to)
	copy(owned, e.owned)
	for a := int(from); a < to; a++ {
		owned[a] = true
	}
	sc := make([]map[int32]float64, to)
	copy(sc, e.sc)

	e.uc = uc
	e.owned = owned
	e.sc = sc
	e.entries += entries
	e.deltaEntries += entries
	return nil
}

// mutUsers makes the per-user state (au, actionsOf) privately mutable and
// at least newNumUsers long. While the engine owns it — fresh from
// NewEngine, or after a previous call — mutation happens in place, so a
// trickle of IngestAction calls costs only the touched users; once shared
// by Clone or frozen by Compact, the next mutation pays one full copy.
func (e *Engine) mutUsers(newNumUsers int) {
	if newNumUsers < e.numUsers {
		newNumUsers = e.numUsers
	}
	if !e.ownsUsers {
		au := make([]int32, newNumUsers)
		copy(au, e.au)
		actionsOf := make([][]int32, newNumUsers)
		for u, row := range e.actionsOf {
			actionsOf[u] = slices.Clone(row)
		}
		e.au, e.actionsOf = au, actionsOf
		e.ownsUsers = true
	} else if newNumUsers > e.numUsers {
		au := make([]int32, newNumUsers)
		copy(au, e.au)
		actionsOf := make([][]int32, newNumUsers)
		copy(actionsOf, e.actionsOf) // inner rows are already private
		e.au, e.actionsOf = au, actionsOf
	}
	e.numUsers = newNumUsers
}

// Compact folds the delta into the base and freezes the engine: every
// shard this engine owns is re-allocated at exact size (shedding the
// growth slack the incremental scan left) and released to shared status,
// so subsequent Clones copy nothing and Add falls back to copy-on-write.
// The delta counters reset; results are unchanged. Compact must not run
// concurrently with readers of the same engine.
func (e *Engine) Compact() {
	// Owned shards anywhere, plus every delta shard: a delta frozen by an
	// earlier Freeze is no longer owned but still carries its scan-time
	// growth slack, and folding it into the base is the moment to shed it.
	// Mapped shards are left as they are: never owned, always inside the
	// old base, they stay shared windows into the snapshot file.
	for a := range e.uc {
		if e.owned[a] || a >= e.baseActions {
			e.uc[a] = e.uc[a].promote()
			e.owned[a] = false
		}
	}
	e.baseActions = len(e.uc)
	e.deltaEntries = 0
	// Freeze the per-user state too: future clones share it, and the next
	// ingest copies it back out.
	e.ownsUsers = false
}

// Clone returns an independent engine: committing seeds to the clone never
// disturbs the original, and a sequence of Gain/Add calls on the clone
// produces bit-for-bit the floats the original would have produced. Frozen
// (unowned) shards and the read-only per-user state are shared, so cloning
// a compacted engine costs an outer-slice copy — microseconds — while
// shards the receiver still owns (its delta, or shards it already mutated)
// are deep-copied. This is what lets a serving layer keep one scanned
// engine per model snapshot and hand mutable copies to concurrent
// seed-selection requests.
func (e *Engine) Clone() *Engine {
	c := &Engine{
		numUsers:     e.numUsers,
		uc:           slices.Clone(e.uc),
		owned:        slices.Clone(e.owned),
		sc:           make([]map[int32]float64, len(e.sc)),
		seeds:        slices.Clone(e.seeds),
		entries:      e.entries,
		lambda:       e.lambda,
		credit:       e.credit,
		workers:      e.workers,
		baseActions:  e.baseActions,
		deltaEntries: e.deltaEntries,
		partitioned:  e.partitioned,
		partLo:       e.partLo,
		partHi:       e.partHi,
	}
	// Shards the receiver owns may be mutated by its future Adds or
	// compacted away, so the clone takes private copies; shared shards are
	// frozen and stay shared.
	for a, own := range c.owned {
		if own {
			c.uc[a] = c.uc[a].promote()
		}
	}
	// Same for the per-user state: an owning receiver mutates it in place
	// on ingest, so the clone copies; a frozen one is shared.
	if e.ownsUsers {
		c.ownsUsers = true
		c.au = slices.Clone(e.au)
		c.actionsOf = make([][]int32, len(e.actionsOf))
		for u, row := range e.actionsOf {
			c.actionsOf[u] = slices.Clone(row)
		}
	} else {
		c.au = e.au
		c.actionsOf = e.actionsOf
	}
	for i, m := range e.sc {
		if m != nil {
			c.sc[i] = maps.Clone(m)
		}
	}
	return c
}

// mutShard returns action a's shard ready for in-place mutation, promoting
// it to a private heap copy first when it is shared with sibling engines
// (copy-on-write) or backed by a mapped snapshot (promote-on-first-write;
// the mapping itself is never touched). Owned shards are heap by
// construction, so the assertion below cannot fail.
func (e *Engine) mutShard(a int32) *ucAction {
	if !e.owned[a] {
		e.uc[a] = e.uc[a].promote()
		e.owned[a] = true
	}
	return e.uc[a].(*ucAction)
}

// Credit returns UC[v][u][a] = Gamma^{V-S}_{v,u}(a) under the current seed
// set. Exposed for tests and diagnostics.
func (e *Engine) Credit(a actionlog.ActionID, v, u graph.NodeID) float64 {
	if int(a) >= len(e.uc) {
		return 0
	}
	c, _ := e.uc[a].get(v, u)
	return c
}

// SeedCredit returns SC[x][a] = Gamma_{S,x}(a) for the current seed set.
func (e *Engine) SeedCredit(a actionlog.ActionID, x graph.NodeID) float64 {
	return e.seedCredit(a, int32(x))
}

// Entries returns the number of live UC entries, the memory statistic
// reported in Figure 8 and Table 4.
func (e *Engine) Entries() int64 { return e.entries }

// CreditModel returns the direct-credit rule the shards were scanned with.
func (e *Engine) CreditModel() CreditModel { return e.credit }

// Lambda returns the truncation threshold the shards were scanned with.
func (e *Engine) Lambda() float64 { return e.lambda }

// Freeze releases every shard and the per-user state to shared status
// without copying anything or folding the delta (unlike Compact, the
// delta counters and the shards' capacity slack are kept). Clones of a
// frozen engine share everything, and any later mutation — an Add on a
// clone, a fresh ingest — pays copy-on-write. Serving snapshots freeze
// their base planner before publishing it, so per-request clones stay
// cheap between compactions. Must not run concurrently with other calls
// on the same engine.
func (e *Engine) Freeze() {
	for a := range e.owned {
		e.owned[a] = false
	}
	e.ownsUsers = false
}

// DeltaEntries returns the UC entries contributed by actions appended
// since construction or the last Compact — the delta's size, as scanned.
func (e *Engine) DeltaEntries() int64 { return e.deltaEntries }

// DeltaActions returns how many appended actions sit outside the frozen
// base (zero after NewEngine or Compact).
func (e *Engine) DeltaActions() int { return len(e.uc) - e.baseActions }

// NumNodes returns the user-universe size, making Engine usable as a
// seedsel.Estimator.
func (e *Engine) NumNodes() int { return e.numUsers }

// Workers returns the raw Options.Workers the engine was built with
// (0 means GOMAXPROCS). Seed selection reuses it so the CELF gain fan-out
// follows the same knob as the scan.
func (e *Engine) Workers() int { return e.workers }

// ConcurrentGain marks Gain as safe for concurrent calls between Adds
// (it reads only state that Add-free execution leaves untouched), which
// is what lets the shared celf engine fan the first-iteration and
// stale-refresh gain evaluations over workers. It is a compile-time
// marker for celf.ConcurrentEstimator and is never called.
func (e *Engine) ConcurrentGain() {}

// Seeds returns the committed seed set in selection order.
func (e *Engine) Seeds() []graph.NodeID {
	out := make([]graph.NodeID, len(e.seeds))
	copy(out, e.seeds)
	return out
}

// Gain computes the marginal gain sigma_cd(S+x) - sigma_cd(S) of candidate
// x against the current seed set via Theorem 3 (Algorithm 4):
//
//	sum over actions a performed by x of
//	  (1 - Gamma_{S,x}(a)) * (1/A_x + sum_u UC[x][u][a]/A_u)
//
// where the 1/A_x term is x's self-credit Gamma^{V-S}_{x,x}(a) = 1. The
// row walk is in ascending influenced-id order, so the returned float is
// identical across engine instances built from the same inputs.
//
// A committed seed gains exactly 0: sigma_cd(S+x) = sigma_cd(S) when x is
// already in S. The walk below cannot derive that (Add removed x's row, and
// SC keeps no diagonal entry), so it is checked up front — CELF never asks,
// but the batched-gain API accepts arbitrary candidates.
func (e *Engine) Gain(x graph.NodeID) float64 { return e.GainObj(x, nil) }

// gainSum is the Theorem 3 sum behind Gain, GainObj and Probe.Gain, the
// one place its arithmetic lives:
//
//	sum over actions a performed by x of
//	  (1 - SC[x][a]) * (f(x,a)/A_x + sum_u f(u,a) * UC[x][u][a]/A_u)
//
// with f the objective factor w(u)*gate(u,a), and f = 1 (the unweighted
// walk) for the default objective. rowSC(i, a) supplies x's credit row
// and SC[x][a] in x's i-th action a; actions are visited in log order and
// row cells in ascending influenced-id order, so the float depends only
// on the rows and SC values supplied.
func (e *Engine) gainSum(x graph.NodeID, obj *Objective, rowSC func(i int, a int32) ([]ucEntry, float64)) float64 {
	ax := float64(e.au[x])
	if ax == 0 {
		return 0
	}
	if obj.IsDefault() {
		obj = nil
	}
	mg := 0.0
	for i, a := range e.actionsOf[x] {
		row, scx := rowSC(i, a)
		mga := 0.0
		if obj == nil {
			mga = 1.0 / ax
			for _, en := range row {
				mga += en.c / float64(e.au[en.u])
			}
		} else {
			if fx := obj.factor(a, x); fx != 0 {
				mga = fx / ax
			}
			for _, en := range row {
				if f := obj.factor(a, en.u); f != 0 {
					mga += f * en.c / float64(e.au[en.u])
				}
			}
		}
		mg += mga * (1 - scx)
	}
	return mg
}

// seedCredit returns SC[x][a], zero when unset.
func (e *Engine) seedCredit(a, x int32) float64 {
	if e.sc[a] == nil {
		return 0
	}
	return e.sc[a][x]
}

// Add commits x to the seed set and updates UC and SC (Algorithm 5):
// Lemma 2 removes from every credit the share flowing through x, and
// Lemma 3 raises Gamma_{S,u}(a) for every u that x has credit over.
// Finally x's row and column are removed, matching the V-S superscript
// semantics of Theorem 3. Both walks follow sorted id order. Shards
// shared with sibling engines are copied before the first write, so Add
// never disturbs a clone or the frozen base of a serving snapshot.
//
// Add is exactly CommitSeedRow driven by the engine's own row
// (partition.go), which is what makes a scatter-gather commit across
// row-range partitions bit-identical to the single-engine commit.
func (e *Engine) Add(x graph.NodeID) {
	e.CommitSeedRow(x, e.ExtractSeedRow(x))
}

// ResidentBytes reports the UC structure's total footprint across both
// backends: HeapBytes plus MappedBytes. Shards shared with sibling engines
// are counted in full for every engine referencing them. On the
// flixster-small preset the heap representation measures 34.4 bytes per
// live entry (32.0 MiB total), versus 71.5 bytes per entry (66.4 MiB) for
// the mirrored map-of-maps representation it replaced.
func (e *Engine) ResidentBytes() int64 {
	return e.HeapBytes() + e.MappedBytes()
}

// HeapBytes reports the Go-heap slice footprint of the UC structure
// (16 bytes per row entry plus the column mirror and slice headers; see
// ucAction.residentBytes). Shards served from a mapped snapshot contribute
// nothing here — their pages are file-backed, not heap.
func (e *Engine) HeapBytes() int64 {
	var bytes int64
	for _, st := range e.uc {
		bytes += st.heapBytes()
	}
	return bytes
}

// MappedBytes reports the file-backed footprint of the UC structure: the
// bytes of the mapped snapshot's base section this engine's shards still
// alias (shards promoted to heap by a write no longer count). The OS pages
// these in and out on demand, so this is an upper bound on their resident
// cost.
func (e *Engine) MappedBytes() int64 {
	var bytes int64
	for _, st := range e.uc {
		bytes += st.mappedBytes()
	}
	return bytes
}

// RowStoreBackend reports how the engine's shards are served: "mmap" when
// any shard still aliases a mapped snapshot, "heap" otherwise.
func (e *Engine) RowStoreBackend() string {
	for _, st := range e.uc {
		if name := st.backendName(); name != "heap" {
			return name
		}
	}
	return "heap"
}
