package core

import (
	"fmt"
	"slices"

	"credist/internal/actionlog"
	"credist/internal/graph"
)

// Engine is the scanned credit structure behind the CD-model greedy
// algorithm. Construction performs the one-time Scan of the action log
// (Algorithm 2), building for every action the total-credit structure UC
// where UC[v][u][a] = Gamma_{v,u}(a); a Probe's Gain then evaluates
// Theorem 3 in time linear in the touched credit entries (Algorithm 4).
//
// An Engine is immutable once built. Seeds are never committed into it:
// a Probe (probe.go) records each committed seed's footprint and replays
// Lemmas 2 and 3 (Algorithm 5) onto private copies of the rows it prices,
// so any number of probes, selections and planners share one engine.
//
// UC is stored as sorted sparse rows (sparse.go), so every walk visits
// entries in a fixed (influencer, influenced) order, and the scan
// (scan.go) adds every credit's terms in a fixed parent order: the
// floating-point results are bit-for-bit identical across runs, reloads,
// and worker counts.
//
// Because credits never cross actions, an engine grows by scanning only
// new actions: AppendActions returns a successor that shares every
// already-scanned shard. An engine is a shard store and nothing more:
// gains and explanations are asked of a Probe over it, and how much of
// it a caller appended is counted by that caller.
type Engine struct {
	numUsers  int
	au        []int32   // Au: actions performed per user (training log)
	actionsOf [][]int32 // per user: training actions they performed

	// uc[a] points at action a's shard (sparse.go): scanned onto the
	// heap, or aliasing a snapshot's base section in a mapping or a heap
	// buffer. Shards are never written, so successors and partitions
	// share them.
	uc      []*shard
	entries int64 // UC entry count, for memory accounting
	lambda  float64
	credit  CreditModel // the direct-credit rule the shards were scanned with
	workers int         // raw Options.Workers, reused by AppendActions

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

// NewEngine scans the training log and returns a ready engine.
func NewEngine(g *graph.Graph, train *actionlog.Log, opts Options) *Engine {
	model := opts.Credit
	if model == nil {
		model = SimpleCredit{}
	}
	numActions := train.NumActions()
	e := &Engine{
		numUsers:  train.NumUsers(),
		au:        make([]int32, train.NumUsers()),
		actionsOf: make([][]int32, train.NumUsers()),
		lambda:    opts.Lambda,
		credit:    model,
		workers:   opts.Workers,
	}
	for u := 0; u < train.NumUsers(); u++ {
		e.au[u] = int32(train.ActionCount(graph.NodeID(u)))
	}
	shards, props, entries := scanShards(g, train, 0, numActions, model, e.lambda, e.workers)
	e.uc, e.entries = shards, entries
	// actionsOf is rebuilt serially in action order so its contents do not
	// depend on worker scheduling.
	for a := 0; a < numActions; a++ {
		for _, u := range props[a].Users {
			e.actionsOf[u] = append(e.actionsOf[u], actionlog.ActionID(a))
		}
	}
	return e
}

// AppendActions returns the engine extended with the tail of a combined
// log, without re-scanning the prefix: log must contain the engine's
// already-scanned actions as [0, from) and from must equal NumActions().
// The tail [from, log.NumActions()) is scanned in parallel into new
// shards, and users the engine has not seen — the log universe may have
// grown — are registered, provided the graph covers them. The successor
// shares every shard of the receiver, which stays valid and unchanged;
// the per-user state (au, actionsOf) is copied. Probe gains and CELF
// selections on the result are bit-for-bit identical to a from-scratch
// NewEngine over the combined log with the same credit rule, because
// every carried-over structure is per-action and Au only grows.
func (e *Engine) AppendActions(g *graph.Graph, log *actionlog.Log, from actionlog.ActionID) (*Engine, error) {
	if int(from) != len(e.uc) {
		return nil, fmt.Errorf("core: append from action %d, but engine has scanned %d", from, len(e.uc))
	}
	if log.NumActions() < int(from) {
		return nil, fmt.Errorf("core: combined log has %d actions, fewer than the %d already scanned", log.NumActions(), from)
	}
	if log.NumUsers() > g.NumNodes() {
		return nil, fmt.Errorf("core: log universe (%d users) exceeds the graph (%d nodes)", log.NumUsers(), g.NumNodes())
	}
	if log.NumUsers() < e.numUsers {
		return nil, fmt.Errorf("core: log universe shrank: %d users, engine has %d", log.NumUsers(), e.numUsers)
	}
	to := log.NumActions()
	shards, props, entries := scanShards(g, log, int(from), to, e.credit, e.lambda, e.workers)

	n := *e
	n.numUsers = log.NumUsers()
	// A partition whose range ends at the universe end keeps ending there:
	// rows of users the appended tail registered belong to the trailing
	// partition, preserving full coverage without cross-partition
	// coordination.
	if n.partitioned && n.partHi == e.numUsers {
		n.partHi = n.numUsers
	}

	// Ingest routing: a partition keeps only the scanned rows it owns —
	// under the range as just extended, so new users' rows are kept by the
	// trailing partition rather than dropped. The filtered shards sum to
	// exactly the full scan across a contiguous partition set, and the
	// global per-user walk below is identical on every partition, so
	// per-partition appends stay bit-equivalent to slicing a freshly
	// appended full engine.
	if n.partitioned {
		entries = 0
		for i, sh := range shards {
			shards[i] = n.filterShardToPartition(sh)
			entries += shards[i].entryCount()
		}
	}

	// The per-user walk is serial and in action order, so actionsOf ends
	// up exactly as NewEngine over the combined log would build it. Rows
	// the tail touches are copied before the append, so the receiver's
	// rows are never written.
	n.au = make([]int32, n.numUsers)
	copy(n.au, e.au)
	n.actionsOf = make([][]int32, n.numUsers)
	copy(n.actionsOf, e.actionsOf)
	for i, p := range props {
		a := from + actionlog.ActionID(i)
		for _, u := range p.Users {
			n.au[u]++
			row := n.actionsOf[u]
			if int(u) < len(e.actionsOf) && len(row) == len(e.actionsOf[u]) {
				row = slices.Clip(row) // first touch: never append into the receiver's row
			}
			n.actionsOf[u] = append(row, a)
		}
	}

	n.uc = make([]*shard, to)
	copy(n.uc, e.uc)
	copy(n.uc[from:], shards)
	n.entries += entries
	return &n, nil
}

// Credit returns UC[v][u][a] = Gamma_{v,u}(a), the scanned credit.
// Exposed for tests and diagnostics.
func (e *Engine) Credit(a actionlog.ActionID, v, u graph.NodeID) float64 {
	if int(a) >= len(e.uc) {
		return 0
	}
	c, _ := e.uc[a].get(v, u)
	return c
}

// NumActions returns how many actions the engine has scanned (initial log
// plus appended ones).
func (e *Engine) NumActions() int { return len(e.uc) }

// ActionCount returns the engine's A_u for user u.
func (e *Engine) ActionCount(u graph.NodeID) int { return int(e.au[u]) }

// Entries returns the number of live UC entries, the memory statistic
// reported in Figure 8 and Table 4.
func (e *Engine) Entries() int64 { return e.entries }

// CreditModel returns the direct-credit rule the shards were scanned with.
func (e *Engine) CreditModel() CreditModel { return e.credit }

// Lambda returns the truncation threshold the shards were scanned with.
func (e *Engine) Lambda() float64 { return e.lambda }

// NumNodes returns the user-universe size.
func (e *Engine) NumNodes() int { return e.numUsers }

// Workers returns the raw Options.Workers the engine was built with
// (0 means GOMAXPROCS). Seed selection reuses it so the CELF gain fan-out
// follows the same knob as the scan.
func (e *Engine) Workers() int { return e.workers }

// gainSum is the Theorem 3 sum (Algorithm 4) behind Probe.Gain,
// Probe.Commit and Probe.ExplainSeed, the one place its arithmetic lives:
//
//	sum over actions a performed by x of
//	  (1 - SC[x][a]) * (f(x,a)/A_x + sum_u f(u,a) * UC[x][u][a]/A_u)
//
// with f the objective factor w(u)*gate(u,a), and f = 1 (the unweighted
// walk) for the default objective; the f(x,a)/A_x term is x's
// self-credit Gamma_{x,x}(a) = 1. rowSC(i, a) supplies x's credit row
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

// ResidentBytes reports the UC structure's total footprint: HeapBytes
// plus MappedBytes. Shards shared with other engines are counted in full
// for every engine referencing them. On the flixster-small preset the
// shards measure 17.1 bytes per live entry (BenchmarkUCFlixsterSmall),
// versus 71.5 bytes per entry for the mirrored map-of-maps representation
// the sorted rows replaced.
func (e *Engine) ResidentBytes() int64 {
	return e.HeapBytes() + e.MappedBytes()
}

// HeapBytes reports the Go-heap footprint of the UC structure: 16 bytes
// per directory record and per cell of every shard not served from a
// mapping. Shards served from a mapped snapshot contribute nothing here —
// their pages are file-backed, not heap.
func (e *Engine) HeapBytes() int64 { return e.shardBytes(false) }

// MappedBytes reports the file-backed footprint of the UC structure: the
// directory and cell bytes of a mapped snapshot's base section this
// engine's shards alias. The OS pages these in and out on demand, so this
// is an upper bound on their resident cost.
func (e *Engine) MappedBytes() int64 { return e.shardBytes(true) }

// shardBytes sums the footprint of the shards whose mapped flag is mapped.
func (e *Engine) shardBytes(mapped bool) int64 {
	var bytes int64
	for _, s := range e.uc {
		if s.mapped == mapped {
			bytes += s.bytes()
		}
	}
	return bytes
}

// RowStoreBackend reports how the engine's shards are served: "mmap" when
// any shard still aliases a mapped snapshot, "heap" otherwise.
func (e *Engine) RowStoreBackend() string {
	for _, s := range e.uc {
		if s.mapped {
			return "mmap"
		}
	}
	return "heap"
}
