package core

import (
	"errors"

	"credist/internal/actionlog"
	"credist/internal/graph"
)

// ErrSeedsCommitted is returned by AppendActions and IngestAction once
// seed selection has begun: the UC structure then reflects V-S and merging
// raw per-action credits would corrupt it.
var ErrSeedsCommitted = errors.New("core: cannot ingest actions after seeds are committed")

// IngestAction extends the engine with one new propagation without
// re-scanning the existing log. The credit-distribution model is naturally
// incremental — every UC entry is per-action, and the per-user
// normalizers A_u only grow — so a deployment can keep the engine warm as
// fresh traces arrive and re-run seed selection on demand (the
// "maintainable data-based model" direction the paper's conclusions point
// at). AppendActions is the batched, parallel form of the same operation
// for a log tail.
//
// The propagation must be built against the same graph and use user ids
// within the engine's universe. model nil means the rule the engine was
// scanned with. Ingest is only legal before the first Add.
func (e *Engine) IngestAction(p *actionlog.Propagation, model CreditModel) error {
	if len(e.seeds) > 0 {
		return ErrSeedsCommitted
	}
	if model == nil {
		model = e.credit
	}
	for _, u := range p.Users {
		if int(u) < 0 || int(u) >= e.numUsers {
			return errors.New("core: ingested propagation has out-of-range user")
		}
	}
	a := actionlog.ActionID(len(e.uc))
	// Renumber the shard to the next action slot. The outer action-indexed
	// slices are never shared between engines (construction, append, and
	// Clone all allocate fresh backing), so plain appends keep a trickle of
	// ingests amortized O(1); mutUsers makes the per-user state privately
	// mutable (a one-time copy when it was shared with clones), so each
	// call then costs only the touched users.
	var scratch scanScratch
	shard, _ := scratch.scan(p, model, e.lambda)
	// Ingest routing: a partition keeps only the scanned rows it owns
	// (the same filter AppendActions applies to tail shards).
	routed, entries := e.filterShardToPartition(shard)
	e.uc = append(e.uc, routed)
	e.owned = append(e.owned, true)
	e.sc = append(e.sc, nil)
	e.entries += entries
	e.deltaEntries += entries
	e.mutUsers(e.numUsers)
	for _, u := range p.Users {
		e.au[u]++
		e.actionsOf[u] = append(e.actionsOf[u], a)
	}
	return nil
}

// NumActions returns how many actions the engine has scanned (initial log
// plus appended ones).
func (e *Engine) NumActions() int { return len(e.uc) }

// ActionCount returns the engine's current A_u for user u.
func (e *Engine) ActionCount(u graph.NodeID) int { return int(e.au[u]) }
