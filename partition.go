package credist

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"credist/internal/core"
	"credist/internal/partition"
)

// PartitionRange is a half-open influencer-row range [Lo, Hi) owned by one
// engine partition.
type PartitionRange = partition.Range

// PartitionStats is one partition's accounting row: its row range, live UC
// entries, and the heap/mapped split of its resident bytes.
type PartitionStats = partition.Stats

// SlicePaths returns the canonical snapshot-slice file names for a model
// split n ways: "<modelPath>.slice-<i>-of-<n>". `credist serve -partitions`
// writes and reopens slices under these names, so a checkpointed partition
// set can be found again from the model path alone.
func SlicePaths(modelPath string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s.slice-%d-of-%d", modelPath, i, n)
	}
	return out
}

// PartitionedPlanner is the former name of a partitioned Planner, kept so
// existing callers compile. A partitioned planner is a Planner like any
// other; see Planner for what it answers and how.
type PartitionedPlanner = Planner

// Partition splits the planner's scanned engine into n contiguous
// near-even row-range partitions sharing its shards (nothing is copied).
// The planner must be one full engine without committed seeds: partitions
// serve the scanned model, and their queries start from an empty seed
// set. The receiver stays usable.
func (p *Planner) Partition(n int) (*Planner, error) {
	if s := len(p.Seeds()); s > 0 {
		return nil, fmt.Errorf("credist: cannot partition a planner with %d committed seeds", s)
	}
	eng := p.parts[0]
	ranges := partition.SplitRanges(eng.NumNodes(), n)
	parts := make([]*core.Engine, len(ranges))
	for i, r := range ranges {
		var err error
		if parts[i], err = eng.Slice(r.Lo, r.Hi); err != nil {
			return nil, err
		}
	}
	return newPlanner(parts...), nil
}

// WriteSnapshotSlice streams the influencer rows in [lo, hi) of the
// model's scanned engine (or of p, under WriteSnapshot's planner rules) as
// a version-4 snapshot slice. A contiguous set of slices tiling
// [0, NumUsers) reassembles the model exactly; LoadPartitions validates
// the tiling at load. The prefix rides in every slice, as in WriteSnapshot.
func (m *Model) WriteSnapshotSlice(w io.Writer, p *Planner, prefix *SeedPrefix, lo, hi int) error {
	eng, err := m.snapshotEngine(p)
	if err != nil {
		return err
	}
	part, err := eng.Slice(lo, hi)
	if err != nil {
		return err
	}
	return part.WriteSnapshot(w, core.DatasetLineage(m.ds.Name, m.ds.Graph, m.ds.Log), prefix, nil, nil)
}

// LoadPartitions restores a partitioned model from snapshot-slice files:
// each slice is loaded (memory-mapped when mmap is set), lineage-checked
// against the dataset, and the set is validated to tile the user universe
// exactly — overlapping or gapped row ranges are rejected naming both
// offending ranges. Like LoadModel, the dataset's log may extend past the
// slices' recorded scan: each partition appends only its rows of the
// unscanned tail, and any stored seed prefix is dropped. The returned
// model carries the slices' learned parameters and stored options (pass
// the zero Options to adopt them) but no scanned full engine — its lazy
// base would be a fresh scan; serve queries through the planner instead.
func LoadPartitions(ds *Dataset, paths []string, mmap bool, opts Options) (*Model, *Planner, error) {
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("credist: no slice paths")
	}
	var files []*core.SnapshotFile
	closeMapped := func() {
		for _, f := range files {
			f.Close()
		}
	}
	engines := make([]*core.Engine, len(paths))
	lineages := make([]core.Lineage, len(paths))
	prefixes := make([]*SeedPrefix, len(paths))
	for i, path := range paths {
		f, err := core.OpenSnapshot(path, mmap)
		if err == nil {
			if mmap {
				files = append(files, f)
			}
			engines[i], lineages[i], prefixes[i] = f.Engine, f.Lineage, f.Prefix
			err = lineages[i].Check(ds.Graph, ds.Log)
		}
		if err == nil && lineages[i].NumActions != lineages[0].NumActions {
			err = fmt.Errorf("slice covers %d actions, slice 0 (%s) covers %d",
				lineages[i].NumActions, paths[0], lineages[0].NumActions)
		}
		if err != nil {
			closeMapped()
			return nil, nil, fmt.Errorf("credist: partition %d (%s): %w", i, path, err)
		}
	}

	credit := engines[0].CreditModel()
	if ta, ok := credit.(*core.TimeAwareCredit); ok && ta.UniverseSize() < ds.Graph.NumNodes() {
		closeMapped()
		return nil, nil, fmt.Errorf("credist: slice parameters cover %d users, graph has %d nodes", ta.UniverseSize(), ds.Graph.NumNodes())
	}
	_, simple := credit.(core.SimpleCredit)
	stored := Options{Lambda: engines[0].Lambda(), SimpleCredit: simple}
	if opts != (Options{}) && opts != stored {
		closeMapped()
		return nil, nil, fmt.Errorf("credist: slices were saved with options %+v, load requested %+v (pass the zero Options to adopt the stored ones)", stored, opts)
	}
	for i, eng := range engines[1:] {
		_, si := eng.CreditModel().(core.SimpleCredit)
		if eng.Lambda() != stored.Lambda || si != simple {
			closeMapped()
			return nil, nil, fmt.Errorf("credist: partition %d (%s) was saved with options {Lambda:%g SimpleCredit:%t}, slice 0 with %+v",
				i+1, paths[i+1], eng.Lambda(), si, stored)
		}
	}

	// Every slice of one save carries the same prefix; a disagreement means
	// the files come from different checkpoints and must not be mixed.
	prefix := prefixes[0]
	for i, pfx := range prefixes[1:] {
		if !samePrefix(prefix, pfx) {
			closeMapped()
			return nil, nil, fmt.Errorf("credist: partition %d (%s) stores a different seed prefix than slice 0 (%s); the slices come from different checkpoints",
				i+1, paths[i+1], paths[0])
		}
	}
	if ds.Log.NumActions() > lineages[0].NumActions {
		for i, eng := range engines {
			var err error
			if engines[i], err = eng.AppendActions(ds.Graph, ds.Log, ActionID(lineages[0].NumActions)); err != nil {
				closeMapped()
				return nil, nil, fmt.Errorf("credist: partition %d (%s): %w", i, paths[i], err)
			}
		}
		// Selected over the slices' log prefix; appended actions change
		// every marginal gain, so it no longer describes this model.
		prefix = nil
	}
	parts, err := partition.Tile(engines)
	if err != nil {
		closeMapped()
		return nil, nil, err
	}
	// Each slice decodes its own copy of the parameters; the model adopts
	// the copy of the planner's first partition, the one checkPlanner
	// compares against, whatever order the paths came in.
	m := newModel(ds, stored, parts[0].CreditModel())
	m.prefix = prefix
	p := newPlanner(parts...)
	p.files = files
	return m, p, nil
}

// LoadModelPartitioned opens modelPath as n partitions: when the canonical
// slice files (SlicePaths) already sit next to the model they are opened
// directly — the full snapshot is never touched, and with mmap no row is
// parsed — otherwise the full snapshot is heap-loaded once, the slices are
// written (atomically, temp file + rename), and the load proceeds from
// them. The returned paths name the slice files in partition order.
func LoadModelPartitioned(ds *Dataset, modelPath string, n int, mmap bool, opts Options) (*Model, *Planner, []string, error) {
	if n < 1 {
		n = 1
	}
	paths := SlicePaths(modelPath, n)
	missing := false
	for _, p := range paths {
		if _, err := os.Stat(p); err != nil {
			missing = true
			break
		}
	}
	if missing {
		conv, err := LoadModel(ds, modelPath, opts)
		if err != nil {
			return nil, nil, nil, err
		}
		ranges := partition.SplitRanges(ds.Graph.NumNodes(), n)
		for i, r := range ranges {
			err := writeFileAtomic(paths[i], func(w io.Writer) error {
				return conv.WriteSnapshotSlice(w, nil, conv.prefix, r.Lo, r.Hi)
			})
			if err != nil {
				return nil, nil, nil, fmt.Errorf("credist: write slice %s: %w", paths[i], err)
			}
		}
		// conv (and its full heap engine) is dropped here; the model served
		// from is rebuilt from the slices so nothing retains the full copy.
	}
	m, pp, err := LoadPartitions(ds, paths, mmap, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	// A version-5 whole-model snapshot carries the approximate tier's RR
	// sketch, which slices do not: its samples span the full universe, so
	// it cannot be split along row ranges. Re-read just the sketch from the
	// model file (cheap: the mapped open parses no cell, and the sketch is
	// decoded onto the heap before the mapping closes) so a partitioned
	// deployment still answers bounded-error queries — from the fixed pool.
	// A sketch the model cannot adopt degrades to none, like every other
	// mismatch readSnapshotSketch screens for.
	_ = m.restoreApprox(readSnapshotSketch(modelPath, ds, pp.NumActions()))
	return m, pp, paths, nil
}

// readSnapshotSketch reads only the RR sketch from a whole-model snapshot
// file, returning nil for missing files, unreadable or pre-version-5
// snapshots, and sketchless version-5 files. The sketch is an optional
// accelerator — a partitioned start must not fail because the model file
// next to healthy slices went stale — so every mismatch degrades to "no
// sketch": the file's lineage must match the dataset and its scan must
// cover exactly the numActions the partitions serve (a log tail appended
// past the snapshot invalidates the walks the same way LoadModel drops
// the sketch, and a model file older than re-checkpointed slices sampled
// a log the partitions no longer serve).
func readSnapshotSketch(path string, ds *Dataset, numActions int) *core.RRSketch {
	f, err := core.OpenSnapshot(path, true)
	if err != nil {
		return nil
	}
	// The sketch section is always decoded onto the heap, so the mapping
	// can close before the sketch is used. The UC shards and the
	// provenance index alias the mapping; both are dropped here unread.
	f.Close()
	if f.Sketch == nil || f.Lineage.NumActions != numActions || f.Lineage.Check(ds.Graph, ds.Log) != nil {
		return nil
	}
	return f.Sketch
}

// SaveSlices checkpoints the planner's partitions as snapshot-slice files,
// one per partition in partition order, each written to a temp file and
// renamed into place. The planner must pass the same check as
// WriteSnapshot's (this model's lineage, exactly the model's log, no
// committed seeds); prefix, if non-nil, rides in every slice so a restart
// from them resumes seed selection.
func (p *Planner) SaveSlices(m *Model, prefix *SeedPrefix, paths []string) error {
	if len(paths) != len(p.parts) {
		return fmt.Errorf("credist: %d slice paths for %d partitions", len(paths), len(p.parts))
	}
	if err := m.checkPlanner(p, "snapshot", true); err != nil {
		return err
	}
	lin := core.DatasetLineage(m.ds.Name, m.ds.Graph, m.ds.Log)
	for i, eng := range p.parts {
		err := writeFileAtomic(paths[i], func(w io.Writer) error {
			return eng.WriteSnapshot(w, lin, prefix, nil, nil)
		})
		if err != nil {
			return fmt.Errorf("credist: write slice %s: %w", paths[i], err)
		}
	}
	return nil
}

// samePrefix reports whether two stored seed prefixes describe the same
// selection (both nil counts as same).
func samePrefix(a, b *SeedPrefix) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.Seeds) != len(b.Seeds) {
		return false
	}
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] || a.Gains[i] != b.Gains[i] || a.LookupsAt[i] != b.LookupsAt[i] {
			return false
		}
	}
	return true
}

// writeFileAtomic writes via a uniquely named temp file in the target
// directory and renames it into place, so a crash mid-write never leaves a
// truncated file at the path.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// NumPartitions returns how many engines the planner fans over: 1 for a
// full engine.
func (p *Planner) NumPartitions() int { return len(p.parts) }

// Ranges returns the per-partition row ranges in partition order.
func (p *Planner) Ranges() []PartitionRange { return partition.Ranges(p.parts) }

// Stats returns per-partition accounting in partition order.
func (p *Planner) Stats() []PartitionStats { return partition.StatsOf(p.parts) }

// Spread computes sigma_cd(S) from the planner's engines without writing
// them: per seed, its exact marginal gain, then its commit to a clone of
// the planner's probe — the telescoped sum that CELF's own
// Result.Spread() uses, marginal over any seeds the planner holds. The
// value is bit-identical across partition counts, worker counts, and row
// stores. It is the spread of the lambda-truncated model the planner
// learned, not Model.Spread's exact sigma_cd: at lambda > 0 it reads
// slightly below, and at lambda = 0 the two agree to float tolerance (the
// evaluator sums in per-action order).
func (p *Planner) Spread(seeds []NodeID) (float64, error) {
	return p.SpreadObj(nil, seeds, nil)
}

// Gains evaluates each candidate's marginal gain against the planner's
// committed seeds plus the base seed set, committed to a clone of the
// planner's probe, every candidate priced from its row's owner.
// Bit-identical to Gain after the same Adds, at any partition count.
func (p *Planner) Gains(base, candidates []NodeID) ([]float64, error) {
	return p.gainsObj(nil, base, candidates, nil)
}

// Extend derives the successor planner for m, this planner's model after
// an Ingest; it is m.ExtendPlanner(p).
func (p *Planner) Extend(m *Model) (*Planner, error) { return m.ExtendPlanner(p) }

// Close releases the file mappings behind mmap-opened slices; a no-op
// otherwise. Call it only once no query, selection, clone or Extend
// successor derived from this planner is in use.
func (p *Planner) Close() error {
	var first error
	for _, f := range p.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	p.files = nil
	return first
}
