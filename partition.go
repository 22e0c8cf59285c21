package credist

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"credist/internal/celf"
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

// PartitionedPlanner serves the model as a set of self-contained row-range
// engine partitions behind a scatter-gather coordinator: every query fans
// over the partitions and merges by summation, and every answer is
// bit-identical at any partition count (see internal/partition). It is
// immutable once built — spread and gain queries only read the
// partitions, selections clone them — so any number of goroutines may query it concurrently; ingest derives a
// successor with Extend.
type PartitionedPlanner struct {
	coord *partition.Coordinator
	// mapped holds the file mappings behind mmap-opened slices (empty for
	// heap loads and in-memory partitions); Close releases them. Successors
	// built by Extend share the mappings but do not own them — close the
	// planner that opened the files, and only after every successor is gone.
	mapped []*core.MappedSnapshot
}

// Partition splits the planner's scanned engine into n contiguous
// near-even row-range partitions sharing the frozen shards (nothing is
// copied), wrapped in a coordinator. The planner must not hold committed
// seeds. The receiver stays usable: it is frozen first, so its later
// mutations go copy-on-write instead of corrupting the shared rows.
func (p *Planner) Partition(n int) (*PartitionedPlanner, error) {
	p.eng.Freeze()
	ranges := partition.SplitRanges(p.eng.NumNodes(), n)
	parts := make([]*core.Engine, len(ranges))
	for i, r := range ranges {
		var err error
		if parts[i], err = p.eng.Slice(r.Lo, r.Hi); err != nil {
			return nil, err
		}
	}
	coord, err := partition.New(parts, p.eng.Workers())
	if err != nil {
		return nil, err
	}
	return &PartitionedPlanner{coord: coord}, nil
}

// WriteSnapshotSlice streams the influencer rows in [lo, hi) of the
// model's scanned engine (or of p, under WriteSnapshot's planner rules) as
// a version-4 snapshot slice. A contiguous set of slices tiling
// [0, NumUsers) reassembles the model exactly; LoadPartitions validates
// the tiling at load. The prefix rides in every slice, as in WriteSnapshot.
func (m *Model) WriteSnapshotSlice(w io.Writer, p *Planner, prefix *SeedPrefix, lo, hi int) error {
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
	return eng.WriteSnapshotSlice(w, core.DatasetLineage(m.ds.Name, m.ds.Graph, m.ds.Log), prefix, lo, hi)
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
func LoadPartitions(ds *Dataset, paths []string, mmap bool, opts Options) (*Model, *PartitionedPlanner, error) {
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("credist: no slice paths")
	}
	var mapped []*core.MappedSnapshot
	closeMapped := func() {
		for _, ms := range mapped {
			ms.Close()
		}
	}
	engines := make([]*core.Engine, len(paths))
	lineages := make([]core.Lineage, len(paths))
	prefixes := make([]*SeedPrefix, len(paths))
	for i, path := range paths {
		var err error
		if mmap {
			var ms *core.MappedSnapshot
			engines[i], lineages[i], prefixes[i], ms, err = core.OpenSnapshotMapped(path)
			if err == nil {
				mapped = append(mapped, ms)
			}
		} else {
			var f *os.File
			if f, err = os.Open(path); err == nil {
				engines[i], lineages[i], prefixes[i], err = core.ReadSnapshotPrefix(bufio.NewReaderSize(f, 1<<20))
				f.Close()
			}
		}
		if err == nil {
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
			if err := eng.AppendActions(ds.Graph, ds.Log, ActionID(lineages[0].NumActions)); err != nil {
				closeMapped()
				return nil, nil, fmt.Errorf("credist: partition %d (%s): %w", i, paths[i], err)
			}
		}
		// Selected over the slices' log prefix; appended actions change
		// every marginal gain, so it no longer describes this model.
		prefix = nil
	}
	for _, eng := range engines {
		eng.Freeze()
	}
	coord, err := partition.New(engines, engines[0].Workers())
	if err != nil {
		closeMapped()
		return nil, nil, err
	}
	m := newModel(ds, stored, credit)
	m.prefix = prefix
	return m, &PartitionedPlanner{coord: coord, mapped: mapped}, nil
}

// LoadModelPartitioned opens modelPath as n partitions: when the canonical
// slice files (SlicePaths) already sit next to the model they are opened
// directly — the full snapshot is never touched, and with mmap no row is
// parsed — otherwise the full snapshot is heap-loaded once, the slices are
// written (atomically, temp file + rename), and the load proceeds from
// them. The returned paths name the slice files in partition order.
func LoadModelPartitioned(ds *Dataset, modelPath string, n int, mmap bool, opts Options) (*Model, *PartitionedPlanner, []string, error) {
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
	m.approx.restored = readSnapshotSketch(modelPath, ds, pp.NumActions())
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
	_, lin, _, sketch, ms, err := core.OpenSnapshotMappedSketch(path)
	if err != nil {
		return nil
	}
	// The sketch section is always decoded onto the heap (only UC shards
	// alias the mapping), so the mapping can close before the sketch is
	// used.
	ms.Close()
	if sketch == nil || lin.NumActions != numActions || lin.Check(ds.Graph, ds.Log) != nil {
		return nil
	}
	return sketch
}

// SaveSlices checkpoints the planner's partitions as snapshot-slice files,
// one per partition in partition order, each written to a temp file and
// renamed into place. The partitions must cover exactly the model's log
// (the usual WriteSnapshot planner rule); prefix, if non-nil, rides in
// every slice so a restart from them resumes seed selection.
func (pp *PartitionedPlanner) SaveSlices(m *Model, prefix *SeedPrefix, paths []string) error {
	engines := pp.coord.Engines()
	if len(paths) != len(engines) {
		return fmt.Errorf("credist: %d slice paths for %d partitions", len(paths), len(engines))
	}
	if pn, ln := pp.coord.NumActions(), m.ds.Log.NumActions(); pn != ln {
		return fmt.Errorf("credist: partitions cover %d actions, model's log holds %d", pn, ln)
	}
	if pl, ml := engines[0].Lambda(), m.opts.Lambda; pl != ml {
		return fmt.Errorf("credist: partitions were scanned with lambda %g, model uses %g", pl, ml)
	}
	lin := core.DatasetLineage(m.ds.Name, m.ds.Graph, m.ds.Log)
	for i, eng := range engines {
		lo, hi := eng.PartitionRange()
		err := writeFileAtomic(paths[i], func(w io.Writer) error {
			return eng.WriteSnapshotSlice(w, lin, prefix, lo, hi)
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

// NumPartitions returns how many partitions the planner fans over.
func (pp *PartitionedPlanner) NumPartitions() int { return pp.coord.NumPartitions() }

// NumUsers returns the global user-universe size.
func (pp *PartitionedPlanner) NumUsers() int { return pp.coord.NumUsers() }

// NumActions returns the global scanned action count.
func (pp *PartitionedPlanner) NumActions() int { return pp.coord.NumActions() }

// Ranges returns the per-partition row ranges in partition order.
func (pp *PartitionedPlanner) Ranges() []PartitionRange { return pp.coord.Ranges() }

// Stats returns per-partition accounting in partition order.
func (pp *PartitionedPlanner) Stats() []PartitionStats { return pp.coord.Stats() }

// Entries returns the live UC entry count summed over partitions — equal
// to the single-engine count, since every cell lives in exactly one
// partition.
func (pp *PartitionedPlanner) Entries() int64 {
	var total int64
	for _, st := range pp.coord.Stats() {
		total += st.Entries
	}
	return total
}

// HeapBytes sums the partitions' Go-heap shard bytes.
func (pp *PartitionedPlanner) HeapBytes() int64 {
	var total int64
	for _, st := range pp.coord.Stats() {
		total += st.HeapBytes
	}
	return total
}

// MappedBytes sums the bytes partitions still serve out of mapped slice
// files.
func (pp *PartitionedPlanner) MappedBytes() int64 {
	var total int64
	for _, st := range pp.coord.Stats() {
		total += st.MappedBytes
	}
	return total
}

// ResidentBytes returns HeapBytes plus MappedBytes.
func (pp *PartitionedPlanner) ResidentBytes() int64 { return pp.HeapBytes() + pp.MappedBytes() }

// RowStoreBackend reports "mmap" while any partition still aliases a
// mapped slice file, "heap" otherwise.
func (pp *PartitionedPlanner) RowStoreBackend() string {
	for _, st := range pp.coord.Stats() {
		if st.RowStore == "mmap" {
			return "mmap"
		}
	}
	return "heap"
}

// DeltaEntries sums the UC entries the partitions' appended action tails
// contributed (zero for freshly loaded or compacted partitions).
func (pp *PartitionedPlanner) DeltaEntries() int64 {
	var total int64
	for _, eng := range pp.coord.Engines() {
		total += eng.DeltaEntries()
	}
	return total
}

// DeltaActions returns how many appended actions sit outside the frozen
// base. Every partition appends the same actions, so this is not a sum.
func (pp *PartitionedPlanner) DeltaActions() int {
	return pp.coord.Engines()[0].DeltaActions()
}

// Spread computes sigma_cd(S) from the partitions without writing them:
// per seed, its exact marginal gain priced from rows read off the owning
// partition, then its commit to a read-only probe (core.Probe) — the
// telescoped sum that CELF's own Result.Spread() uses. The value is
// the mathematically exact CD spread and is bit-identical across
// partition counts, worker counts, and row-store backends; it is not
// guaranteed bit-identical to the unpartitioned evaluator, which
// accumulates the same total in per-action order.
func (pp *PartitionedPlanner) Spread(seeds []NodeID) (float64, error) {
	return pp.coord.Spread(seeds)
}

// Gains evaluates each candidate's marginal gain against the base seed
// set, committed to a read-only probe over the partitions, every
// candidate priced exactly from its row's owner. Bit-identical to
// Planner.Gain after the same Adds, at any partition count.
func (pp *PartitionedPlanner) Gains(base, candidates []NodeID) ([]float64, error) {
	return pp.coord.Gains(base, candidates)
}

// ExplainSeed decomposes candidate x's marginal gain into its top credit
// paths, answered wholly by the partition owning x's row. The explained
// Gain is bit-for-bit Gains(nil, {x})[0] at any partition count.
func (pp *PartitionedPlanner) ExplainSeed(x NodeID, top int) (SeedExplanation, error) {
	return pp.coord.ExplainSeed(x, top)
}

// ExplainReach decomposes the credit the given seeds push onto target v:
// per-seed shares gathered from each seed's owning partition, folded in
// input order (so they sum bit-exactly to Total), with the gathered paths
// re-sorted deterministically. Bit-identical to Model.ExplainReach at any
// partition count.
func (pp *PartitionedPlanner) ExplainReach(seeds []NodeID, v NodeID, top int) (ReachExplanation, error) {
	return pp.coord.ExplainReach(seeds, v, top)
}

// NewSelection starts a growable CELF selection over fresh partition
// clones: the coordinator-side lazy-forward heap with the first-iteration
// gain pass fanned per partition. Seeds and gains are bit-identical to a
// single-engine selection. The returned selection has no planner
// (Planner() is nil); its state lives in the partition clones it owns.
func (pp *PartitionedPlanner) NewSelection() *GrowableSelection {
	return &GrowableSelection{sel: pp.coord.NewSelection(celf.Options{})}
}

// ResumeSelection is NewSelection continuing from a previously computed
// prefix (nil starts fresh): the prefix seeds are committed scatter-gather
// with no gain evaluations, and the continuation is bit-identical to an
// uninterrupted run — even when the prefix was computed at a different
// partition count.
func (pp *PartitionedPlanner) ResumeSelection(prefix *SeedPrefix) (*GrowableSelection, error) {
	if prefix == nil {
		return pp.NewSelection(), nil
	}
	sel, err := pp.coord.ResumeSelection(*prefix, celf.Options{})
	if err != nil {
		return nil, err
	}
	return &GrowableSelection{sel: sel}, nil
}

// Extend derives the successor planner for m — this planner's model after
// an Ingest: every partition clones (frozen shards shared) and scans only
// its rows of the appended action tail, in parallel. The receiver keeps
// serving unchanged. The model must extend the log the partitions cover.
func (pp *PartitionedPlanner) Extend(m *Model) (*PartitionedPlanner, error) {
	if pl, ml := pp.coord.Engines()[0].Lambda(), m.opts.Lambda; pl != ml {
		return nil, fmt.Errorf("credist: partitions were scanned with lambda %g, model uses %g", pl, ml)
	}
	if pn, gn := pp.coord.NumUsers(), m.ds.Graph.NumNodes(); pn > gn {
		return nil, fmt.Errorf("credist: partition universe (%d users) exceeds the model's graph (%d nodes)", pn, gn)
	}
	coord, err := pp.coord.Append(m.ds.Graph, m.ds.Log, ActionID(pp.coord.NumActions()))
	if err != nil {
		return nil, err
	}
	// The successor aliases the receiver's mapped shards copy-on-write but
	// does not own the mappings; Close on the opener releases them.
	return &PartitionedPlanner{coord: coord}, nil
}

// Close releases the file mappings behind mmap-opened slices; a no-op
// otherwise. Call it only once no query, selection, or Extend successor
// derived from this planner is in use.
func (pp *PartitionedPlanner) Close() error {
	var first error
	for _, ms := range pp.mapped {
		if err := ms.Close(); err != nil && first == nil {
			first = err
		}
	}
	pp.mapped = nil
	return first
}
