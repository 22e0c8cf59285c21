package credist

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"credist/internal/core"
	"credist/internal/partition"
)

// PartitionRange is a half-open influencer-row range [Lo, Hi): one
// partition of a planner.
type PartitionRange = partition.Range

// PartitionStats is one partition's accounting row: its row range, live UC
// entries, and the heap/mapped split of its rows' resident bytes.
type PartitionStats = partition.Stats

// SlicePaths returns the canonical snapshot-slice file names for a model
// split n ways: "<modelPath>.slice-<i>-of-<n>". Benchmark-pinned:
// credist-bench reopens the slices LoadModelPartitioned writes under
// these names; serve names no slice file.
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

// Partition returns the planner split into n contiguous near-even
// row-range partitions of its engine: the same engine and answers, with
// Ranges and Stats reporting per partition. Nothing is copied. The
// planner must hold no committed seeds: partitions serve the scanned
// model, and their queries start from an empty seed set. The receiver
// stays usable.
func (p *Planner) Partition(n int) (*Planner, error) {
	if s := len(p.Seeds()); s > 0 {
		return nil, fmt.Errorf("credist: cannot partition a planner with %d committed seeds", s)
	}
	return newPlanner(p.m, p.eng, partition.SplitRanges(p.eng.NumNodes(), n)), nil
}

// LoadPartitions restores a partitioned model from version-4
// snapshot-slice files, one partition per slice: each slice is opened
// (memory-mapped when mmap is set) and lineage-checked against the
// dataset, and the set must tile the user universe exactly — overlapping
// or gapped row ranges are refused naming both offending ranges — and
// come from one model: a slice whose options, learned parameters or seed
// prefix differ from slice 0's is refused. The slices' rows are then
// joined into one heap engine, so the files are closed before it
// returns. Like LoadModel, the dataset's log may extend past the slices'
// recorded scan: the unscanned tail is appended once, the trailing
// partition takes the rows of users it registers, and any stored seed
// prefix is dropped. The returned model carries the slices' learned
// parameters and stored options (pass the zero Options to adopt them)
// but no scanned engine of its own — its lazy base would be a fresh
// scan; serve queries through the planner instead. Model.SaveOn with the
// returned planner writes the one whole-model file. Benchmark-pinned:
// credist-bench reopens the slices LoadModelPartitioned writes.
func LoadPartitions(ds *Dataset, paths []string, mmap bool, opts Options) (*Model, *Planner, error) {
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("credist: no slice paths")
	}
	m, eng, ranges, err := openSnapshots(ds, paths, mmap, opts)
	if err != nil {
		return nil, nil, err
	}
	p := newPlanner(m, eng, ranges)
	p.file, m.file = m.file, nil
	return m, p, nil
}

// LoadModelPartitioned opens the whole-model snapshot at modelPath once
// (memory-mapped when mmap is set) and partitions its planner n ways, as
// Planner.Partition does; the planner owns the mapping, so Close it, not
// the model. Benchmark-pinned: when the canonical slice files (SlicePaths)
// of the partition count are missing it writes them next to the model,
// for credist-bench to reopen with LoadPartitions, and returns their
// paths in partition order.
func LoadModelPartitioned(ds *Dataset, modelPath string, n int, mmap bool, opts Options) (*Model, *Planner, []string, error) {
	m, err := loadSnapshotModel(ds, modelPath, mmap, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	pp, err := m.NewPlanner().Partition(n)
	if err != nil {
		m.Close()
		return nil, nil, nil, err
	}
	pp.file, m.file = m.file, nil
	paths := SlicePaths(modelPath, pp.NumPartitions())
	for _, p := range paths {
		if _, err := os.Stat(p); err != nil {
			if err := pp.SaveSlices(m, m.prefix, paths); err != nil {
				pp.Close()
				return nil, nil, nil, err
			}
			break
		}
	}
	return m, pp, paths, nil
}

// SaveSlices checkpoints the planner's partitions as version-4
// snapshot-slice files, one per partition in partition order, each the
// engine's rows of the partition's range, written to a temp file and
// renamed into place. The planner must pass the same check as
// WriteSnapshot's (this model's lineage, exactly the model's log, no
// committed seeds); prefix, if non-nil, rides in every slice so a restart
// from them resumes seed selection. Benchmark-pinned: only
// LoadModelPartitioned's slices for credist-bench call it.
func (p *Planner) SaveSlices(m *Model, prefix *SeedPrefix, paths []string) error {
	if len(paths) != len(p.ranges) {
		return fmt.Errorf("credist: %d slice paths for %d partitions", len(paths), len(p.ranges))
	}
	if err := m.checkPlanner(p, "snapshot", true); err != nil {
		return err
	}
	lin := core.DatasetLineage(m.ds.Name, m.ds.Graph, m.ds.Log)
	for i, r := range p.ranges {
		err := writeFileAtomic(paths[i], func(w io.Writer) error {
			return p.eng.WriteSlice(w, lin, prefix, r.Lo, r.Hi)
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
	// Without the sync the rename can reach the disk before the data, and
	// a crash would leave an empty file under path.
	if err := f.Sync(); err != nil {
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

// NumPartitions returns how many row ranges the planner is split into: 1
// for an unpartitioned planner.
func (p *Planner) NumPartitions() int { return len(p.ranges) }

// Ranges returns the per-partition row ranges in partition order.
func (p *Planner) Ranges() []PartitionRange { return append([]PartitionRange(nil), p.ranges...) }

// Stats returns per-partition accounting in partition order.
func (p *Planner) Stats() []PartitionStats { return partition.StatsOf(p.eng, p.ranges) }

// Close releases the file mapping LoadModelPartitioned, or LoadPartitions
// of one file, opened with mmap; a no-op otherwise. Call it
// only once no query, selection, clone or Extend successor derived from
// this planner is in use.
func (p *Planner) Close() error {
	err := p.file.Close()
	p.file = nil
	return err
}
