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
	return newPlanner(p.m, parts...), nil
}

// LoadPartitions restores a partitioned model from version-4
// snapshot-slice files: each slice is loaded (memory-mapped when mmap is
// set), lineage-checked against the dataset, and the set is validated to
// tile the user universe exactly — overlapping or gapped row ranges are
// rejected naming both offending ranges — and to come from one model: a
// slice whose options or learned parameters differ from slice 0's is
// refused. Like LoadModel, the dataset's log may extend past the slices'
// recorded scan: each partition appends only its rows of the unscanned
// tail, and any stored seed prefix is dropped. The returned model carries
// the slices' learned parameters and stored options (pass the zero
// Options to adopt them) but no scanned full engine — its lazy base would
// be a fresh scan; serve queries through the planner instead.
// Model.SaveOn with the returned planner merges the slices into one
// whole-model file. Benchmark-pinned: credist-bench reopens the slices
// LoadModelPartitioned writes.
func LoadPartitions(ds *Dataset, paths []string, mmap bool, opts Options) (*Model, *Planner, error) {
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("credist: no slice paths")
	}
	m, parts, files, err := openSnapshots(ds, paths, mmap, opts)
	if err != nil {
		return nil, nil, err
	}
	p := newPlanner(m, parts...)
	p.files = files
	return m, p, nil
}

// LoadModelPartitioned opens the whole-model snapshot at modelPath once
// (memory-mapped when mmap is set) and partitions it n ways in memory, as
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
	if m.file != nil {
		pp.files, m.file = []*core.SnapshotFile{m.file}, nil
	}
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
// snapshot-slice files, one per partition in partition order, each
// written to a temp file and renamed into place. The planner must pass the
// same check as WriteSnapshot's (this model's lineage, exactly the model's
// log, no committed seeds); prefix, if non-nil, rides in every slice so a
// restart from them resumes seed selection. Benchmark-pinned: only
// LoadModelPartitioned's slices for credist-bench call it.
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
			return eng.WriteSnapshot(w, lin, prefix, nil)
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

// NumPartitions returns how many engines the planner fans over: 1 for a
// full engine.
func (p *Planner) NumPartitions() int { return len(p.parts) }

// Ranges returns the per-partition row ranges in partition order.
func (p *Planner) Ranges() []PartitionRange { return partition.Ranges(p.parts) }

// Stats returns per-partition accounting in partition order.
func (p *Planner) Stats() []PartitionStats { return partition.StatsOf(p.parts) }

// Close releases the file mappings LoadPartitions or LoadModelPartitioned
// opened with mmap; a no-op otherwise. Call it only once no query, selection, clone or Extend
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
