package credist

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"credist/internal/partition"
)

// PartitionRange is a half-open influencer-row range [Lo, Hi): one
// partition of a planner.
type PartitionRange = partition.Range

// PartitionStats is one partition's accounting row: its row range, live UC
// entries, and the heap/mapped split of its rows' resident bytes.
type PartitionStats = partition.Stats

// SlicePaths returns modelPath n times: the path list LoadPartitions
// takes for an n-way split of the one model file. Benchmark-pinned:
// credist-bench names its partitioned opens this way.
func SlicePaths(modelPath string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = modelPath
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

// LoadPartitions opens the one model file named by every entry of paths
// (SlicePaths) and splits its planner len(paths) ways: it is
// LoadModelPartitioned(paths[0], len(paths)). An empty list, or paths
// naming more than one file, is refused. Benchmark-pinned: credist-bench
// opens its partitioned planner this way.
func LoadPartitions(ds *Dataset, paths []string, mmap bool, opts Options) (*Model, *Planner, error) {
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("credist: no model paths")
	}
	for _, p := range paths[1:] {
		if p != paths[0] {
			return nil, nil, fmt.Errorf("credist: partitions are row ranges of one model file, got %s and %s", paths[0], p)
		}
	}
	m, pp, _, err := LoadModelPartitioned(ds, paths[0], len(paths), mmap, opts)
	return m, pp, err
}

// LoadModelPartitioned opens the whole-model snapshot at modelPath once
// (memory-mapped when mmap is set), as LoadModel or LoadModelMapped does,
// and partitions its planner n ways, as Planner.Partition does. It writes
// no file. The model carries the opened engine; the planner owns the
// mapping, so Close it, not the model. The returned paths are
// SlicePaths(modelPath, NumPartitions()). Benchmark-pinned: credist-bench
// calls it to prepare its partitioned workload.
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
	return m, pp, SlicePaths(modelPath, pp.NumPartitions()), nil
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

// Close releases the file mapping LoadModelPartitioned or LoadPartitions
// opened with mmap; a no-op otherwise. Call it
// only once no query, selection, clone or Extend successor derived from
// this planner is in use.
func (p *Planner) Close() error {
	err := p.file.Close()
	p.file = nil
	return err
}
