package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"credist"
	"credist/internal/actionlog"
	"credist/internal/datagen"
)

const (
	presetName = "flixster-small"
	// snapTailShare is the share of actions held out of the snapshot
	// workloads' log: their post-run ingest probe posts it.
	snapTailShare = 0.02
	// ingestTailShare is the share the ingest workload holds out and streams
	// into the running server during the timed phase.
	ingestTailShare = 0.20
	// Snapshot contents, as `credist learn -seed-k 10 -ris-samples 8192
	// -prov` writes them.
	snapSeedK      = 10
	snapRISSamples = 8192
	numPartitions  = 4
)

// inputs are the files the workloads read, generated in untimed
// preparation, plus the held-out tails the benchmark posts itself.
type inputs struct {
	dir       string
	graphPath string
	// snapLog is the snapshot workloads' log head; modelPath the snapshot
	// learned from it (with partition slices written next to it).
	snapLog   string
	modelPath string
	// snapTailPath holds the snapshot workloads' held-out tail, read into
	// snapTail.
	snapTailPath string
	snapTail     []credist.Tuple
	// ingestLog is the ingest workload's 80% head; ingestTail the rest.
	ingestLog      string
	ingestTailPath string
	ingestTail     []credist.Tuple
}

// datasetConfig is the flixster-small preset with its own fixed seed. The
// workload seed does not re-seed the dataset: the preset's generator
// yields graphs whose UC structure varies several-fold in size from seed
// to seed (snapshot files of 17 to 113 MB over six seeds), which would
// make every figure measure the dataset draw instead of the code. The
// seed drives the request stream and the audience instead.
func datasetConfig() datagen.Config {
	cfg, ok := datagen.PresetByName(presetName)
	if !ok {
		panic("preset " + presetName + " missing")
	}
	return cfg
}

// prepare writes the inputs under root afresh on every run, in a child
// process so that generation and learning leave nothing in this process's
// heap, and reads the held-out tails back from their files. Nothing is
// reused from an earlier run: the files always come from the code built.
func prepare(root string) (*inputs, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--prepare-child", "--root", root)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("preparation process: %w", err)
	}
	in := inputPaths(root)
	if in.snapTail, err = readTuples(in.snapTailPath); err != nil {
		return nil, err
	}
	if in.ingestTail, err = readTuples(in.ingestTailPath); err != nil {
		return nil, err
	}
	return in, nil
}

// writeInputs is the preparation process: it generates the dataset and
// writes every input file under root, replacing any earlier ones.
func writeInputs(root string) error {
	in := inputPaths(root)
	if err := os.RemoveAll(in.dir); err != nil {
		return err
	}
	if err := os.MkdirAll(in.dir, 0o755); err != nil {
		return err
	}
	full := credist.Generate(datasetConfig())
	snapHead, snapTail := splitTail(full.Log, snapTailShare)
	ingestHead, ingestTail := splitTail(full.Log, ingestTailShare)
	snapDS := &credist.Dataset{Name: full.Name, Graph: full.Graph, Log: snapHead}
	if err := credist.SaveDataset(snapDS, in.graphPath, in.snapLog); err != nil {
		return err
	}
	if err := writeFile(in.ingestLog, func(f *os.File) error { return actionlog.Write(f, ingestHead) }); err != nil {
		return err
	}
	for path, tail := range map[string][]credist.Tuple{in.snapTailPath: snapTail, in.ingestTailPath: ingestTail} {
		if err := writeFile(path, func(f *os.File) error { return actionlog.WriteTuples(f, full.Log.NumUsers(), tail) }); err != nil {
			return err
		}
	}

	// The snapshot is learned from the files just written, exactly as
	// `credist learn -graph -log -seed-k -ris-samples -prov -o` does.
	ds, err := credist.LoadDataset(presetName, in.graphPath, in.snapLog)
	if err != nil {
		return err
	}
	model := credist.Learn(ds, credist.Options{Lambda: 0.001})
	model.RecordSeedPrefix(model.Selection(snapSeedK))
	if err := model.BuildApproxSketch(snapRISSamples); err != nil {
		return err
	}
	model.BuildProvIndex()
	if err := model.Save(in.modelPath); err != nil {
		return err
	}
	// Pre-split the mapped slices the partitioned workload serves from.
	_, parts, _, err := credist.LoadModelPartitioned(ds, in.modelPath, numPartitions, true, credist.Options{})
	if err != nil {
		return err
	}
	if err := parts.Close(); err != nil {
		return err
	}
	return syncDir(in.dir)
}

// syncDir flushes every file in dir to disk, so that the kernel's delayed
// write-back of the fresh inputs does not land in a timed phase.
func syncDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		err = f.Sync()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// inputPaths names the prepared files (without the tails' contents).
func inputPaths(root string) *inputs {
	dir := filepath.Join(root, "data", presetName)
	return &inputs{
		dir:            dir,
		graphPath:      filepath.Join(dir, "graph"),
		snapLog:        filepath.Join(dir, "snap.log"),
		modelPath:      filepath.Join(dir, "model.bin"),
		snapTailPath:   filepath.Join(dir, "snap.tail.log"),
		ingestLog:      filepath.Join(dir, "ingest.log"),
		ingestTailPath: filepath.Join(dir, "ingest.tail.log"),
	}
}

// splitTail cuts a log into its head and the tuples of its last share of
// actions (at least one action).
func splitTail(l *actionlog.Log, share float64) (*actionlog.Log, []credist.Tuple) {
	n := int(float64(l.NumActions()) * share)
	if n < 1 {
		n = 1
	}
	headN := l.NumActions() - n
	var tail []credist.Tuple
	for a := headN; a < l.NumActions(); a++ {
		tail = append(tail, l.Action(credist.ActionID(a))...)
	}
	return l.Prefix(headN), tail
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readTuples(path string) ([]credist.Tuple, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tuples, _, err := actionlog.ParseTuples(f)
	return tuples, err
}
