package credist_test

import (
	"testing"

	"credist"
	"credist/internal/datagen"
	"credist/internal/serve"
)

// TestSnapshotIngestEvaluatorStaysLazy pins that an ingest extends the
// spread evaluator only when something already asked for it. A
// partitioned snapshot never warms it, so its first /ingest must leave
// both the receiver's and the successor's evaluator unbuilt instead of
// building the whole propagation-DAG store inside the request. One
// engine warms it at Build, so its successor extends it. Both successors
// answer spread bit-identically to a model learned over the combined log
// with the same parameters.
func TestSnapshotIngestEvaluatorStaysLazy(t *testing.T) {
	full := credist.Generate(datagen.Config{
		Name: "lazy-eval", NumUsers: 300, OutDegree: 4, Reciprocity: 0.6,
		NumActions: 200, MeanInfluence: 0.08, MeanDelay: 8,
		SpontaneousPerAction: 2, ThresholdFraction: 0.4, Seed: 20,
	})
	n := full.Log.NumActions()
	head := &credist.Dataset{Name: full.Name, Graph: full.Graph, Log: full.Log.Prefix(n - 10)}
	var tail []credist.Tuple
	for a := n - 10; a < n; a++ {
		for _, p := range full.Log.Action(credist.ActionID(a)) {
			tail = append(tail, credist.Tuple{User: p.User, Action: credist.ActionID(a), Time: p.Time})
		}
	}
	seeds := []credist.NodeID{1, 5, 9}
	for _, parts := range []int{0, 1, 4} {
		sn, err := serve.Build(serve.Source{Dataset: head, Lambda: 0.001, Partitions: parts})
		if err != nil {
			t.Fatal(err)
		}
		if parts == 0 {
			sn.Model().Spread(nil) // wait for the background warm-up
		}
		next, err := sn.Ingest(tail, false)
		if err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		before, after := credist.EvaluatorUsed(sn.Model()), credist.EvaluatorUsed(next.Model())
		if want := parts == 0; before != want || after != want {
			t.Fatalf("parts=%d: evaluators used %t before and %t after the ingest, want %t", parts, before, after, want)
		}
		ref := credist.ReferenceModel(full, sn.Model())
		if got, want := next.Model().Spread(seeds), ref.Spread(seeds); got != want {
			t.Fatalf("parts=%d: successor spread %v, combined-log model %v", parts, got, want)
		}
	}
}
