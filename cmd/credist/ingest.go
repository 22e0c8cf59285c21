package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"

	"credist"
	"credist/internal/serve"
)

// runIngest is the `credist ingest` subcommand: stream a held-out action
// tail (as written by `datagen -stream`) into a running `credist serve`
// instance through POST /ingest. The tail file is parsed client-side and
// shipped inline, so the server may be remote.
func runIngest(args []string) {
	fs := flag.NewFlagSet("credist ingest", flag.ExitOnError)
	var (
		addr    = fs.String("addr", "http://127.0.0.1:8632", "base URL of the running credist serve instance")
		tail    = fs.String("tail", "", "action-tail file to stream (as written by `datagen -stream`); parsed locally and sent inline")
		compact = fs.Bool("compact", false, "reset the server's delta counts after the append (the server keeps them; the model's shards are not touched)")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), `Usage: credist ingest [flags]

Stream new propagations into a running influence-query service without a
full model rebuild: the server scans only the appended action tail and
atomically swaps in the successor snapshot (see POST /ingest).

  datagen -preset flixster-small -stream 0.05 -out ./data
  credist serve -graph ./data/flixster-small.graph -log ./data/flixster-small.log &
  credist ingest -tail ./data/flixster-small.tail.log

Flags:
`)
		fs.PrintDefaults()
	}
	fs.Parse(args)

	if *tail == "" {
		fmt.Fprintln(os.Stderr, "credist ingest: -tail is required (a file written by `datagen -stream`)")
		os.Exit(1)
	}
	f, err := os.Open(*tail)
	if err != nil {
		fmt.Fprintln(os.Stderr, "credist ingest:", err)
		os.Exit(1)
	}
	tuples, err := credist.ReadTuples(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "credist ingest:", err)
		os.Exit(1)
	}
	if len(tuples) == 0 {
		fmt.Fprintf(os.Stderr, "credist ingest: %s holds no tuples\n", *tail)
		os.Exit(1)
	}

	reqTuples := make([]serve.IngestTuple, len(tuples))
	for i, t := range tuples {
		reqTuples[i] = serve.IngestTuple{User: t.User, Action: t.Action, Time: t.Time}
	}
	body, err := json.Marshal(map[string]any{"tuples": reqTuples, "compact": *compact})
	if err != nil {
		fmt.Fprintln(os.Stderr, "credist ingest:", err)
		os.Exit(1)
	}
	resp, err := http.Post(*addr+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Fprintln(os.Stderr, "credist ingest:", err)
		os.Exit(1)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var eb struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		fmt.Fprintf(os.Stderr, "credist ingest: server returned %s: %s\n", resp.Status, eb.Error)
		os.Exit(1)
	}
	var ir serve.IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		fmt.Fprintln(os.Stderr, "credist ingest: decode response:", err)
		os.Exit(1)
	}
	fmt.Printf("ingested %d tuples into snapshot %d (%s): %d actions, %d users\n",
		ir.AppendedTuples, ir.Snapshot, ir.Dataset, ir.Actions, ir.Users)
	fmt.Printf("UC entries: %d total = %d base + %d delta (%d delta actions), %.1f MiB resident, %.0f ms\n",
		ir.Entries, ir.BaseEntries, ir.DeltaEntries, ir.DeltaActions,
		float64(ir.ResidentBytes)/(1<<20), ir.IngestMillis)
}
