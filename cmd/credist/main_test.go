package main

import (
	"flag"
	"strings"
	"testing"

	"credist"
)

func TestParseSeeds(t *testing.T) {
	seeds, err := parseSeeds("1, 2,3", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 3 || seeds[0] != 1 || seeds[2] != 3 {
		t.Fatalf("seeds = %v", seeds)
	}
	for _, bad := range []string{"", "x", "-1", "10", "1,,x"} {
		if _, err := parseSeeds(bad, 10); err == nil {
			t.Errorf("input %q: expected error", bad)
		}
	}
	// Trailing commas and blanks are tolerated.
	if seeds, err := parseSeeds("4,", 10); err != nil || len(seeds) != 1 {
		t.Fatalf("trailing comma: %v, %v", seeds, err)
	}
}

func TestBuildObjective(t *testing.T) {
	if obj, err := buildObjective("", -1, "", "", 0, 10); err != nil || obj != nil {
		t.Fatalf("all-default flags: %v, %v (want nil objective)", obj, err)
	}
	obj, err := buildObjective("1,2", 30, "4", "3:2.5", 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(obj.Audience) != 2 || !obj.Windowed || obj.Window != 30 ||
		len(obj.Blocked) != 1 || obj.Budget != 5 {
		t.Fatalf("objective = %+v", obj)
	}
	if obj.Costs[3] != 2.5 || obj.Costs[0] != 1 {
		t.Fatalf("costs = %v, want unit costs with the 3:2.5 override", obj.Costs)
	}
	// window=0 is a real window (only instantaneous influence), not "off".
	if obj, err := buildObjective("", 0, "", "", 0, 10); err != nil || obj == nil || !obj.Windowed {
		t.Fatalf("window=0: %+v, %v", obj, err)
	}
	for _, bad := range [][2]string{{"x", ""}, {"99", ""}, {"", "x:1"}, {"", "1:x"}, {"", "99:1"}, {"", "5"}} {
		if _, err := buildObjective(bad[0], -1, "", bad[1], 0, 10); err == nil {
			t.Errorf("audience=%q costs=%q accepted", bad[0], bad[1])
		}
	}
}

func TestLoadDatasetValidation(t *testing.T) {
	if _, err := loadDataset("", "", ""); err == nil {
		t.Fatal("no inputs accepted")
	}
	if _, err := loadDataset("", "g-only", ""); err == nil {
		t.Fatal("graph without log accepted")
	}
	// Unknown presets and missing inputs both name the valid presets, so
	// the error doubles as usage help.
	if _, err := loadDataset("no-such-preset", "", ""); err == nil {
		t.Fatal("unknown preset accepted")
	} else if !strings.Contains(err.Error(), "flixster-small") {
		t.Errorf("unknown-preset error does not list valid presets: %v", err)
	}
	if _, err := loadDataset("", "", ""); !strings.Contains(err.Error(), "flixster-small") {
		t.Errorf("missing-input error does not list valid presets: %v", err)
	}
}

// TestModelOptions pins the -lambda/-simple-credit rule serve and explain
// share: with -model, unset flags adopt the snapshot's stored options
// (the zero Options), explicit ones are passed on to be checked, and an
// explicit zero value, which could never be checked, is refused.
func TestModelOptions(t *testing.T) {
	cases := []struct {
		name    string
		model   string
		args    []string
		want    credist.Options
		refused string
	}{
		{name: "no model, defaults", want: credist.Options{Lambda: 0.001}},
		{name: "no model, explicit zero", args: []string{"-lambda", "0", "-simple-credit=false"}},
		{name: "no model, simple", args: []string{"-lambda", "0.01", "-simple-credit"}, want: credist.Options{Lambda: 0.01, SimpleCredit: true}},
		{name: "model, unset adopts stored", model: "m.bin"},
		{name: "model, explicit lambda", model: "m.bin", args: []string{"-lambda", "0.01"}, want: credist.Options{Lambda: 0.01}},
		{name: "model, explicit simple", model: "m.bin", args: []string{"-simple-credit"}, want: credist.Options{SimpleCredit: true}},
		{name: "model, lambda 0", model: "m.bin", args: []string{"-lambda", "0"}, refused: "-lambda 0"},
		{name: "model, simple false", model: "m.bin", args: []string{"-simple-credit=false"}, refused: "-simple-credit=false"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			lambda := fs.Float64("lambda", 0.001, "")
			simple := fs.Bool("simple-credit", false, "")
			if err := fs.Parse(c.args); err != nil {
				t.Fatal(err)
			}
			got, err := modelOptions(fs, c.model, *lambda, *simple)
			if c.refused != "" {
				if err == nil || !strings.Contains(err.Error(), c.refused) {
					t.Fatalf("err = %v, want a refusal naming %s", err, c.refused)
				}
				return
			}
			if err != nil || got != c.want {
				t.Fatalf("got %+v, %v; want %+v", got, err, c.want)
			}
		})
	}
}
