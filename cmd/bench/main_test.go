package main

import (
	"testing"

	"repro/internal/exp"
)

func tiny() exp.Config { return exp.Config{Nodes: 60, Seed: 1, Iters: 3} }

func TestRunSingleExperiments(t *testing.T) {
	for _, name := range []string{"table1", "table2", "table3", "table4", "table6", "fig12", "fig13", "resources"} {
		if err := run(name, tiny()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("fig99", tiny()); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestRunCSVMode(t *testing.T) {
	asCSV = true
	defer func() { asCSV = false }()
	if err := run("table1", tiny()); err != nil {
		t.Fatal(err)
	}
}

// TestEveryExperimentReachable ranges over the exported experiment table: an
// experiment cannot exist without a step of its name that -exp all runs. The
// guard is a step too, but never part of "all".
func TestEveryExperimentReachable(t *testing.T) {
	byName := map[string]step{}
	for _, s := range steps() {
		byName[s.name] = s
	}
	if g, ok := byName["guard"]; !ok || !g.manual {
		t.Error("guard must be a step that -exp all skips")
	}
	for _, x := range exp.Experiments() {
		if s, ok := byName[x.Name]; !ok || s.manual {
			t.Errorf("experiment %s is not reachable from -exp (or hidden from -exp all)", x.Name)
		}
	}
}

// TestRunRecordModes drives one record experiment end to end in both output
// modes (perf is the one whose scale follows -nodes all the way down).
func TestRunRecordModes(t *testing.T) {
	defer func() { asJSON = false }()
	for _, asJSON = range []bool{false, true} {
		if err := run("perf", tiny()); err != nil {
			t.Errorf("perf (json=%v): %v", asJSON, err)
		}
	}
}
