package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
)

// The guard's timing thresholds (the speedups live in each experiment's
// Rule). They are deliberately loose — wall clock on a shared machine is
// noisy: the gate catches order-of-magnitude mistakes (an allocation or clock
// read sneaking onto the per-tuple path, a kernel that stopped being chosen),
// not single-digit drift.
const (
	// perfRegressionX bounds an unobserved perf cell's time relative to the
	// baseline's, each side normalized by the same run's reference
	// (perfSpeed): a cell may not slow down this much more than the run's
	// cells do as a whole.
	perfRegressionX = 1.75
	// observerOverheadX bounds an observed perf cell by the unobserved one of
	// the same process, the two measured in alternating repetitions:
	// DESIGN.md's "single pointer check when unobserved, cheap spans when
	// observed" contract.
	observerOverheadX = 1.40
	// sessionScalingX is the least 1→8 session throughput scaling. It needs
	// the think-time closed loop, so concThink must not shrink.
	sessionScalingX = 3.0
)

// wallClock are the record fields that are not deterministic per dataset
// seed; the guard pins every other field of every record to the baseline.
var wallClock = map[string]bool{"ns_op": true, "ms": true, "stmt_per_sec": true}

// resultFields must be identical on vs off in every cell of an on/off pair:
// the ablated path is a pure physical swap.
var resultFields = []string{"nodes", "edges", "queries", "iterations", "rows_final", "count", "checksum"}

// Rule is what the guard demands of one experiment beyond the baseline pin,
// as data over record fields (JSON keys). "On" is the default configuration,
// "off" the run with the experiment's knob flipped.
type Rule struct {
	// OnUsed fields are non-zero on and OffUnused fields zero off — the path
	// proof, so the differential cannot degrade into comparing a path against
	// itself.
	OnUsed, OffUnused []string
	// OnAtMost bounds integer fields of the on side from above.
	OnAtMost map[string]int64
	// Speedup is the least off/on wall-time ratio in the cells that carry the
	// claim (Carries): in every such cell when MinFast is zero, else in at
	// least MinFast of them.
	Speedup float64
	Carries func(Record) bool
	MinFast int
	// Extra holds what does not fit the on/off shape; it gets this
	// experiment's run and baseline records by key and returns violations
	// and, for the log, the ratios it measured.
	Extra func(run, base map[string]Record) (bad, notes []string)
}

// index keys the records of experiment name.
func index(recs []Record, name string) map[string]Record {
	m := map[string]Record{}
	for _, r := range recs {
		if r.Exp == name {
			m[r.key()] = r
		}
	}
	return m
}

// Check applies the baseline pin and the experiment's rule to the records of
// one guard run, returning one message per violation — each naming its cell —
// and the measured ratios for the log.
func (x *Experiment) Check(runRecs, baseRecs []Record) (bad, notes []string) {
	g := x.Gate
	run, base := index(runRecs, x.Name), index(baseRecs, x.Name)
	fail := func(format string, a ...any) { bad = append(bad, fmt.Sprintf(format, a...)) }
	for k, b := range base {
		r, ok := run[k]
		if !ok {
			fail("%s: missing from the run", k)
		}
		for f := range recordFields {
			if ok && !wallClock[f] && r.field(f) != b.field(f) {
				fail("%s: %s drifted from baseline: %v != %v", k, f, r.field(f), b.field(f))
			}
		}
	}
	for k, on := range run {
		if on.Off || on.Observed {
			continue
		}
		for f, most := range g.OnAtMost {
			if v := reflect.ValueOf(on.field(f)).Int(); v > most {
				fail("%s: %s = %d, want <= %d", k, f, v, most)
			}
		}
		if x.Knob == nil {
			continue
		}
		off, ok := run[k+" (off)"]
		if !ok {
			fail("%s: missing from the off run", k)
			continue
		}
		for _, f := range resultFields {
			if on.field(f) != off.field(f) {
				fail("%s: %s diverged: on %v != off %v", k, f, on.field(f), off.field(f))
			}
		}
		for _, f := range g.OnUsed {
			if reflect.ValueOf(on.field(f)).IsZero() {
				fail("%s: on-run never took the on-path (%s = %v)", k, f, on.field(f))
			}
		}
		for _, f := range g.OffUnused {
			if !reflect.ValueOf(off.field(f)).IsZero() {
				fail("%s: off-run touched the on-path (%s = %v)", k, f, off.field(f))
			}
		}
		if !g.Carries(on) {
			continue
		}
		ratio := off.Millis / max(on.Millis, 1e-9)
		switch {
		case ratio >= g.Speedup:
			notes = append(notes, fmt.Sprintf("%s %.2fx", k, ratio))
		case g.MinFast == 0:
			fail("%s: speedup %.1f/%.1f = %.2fx under %.2fx", k, off.Millis, on.Millis, ratio, g.Speedup)
		}
	}
	sort.Strings(notes)
	if len(notes) < g.MinFast {
		fail("%s: only %d cells reached %.2fx (want >= %d): %v", x.Name, len(notes), g.Speedup, g.MinFast, notes)
	}
	if g.Extra != nil {
		b, n := g.Extra(run, base)
		bad, notes = append(bad, b...), append(notes, n...)
	}
	sort.Strings(bad)
	return bad, notes
}

// perfTimings is perf's Extra: no cell regressed against the baseline by
// more than the run as a whole, and the observer A/B.
func perfTimings(run, base map[string]Record) (bad, notes []string) {
	fail := func(format string, a ...any) { bad = append(bad, fmt.Sprintf(format, a...)) }
	speed := perfSpeed(run, base)
	for k, r := range run {
		if r.Observed {
			continue
		}
		if b, ok := base[k]; ok && speed > 0 && r.Millis/b.Millis > speed*perfRegressionX {
			fail("%s: %.1fms is %.2fx baseline %.1fms, over the run's %.2fx x %.2f", k, r.Millis, r.Millis/b.Millis, b.Millis, speed, perfRegressionX)
		}
		o, ok := run[k+" (observed)"]
		switch {
		case !ok:
			fail("%s: missing from the observer-on run", k)
		case o.Spans <= 0:
			fail("%s: observer-on run reports no spans", k)
		case o.Millis > r.Millis*observerOverheadX:
			fail("%s: observer-on %.1fms exceeds observer-off %.1fms x %.2f", k, o.Millis, r.Millis, observerOverheadX)
		}
	}
	if speed > 0 {
		notes = append(notes, fmt.Sprintf("run/baseline %.2fx", speed))
	}
	return bad, notes
}

// perfSpeed is the reference the perf rule normalizes by, measured in the
// same guard run: the median over the unobserved cells of the cell's time
// divided by its baseline time. A machine that runs everything k× slower
// moves it to k and moves no cell relative to it, while one cell that
// regresses stands out against the others. 0 when no cell has a baseline.
func perfSpeed(run, base map[string]Record) float64 {
	var ratios []float64
	for k, r := range run {
		if b, ok := base[k]; ok && !r.Observed && b.Millis > 0 {
			ratios = append(ratios, r.Millis/b.Millis)
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	sort.Float64s(ratios)
	return ratios[len(ratios)/2]
}

// sessionScaling is concurrent's Extra: aggregate statements/sec from 1 to 8
// sessions.
func sessionScaling(run, _ map[string]Record) (bad, notes []string) {
	perSec := map[int]float64{}
	for _, r := range run {
		perSec[r.Sessions] = r.PerSec
	}
	if perSec[1] == 0 || perSec[8] == 0 {
		return []string{"concurrent: run is missing the 1- or 8-session cell"}, nil
	}
	scale := perSec[8] / perSec[1]
	note := fmt.Sprintf("1->8 sessions %.2fx (%.0f -> %.0f stmt/s)", scale, perSec[1], perSec[8])
	if scale < sessionScalingX {
		return []string{fmt.Sprintf("concurrent: throughput scaling %s under %.2fx", note, sessionScalingX)}, nil
	}
	return nil, []string{note}
}

func readBaseline(path string) ([]Record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []Record
	if err := json.Unmarshal(b, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// sides lists the configurations the guard measures the experiment under,
// in groups run side by side: the default configuration with, for the
// observer A/B, its observed twin — the two alternate repetition by
// repetition, so the overhead rule compares fastest with fastest under the
// same conditions — and then the knob-flipped side of an on/off pair.
func (x *Experiment) sides(cfg Config) [][]Config {
	groups := [][]Config{{cfg}}
	if x.ObserverAB {
		observed := cfg
		observed.Observe = true
		groups[0] = append(groups[0], observed)
	}
	if x.Knob != nil {
		off := cfg
		*x.Knob(&off) = true
		groups = append(groups, []Config{off})
	}
	return groups
}

// Guard is the bench gate (cmd/bench -exp guard). It measures every
// experiment in this process — the default side, the knob-flipped side of
// each on/off pair, and perf's observed side — checks each against its rule
// and the baseline file, and logs every violated cell. It returns the records
// it measured and a non-nil error when anything was violated.
func Guard(cfg Config, baselinePath string, log io.Writer) ([]Record, error) {
	var all []Record
	violations := 0
	base, err := readBaseline(baselinePath)
	if err != nil {
		// Not fatal: the run's records are still worth printing (that is how
		// a baseline is made), but nothing was pinned, so the gate fails.
		fmt.Fprintf(log, "guard: baseline: %v\n", err)
		violations++
	}
	for _, x := range Experiments() {
		var run []Record
		for _, group := range x.sides(cfg) {
			recs, err := x.runSides(group)
			if err != nil {
				return all, err
			}
			for _, side := range recs {
				run = append(run, side...)
			}
		}
		all = append(all, run...)
		bad, notes := x.Check(run, base)
		violations += len(bad)
		if len(bad) > 0 {
			fmt.Fprintf(log, "guard: %s FAILED:\n  - %s\n", x.Name, strings.Join(bad, "\n  - "))
			continue
		}
		fmt.Fprintf(log, "guard: %s ok, %d records %s\n", x.Name, len(run), strings.Join(notes, ", "))
	}
	if violations > 0 {
		return all, fmt.Errorf("%d violations", violations)
	}
	return all, nil
}
