package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

// Synthetic guard inputs: a clean run of a one-workload on/off experiment
// (csr's rule: results equal on vs off, everything but wall clock pinned,
// csr_builds <= 1 on and untouched off, >= 1.5x in >= 2 oracle/db2 cells),
// plus perf's observer A/B and concurrent's session cells.

func csrRec(name, profile string, off bool, ms float64) Record {
	r := Record{Exp: "csr", Name: name, Profile: profile, Off: off, Millis: ms,
		Iterations: 4, RowsFinal: 100, Checksum: "00000000deadbeef",
		CountersSnapshot: engine.CountersSnapshot{Joins: 4, CSRBuilds: 1, CSRCacheHits: 3}}
	if off {
		r.CountersSnapshot = engine.CountersSnapshot{Joins: 4, IndexBuilds: 1, IndexCacheHits: 3}
	}
	return r
}

func cleanCSR() []Record {
	return []Record{
		csrRec("BFS", "oracle", false, 10), csrRec("BFS", "db2", false, 10), csrRec("BFS", "postgres", false, 10),
		csrRec("BFS", "oracle", true, 20), csrRec("BFS", "db2", true, 16), csrRec("BFS", "postgres", true, 10),
	}
}

func perfRec(profile string, observed bool, ms float64) Record {
	r := Record{Exp: "perf", Name: "PR", Profile: profile, Millis: ms, Iterations: 15,
		CountersSnapshot: engine.CountersSnapshot{Joins: 15, GroupBys: 15, CSRBuilds: 1, CSRCacheHits: 14}}
	if observed {
		r.Observed, r.Spans = true, 30
	}
	return r
}

func cleanPerf() []Record {
	return []Record{perfRec("oracle", false, 70), perfRec("oracle", true, 75)}
}

// perfCells is a perf baseline of three cells, each with its observed twin.
func perfCells() []Record {
	var recs []Record
	for i, p := range []string{"oracle", "db2", "postgres"} {
		ms := 70 + 30*float64(i)
		recs = append(recs, perfRec(p, false, ms), perfRec(p, true, ms))
	}
	return recs
}

// scalePerf multiplies every perf time by k.
func scalePerf(recs []Record, k float64) []Record {
	for i := range recs {
		recs[i].Millis *= k
	}
	return recs
}

func concRec(sessions int, perSec float64) Record {
	return Record{Exp: "concurrent", Name: fmt.Sprintf("%d-sessions", sessions), Profile: "oracle", Sessions: sessions,
		Statements: 120 * sessions, PerSec: perSec, Checksum: "1cadccaeff2eb119"}
}

func cleanConcurrent() []Record {
	return []Record{concRec(1, 250), concRec(2, 480), concRec(4, 900), concRec(8, 1500)}
}

// clone copies recs and applies edit to the copy.
func clone(recs []Record, edit func([]Record) []Record) []Record {
	return edit(append([]Record(nil), recs...))
}

func TestGateRules(t *testing.T) {
	type tc struct {
		name string
		x    *Experiment
		base []Record // the committed baseline (a clean run)
		edit func([]Record) []Record
		want []string // substrings of the one expected violation; none: clean
	}
	cases := []tc{
		{name: "clean csr", x: csrExp, base: cleanCSR()},
		{name: "clean perf", x: perfExp, base: cleanPerf()},
		{name: "clean concurrent", x: concurrentExp, base: cleanConcurrent()},
		{name: "checksum diverges on vs off", x: csrExp, base: cleanCSR(),
			edit: func(r []Record) []Record { r[4].Checksum = "0000000000000bad"; return r },
			// The off side is pinned too, so the drift shows up twice: once
			// against the on side and once against the baseline.
			want: []string{"csr BFS/db2", "checksum", "diverged"}},
		{name: "pinned counter drifts from baseline", x: csrExp, base: cleanCSR(),
			edit: func(r []Record) []Record { r[2].Joins = 5; return r },
			want: []string{"csr BFS/postgres", "joins drifted from baseline: 5 != 4"}},
		{name: "on-run rebuilt the CSR", x: csrExp, base: cleanCSR(),
			edit: func(r []Record) []Record { r[0].CSRBuilds = 3; return r },
			want: []string{"csr BFS/oracle", "csr_builds = 3, want <= 1"}},
		{name: "off-run touched the on-path counter", x: csrExp, base: cleanCSR(),
			edit: func(r []Record) []Record { r[3].CSRCacheHits = 2; return r },
			want: []string{"csr BFS/oracle", "off-run touched the on-path (csr_cache_hits = 2)"}},
		{name: "too few fast cells", x: csrExp, base: cleanCSR(),
			edit: func(r []Record) []Record { r[4].Millis = 12; return r },
			want: []string{"only 1 cells reached 1.50x (want >= 2)", "csr BFS/oracle 2.00x"}},
		{name: "cell missing from the off run", x: csrExp, base: cleanCSR(),
			edit: func(r []Record) []Record { return r[:5] },
			want: []string{"csr BFS/postgres", "missing"}},
		{name: "cell missing from the run", x: perfExp, base: append(cleanPerf(), perfRec("db2", false, 70)),
			edit: func(r []Record) []Record { return r[:2] },
			want: []string{"perf PR/db2: missing from the run"}},
		{name: "observer-on run without spans", x: perfExp, base: cleanPerf(),
			edit: func(r []Record) []Record { r[1].Spans = 0; return r },
			want: []string{"perf PR/oracle", "observer-on run reports no spans"}},
		{name: "observer overhead", x: perfExp, base: cleanPerf(),
			edit: func(r []Record) []Record { r[1].Millis = 100; return r },
			want: []string{"perf PR/oracle", "observer-on 100.0ms exceeds observer-off 70.0ms x 1.40"}},
		{name: "a slower machine slows every cell alike", x: perfExp, base: perfCells(),
			edit: func(r []Record) []Record { return scalePerf(r, 2.5) }},
		{name: "one cell regresses against the run", x: perfExp, base: perfCells(),
			edit: func(r []Record) []Record {
				r = scalePerf(r, 1.3)
				r[2].Millis, r[3].Millis = 2*r[2].Millis, 2*r[3].Millis
				return r
			},
			want: []string{"perf PR/db2", "260.0ms is 2.60x baseline 100.0ms, over the run's 1.30x x 1.75"}},
		{name: "1->8 scaling under 3x", x: concurrentExp, base: cleanConcurrent(),
			edit: func(r []Record) []Record { r[3].PerSec = 700; return r },
			want: []string{"1->8 sessions 2.80x", "under 3.00x"}},
		{name: "8-session cell missing", x: concurrentExp, base: cleanConcurrent()[:3],
			edit: func(r []Record) []Record { return r[:3] },
			want: []string{"missing the 1- or 8-session cell"}},
		{name: "checksum mismatch vs serial reference", x: concurrentExp, base: cleanConcurrent(),
			edit: func(r []Record) []Record { r[2].Mismatches = 1; return r },
			want: []string{"4-sessions", "mismatches = 1, want <= 0"}},
	}
	// The rule that demands a speedup in every carrying cell, and the Δ path
	// proof, on delta's shape.
	delta := func(off bool, ms float64) Record {
		return Record{Exp: "delta", Name: "TC", Profile: "oracle", Off: off, Delta: !off, Millis: ms,
			Iterations: 40, RowsFinal: 900, DeltaRowsTotal: 900, Checksum: "00000000deadbeef",
			CountersSnapshot: engine.CountersSnapshot{Joins: 40, IndexBuilds: 1}}
	}
	cleanDelta := []Record{delta(false, 10), delta(true, 100)}
	cases = append(cases,
		tc{name: "clean delta", x: deltaExp, base: cleanDelta},
		tc{name: "speedup under threshold", x: deltaExp, base: cleanDelta,
			edit: func(r []Record) []Record { r[1].Millis = 15; return r },
			want: []string{"delta TC/oracle", "speedup 15.0/10.0 = 1.50x under 2.00x"}},
		tc{name: "frontier mode never engaged", x: deltaExp, base: cleanDelta,
			edit: func(r []Record) []Record { r[0].Delta = false; return r },
			want: []string{"delta TC/oracle", "on-run never took the on-path (delta = false)"}},
		tc{name: "fixpoint diverges", x: deltaExp, base: cleanDelta,
			edit: func(r []Record) []Record { r[0].RowsFinal = 901; return r },
			want: []string{"delta TC/oracle", "rows_final diverged: on 901 != off 900"}},
	)
	for _, c := range cases {
		run := c.base
		if c.edit != nil {
			run = clone(c.base, c.edit)
		}
		bad, _ := c.x.Check(run, c.base)
		if len(c.want) == 0 {
			if len(bad) != 0 {
				t.Errorf("%s: clean records must pass, got %q", c.name, bad)
			}
			continue
		}
		found := false
		for _, m := range bad {
			ok := true
			for _, w := range c.want {
				ok = ok && strings.Contains(m, w)
			}
			found = found || ok
		}
		if !found {
			t.Errorf("%s: no violation containing %q in %q", c.name, c.want, bad)
		}
	}
}

// TestGuardReportsUnreadableBaseline: a missing baseline is a violation, not
// a silent pass — checked on the file handling alone, with no experiment run.
func TestGuardReportsUnreadableBaseline(t *testing.T) {
	if _, err := readBaseline(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing baseline must be an error")
	}
	p := filepath.Join(t.TempDir(), "b.json")
	js, err := jsonOf(cleanCSR())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readBaseline(p)
	if err != nil || len(got) != 6 || got[3] != cleanCSR()[3] {
		t.Errorf("baseline must round-trip through JSON: %v, %+v", err, got)
	}
}

// TestObserverSidesAlternate: the guard measures perf's unobserved and
// observed sides in one group whose repetitions alternate within each cell,
// and each side keeps its own fastest repetition — so the overhead rule
// compares best with best, measured under the same conditions.
func TestObserverSidesAlternate(t *testing.T) {
	groups := perfExp.sides(Config{})
	if len(groups) != 1 || len(groups[0]) != 2 || groups[0][0].Observe || !groups[0][1].Observe {
		t.Fatalf("perf's sides: %+v, want one group of the unobserved then the observed side", groups)
	}
	if groups := csrExp.sides(Config{}); len(groups) != 2 || !groups[1][0].NoCSR {
		t.Fatalf("csr's sides: %+v, want the on side, then the off side alone", groups)
	}
	// Per cell, the repetitions' times: unobserved, observed.
	times := map[string][2][]time.Duration{
		"A": {{5, 3, 4}, {2, 6, 7}},
		"B": {{9, 9, 1}, {8, 4, 8}},
	}
	var seq []string
	x := &Experiment{Name: "ab", Reps: 3, cells: func(cfg Config) ([]cell, error) {
		var out []cell
		for _, name := range []string{"A", "B"} {
			side, rep := 0, 0
			if cfg.Observe {
				side = 1
			}
			out = append(out, cell{rec: Record{Name: name}, run: func(r *Record) (time.Duration, error) {
				seq = append(seq, fmt.Sprintf("%s%d", name, side))
				d := times[name][side][rep] * time.Millisecond
				rep++
				return d, nil
			}})
		}
		return out, nil
	}}
	recs, err := x.runSides(groups[0])
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(seq, " "), "A0 A1 A0 A1 A0 A1 B0 B1 B0 B1 B0 B1"; got != want {
		t.Errorf("repetition order %q, want %q", got, want)
	}
	want := [2][]float64{{3, 1}, {2, 4}}
	for side := range recs {
		for k, r := range recs[side] {
			if r.Millis != want[side][k] || r.Exp != "ab" {
				t.Errorf("side %d cell %s: %.1f ms, want its own best %.1f", side, r.Name, r.Millis, want[side][k])
			}
		}
	}
}
