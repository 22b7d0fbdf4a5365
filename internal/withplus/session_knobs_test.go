package withplus

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/sql"
)

// TestSessionInheritsPlanKnobs: a session of a root engine with a Disable*
// knob set runs that knob's off-path, proved by the session's own counters
// (and the recursion trace for the Δ frontier) — a pooled session must not
// silently fall back to the default plan.
func TestSessionInheritsPlanKnobs(t *testing.T) {
	const reach = `
with R(ID) as (
  (select ID from V where ID = 0)
  union all
  (select E.T from R, E where R.ID = E.F and E.ew > 0))
select ID from R`
	triangle, err := sql.ParseSelect("select count(*) from E e1, E e2, E e3 " +
		"where e1.T = e2.F and e2.T = e3.F and e3.T = e1.F")
	if err != nil {
		t.Fatal(err)
	}
	run := func(set func(*engine.Engine)) (engine.CountersSnapshot, *Trace) {
		t.Helper()
		root := engine.New(engine.OracleLike())
		set(root)
		loadGraphDB(t, root, cycleGraph(8))
		s := root.NewSession("s")
		defer s.CloseSession()
		end := s.BeginStatement(context.Background())
		_, tr, err := Run(s, reach)
		end()
		if err != nil {
			t.Fatal(err)
		}
		end = s.BeginStatement(context.Background())
		_, err = sql.NewExec(s).Run(triangle)
		end()
		if err != nil {
			t.Fatal(err)
		}
		return s.Cnt.Snapshot(), tr
	}

	on, tr := run(func(*engine.Engine) {})
	if on.CSRBuilds+on.CSRCacheHits == 0 || on.VectorizedBatches == 0 || on.WCOJProbes == 0 || !tr.DeltaEnabled {
		t.Fatalf("default session must take every on-path: %+v delta=%v", on, tr.DeltaEnabled)
	}
	for _, c := range []struct {
		knob string
		set  func(*engine.Engine)
		off  func(engine.CountersSnapshot, *Trace) bool
	}{
		{"DisableDelta", func(e *engine.Engine) { e.DisableDelta = true },
			func(_ engine.CountersSnapshot, tr *Trace) bool { return !tr.DeltaEnabled }},
		{"DisableCSR", func(e *engine.Engine) { e.DisableCSR = true },
			func(c engine.CountersSnapshot, _ *Trace) bool { return c.CSRBuilds+c.CSRCacheHits == 0 }},
		{"DisableVectorized", func(e *engine.Engine) { e.DisableVectorized = true },
			func(c engine.CountersSnapshot, _ *Trace) bool { return c.VectorizedBatches == 0 }},
		{"DisableWCOJ", func(e *engine.Engine) { e.DisableWCOJ = true },
			func(c engine.CountersSnapshot, _ *Trace) bool { return c.WCOJProbes == 0 }},
	} {
		if cnt, tr := run(c.set); !c.off(cnt, tr) {
			t.Errorf("%s on the root: its session still ran the on-path: %+v delta=%v", c.knob, cnt, tr.DeltaEnabled)
		}
	}
}
