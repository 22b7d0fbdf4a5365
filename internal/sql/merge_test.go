package sql

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// TestMergeRootRule: RunUBU merges exactly the statements whose plan root
// is the select list over a hash join of a full scan of the target on its
// key column with a subtree, passing the key through at its own position;
// the rows left in R are those the unfused statement's rows would leave
// after the full-outer union-by-update.
func TestMergeRootRule(t *testing.T) {
	const step = "select D.ID, least(D.dist, s.nd) from D, (select E.T tid, min(dist + ew) nd from D, E where D.ID = E.F group by E.T) s where D.ID = s.tid"
	for _, c := range []struct {
		name, text string
		prof       engine.Profile
		target     bool
		merges     bool
	}{
		{"guarded step", step, engine.OracleLike(), true, true},
		{"no target", step, engine.OracleLike(), false, false},
		{"merge join", step, engine.PostgresLike(true), true, false},
		{"key from s", "select s.tid, least(D.dist, s.nd) from D, (select E.T tid, min(dist + ew) nd from D, E where D.ID = E.F group by E.T) s where D.ID = s.tid", engine.OracleLike(), true, false},
		{"columns swapped", "select least(D.dist, s.nd), D.ID from D, (select E.T tid, min(dist + ew) nd from D, E where D.ID = E.F group by E.T) s where D.ID = s.tid", engine.OracleLike(), true, false},
		{"subquery first", "select D.ID, least(D.dist, s.nd) from (select E.T tid, min(dist + ew) nd from D, E where D.ID = E.F group by E.T) s, D where D.ID = s.tid", engine.OracleLike(), true, false},
		{"residual filter", step + " and s.nd < 5", engine.OracleLike(), true, false},
		{"unguarded", "select D.ID, s.nd from D, (select E.T tid, min(dist + ew) nd from D, E where D.ID = E.F group by E.T) s where D.ID = s.tid", engine.OracleLike(), true, true},
	} {
		e := engine.New(c.prof)
		edges := relation.New(schema.Schema{{Name: "F", Type: value.KindInt}, {Name: "T", Type: value.KindInt}, {Name: "ew", Type: value.KindFloat}})
		for _, p := range [][2]int64{{0, 1}, {1, 2}, {0, 2}, {2, 2}} {
			edges.AppendVals(value.Int(p[0]), value.Int(p[1]), value.Float(float64(1+p[1])))
		}
		if _, err := e.LoadBase("E", edges); err != nil {
			t.Fatal(err)
		}
		d := relation.New(schema.Schema{{Name: "ID", Type: value.KindInt}, {Name: "dist", Type: value.KindFloat}})
		for i := int64(0); i < 3; i++ {
			d.AppendVals(value.Int(i), value.Float(float64(10*i)))
		}
		if _, err := e.EnsureTemp("D", d.Sch); err != nil {
			t.Fatal(err)
		}
		if err := e.StoreInto("D", d); err != nil {
			t.Fatal(err)
		}
		s, err := ParseSelect(c.text)
		if err != nil {
			t.Fatal(err)
		}
		var m *UBUMerge
		if c.target {
			m = &UBUMerge{Table: "D", Key: 0}
		}
		r, _, merged, err := NewExec(e).RunUBU(s, m, false)
		if err != nil {
			t.Fatal(err)
		}
		if (merged != nil) != c.merges {
			t.Errorf("%s: merged %v, want %v", c.name, merged != nil, c.merges)
			continue
		}
		if merged == nil {
			if r == nil {
				t.Errorf("%s: unfused run returned no rows", c.name)
			}
			continue
		}
		// Row 0 has no in-edge and keeps 0; row 1 takes 0 + 2; row 2 takes
		// min(10 + 3, 0 + 3, 20 + 3) = 3.
		got, err := e.Rel("D")
		if err != nil {
			t.Fatal(err)
		}
		want := []float64{0, 2, 3}
		for i, tu := range got.Tuples {
			if tu[1].F != want[i] {
				t.Errorf("%s: D = %v, want dist %v", c.name, got.Tuples, want)
				break
			}
		}
		if merged.Delta.Len() != 2 || merged.Rows != 2 {
			t.Errorf("%s: %d changed rows of %d merged, want 2 of 2", c.name, merged.Delta.Len(), merged.Rows)
		}
	}
}
