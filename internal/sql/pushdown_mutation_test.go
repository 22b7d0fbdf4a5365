package sql

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/value"
)

// The planner mutations the bounded-exhaustive pushdown check must catch
// (pushdown_exhaustive_test.go). Each plans a statement with the real
// planner, then breaks one decision the way a faulty rewrite would.
const (
	// MutateNullLookup: the lookup rule accepts a NULL literal. The
	// statement is planned with a non-NULL literal so the lookup is claimed;
	// its key is then replaced by NULL — the plan a rule without the NULL
	// guard builds for "column = NULL".
	MutateNullLookup = "lookup accepts a NULL literal"
	// MutateDropLaterKey: column pruning forgets a later join's key. The
	// bottom join of the chain stops emitting the column the next join reads
	// as its left key; the next join keeps reading the same position, which
	// now holds another column (or none: an error).
	MutateDropLaterKey = "pruning drops a later join's key column"
	// MutateFoldNullOperands: the agg-join folds whatever its operands are,
	// as the runners' MV-join does — a NULL operand's row still touches its
	// group, which then reads the semiring's zero where SQL's aggregate
	// reads NULL.
	MutateFoldNullOperands = "agg-join folds NULL-operand rows"
	// MutateFoldProbeKey: the agg-join groups by the join key — the probe
	// row's key — instead of the build side's other endpoint.
	MutateFoldProbeKey = "agg-join groups by the probe key"
	// MutateTranslateNull: the multiway join's typed probe translates a
	// NULL ordinal to a live one. Every CSR a multiway node reads has its
	// NULL dictionary keys respelled as 0, so the ordinal translations,
	// built through Lookup, map the NULL ordinal to 0's, and the
	// NULL-candidate skip no longer finds it.
	MutateTranslateNull = "wcoj translation maps a NULL ordinal to a live one"
	// MutateFoldDropDuplicate: the multiway count fold drops a duplicate
	// edge's multiplicity. Every CSR a multiway node reads keeps only the
	// first of each source's parallel edges, so the fold multiplies a run of
	// one row where a target repeats.
	MutateFoldDropDuplicate = "wcoj count fold drops a duplicate edge's multiplicity"
)

// RunMutated runs s under one of the mutations above. A run the mutation
// crashes reports the crash as its error.
func RunMutated(x *Exec, s *SelectStmt, mutation string) (out *relation.Relation, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("mutated plan crashed: %v", r)
		}
	}()
	p, err := x.plan(s)
	if err != nil {
		return nil, err
	}
	broken := false
	if mutation == MutateTranslateNull || mutation == MutateFoldDropDuplicate {
		broken = x.mutateCSRs(p, mutation)
	} else {
		broken = mutate(p, mutation)
	}
	if !broken {
		return nil, fmt.Errorf("mutation %q found nothing to break", mutation)
	}
	out, _, err = x.execute(p, false)
	return out, err
}

func mutate(n *planNode, mutation string) bool {
	switch {
	case mutation == MutateNullLookup && n.lookup != nil:
		n.lookup.key = value.Null
		return true
	case mutation == MutateFoldNullOperands && n.op == opAggJoin:
		n.fold.inexact = true
		return true
	case mutation == MutateFoldProbeKey && n.op == opAggJoin:
		n.fold.build.T = n.fold.build.F
		return true
	case mutation == MutateDropLaterKey && n.op == opEquiJoin && n.kids[0].op == opEquiJoin:
		low := n.kids[0]
		key := n.join.lCols[0]
		if low.join.keep == nil {
			return false
		}
		var keep []int
		for i, c := range low.join.keep {
			if i != key {
				keep = append(keep, c)
			}
		}
		low.join.keep = keep
		low.sch = low.kids[0].sch.Concat(low.kids[1].sch).Project(keep)
		return true
	}
	for _, k := range n.kids {
		if mutate(k, mutation) {
			return true
		}
	}
	return false
}

// mutateCSRs breaks, in place, the cached CSRs the multiway nodes under n
// read as their atoms' sorted backing, reporting whether there was one.
func (x *Exec) mutateCSRs(n *planNode, mutation string) bool {
	broken := false
	if n.op == opMultiway {
		for k, ap := range n.join.wcoj.Atoms {
			if !ap.CSR {
				continue
			}
			sc, dc, _ := ap.csrShape()
			c, _ := x.Eng.OpenBuildSide(n.kids[k].ref.Name, engine.CachedCSR, []int{sc}, dc)
			if c == nil {
				continue
			}
			broken = true
			if mutation == MutateTranslateNull {
				respellNull(c.Src)
				respellNull(c.Dst)
			} else {
				dropParallelEdges(c)
			}
		}
	}
	for _, k := range n.kids {
		broken = x.mutateCSRs(k, mutation) || broken
	}
	return broken
}

// respellNull rewrites the dictionary's NULL key as 0.
func respellNull(d *relation.ColumnDict) {
	for i, k := range d.Keys {
		if k.IsNull() {
			d.Keys[i] = value.Int(0)
		}
	}
}

// dropParallelEdges keeps the first edge of every (source, target) pair in
// the CSR's main blocks.
func dropParallelEdges(c *relation.CSR) {
	offsets := []int32{0}
	var rows, targets []int32
	for s := 0; s+1 < len(c.Offsets); s++ {
		seen := map[int32]bool{}
		for e := c.Offsets[s]; e < c.Offsets[s+1]; e++ {
			if !seen[c.Targets[e]] {
				seen[c.Targets[e]] = true
				rows, targets = append(rows, c.Rows[e]), append(targets, c.Targets[e])
			}
		}
		offsets = append(offsets, int32(len(rows)))
	}
	c.Offsets, c.Rows, c.Targets = offsets, rows, targets
}
