package sql

import (
	"sort"

	"repro/internal/ra"
	"repro/internal/schema"
)

// This file decides when a SELECT's FROM/WHERE lowers to the worst-case-
// optimal multiway join instead of the left-deep binary chain. The rule is
// structural: build the join hypergraph (one hyperedge per FROM source,
// vertices = variable classes formed by cross-source equality conjuncts),
// GYO-reduce it, and if a stalled core of at least three relations remains
// the pattern is cyclic — exactly the shapes (triangles, 4-cliques,
// diamonds) where binary join trees materialize intermediates that exceed
// the output by the AGM gap. The cyclic core runs through ra.WCOJ; dangling
// tail sources (the acyclic ears GYO removed) join onto the core result
// through the ordinary binary loop, and conjuncts that never formed
// cross-source variables stay residual filters — so the split consumes
// precisely the conjuncts the binary plan would have used as keys, and the
// output bag is identical either way.

// wcojAtomPlan is one core source with its variable bindings. CSR is the
// planner's access-path decision for the atom (the chooser itself is
// schema-only and leaves it unset): read the table's cached (src, dst) CSR
// as the sorted backing instead of building a trie.
type wcojAtomPlan struct {
	Src     int
	VarCols []ra.WCOJVarCol
	CSR     bool
}

// csrShape reports the (srcCol, dstCol) a cached CSR must have to serve as
// this atom's sorted backing: a binary atom whose two variables map to one
// column each, source column first in elimination order. Variable ids are
// assigned in elimination order, so the smaller id leads.
func (p wcojAtomPlan) csrShape() (srcCol, dstCol int, ok bool) {
	if len(p.VarCols) != 2 || p.VarCols[0].Var == p.VarCols[1].Var {
		return 0, 0, false
	}
	a, b := p.VarCols[0], p.VarCols[1]
	if a.Var < b.Var {
		return a.Col, b.Col, true
	}
	return b.Col, a.Col, true
}

// wcojPlan is the lowering decision: the cyclic core (ascending source
// indexes), its atoms, the variable count (ids 0..NumVars-1 assigned in
// elimination order, so Order is the identity), and the consumed conjunct
// indexes.
type wcojPlan struct {
	Core      []int
	Atoms     []wcojAtomPlan
	NumVars   int
	Order     []int
	Conjuncts []int
}

// scol identifies one column of one FROM source.
type scol struct{ src, col int }

// chooseWCOJ inspects the resolved source schemas and the WHERE conjuncts
// and returns the lowering plan for a cyclic equi-join core, or nil to keep
// the binary chain (acyclic pattern, fewer than three core relations, or a
// column reference whose resolution is ambiguous — the conservative bail
// that keeps behavior identical to the binary path). Conjuncts already
// marked used are ignored.
func chooseWCOJ(schemas []schema.Schema, conjuncts []Expr, used []bool) *wcojPlan {
	if len(schemas) < 3 {
		return nil
	}
	// resolveIn finds the unique source a column reference resolves in.
	// Ambiguity — within a source or across sources — aborts the chooser:
	// the binary path's prefix-based resolution could differ, and identical
	// behavior matters more than a faster plan for a malformed query.
	ambiguous := false
	resolveIn := func(c *ColRef) (scol, bool) {
		hit := scol{-1, -1}
		n := 0
		for i, sch := range schemas {
			idx, err := sch.Resolve(c.Table, c.Name)
			if err != nil {
				if _, amb := err.(*schema.ErrAmbiguous); amb {
					ambiguous = true
				}
				continue
			}
			hit = scol{i, idx}
			n++
		}
		if n > 1 {
			ambiguous = true
		}
		return hit, n == 1
	}

	// Union-find over source columns, one union per eligible conjunct: an
	// unused "=" between column references of two different sources.
	parent := make(map[scol]scol)
	var find func(x scol) scol
	find = func(x scol) scol {
		p, ok := parent[x]
		if !ok || p == x {
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	type edge struct {
		ci   int
		a, b scol
	}
	var edges []edge
	for ci, c := range conjuncts {
		if used[ci] {
			continue
		}
		b, ok := c.(*Binary)
		if !ok || b.Op != "=" {
			continue
		}
		lc, lok := b.L.(*ColRef)
		rc, rok := b.R.(*ColRef)
		if !lok || !rok {
			continue
		}
		ls, lok := resolveIn(lc)
		rs, rok := resolveIn(rc)
		if ambiguous {
			return nil
		}
		if !lok || !rok || ls.src == rs.src {
			continue
		}
		rootA, rootB := find(ls), find(rs)
		if rootA != rootB {
			parent[rootA] = rootB
		}
		edges = append(edges, edge{ci: ci, a: ls, b: rs})
	}
	if len(edges) < 3 {
		return nil
	}

	// Per-source variable sets (class roots) for the hypergraph.
	classCols := make(map[scol][]scol) // root -> member columns
	addMember := func(m scol) {
		r := find(m)
		for _, have := range classCols[r] {
			if have == m {
				return
			}
		}
		classCols[r] = append(classCols[r], m)
	}
	for _, e := range edges {
		addMember(e.a)
		addMember(e.b)
	}
	srcVars := make([]map[scol]bool, len(schemas))
	for i := range srcVars {
		srcVars[i] = make(map[scol]bool)
	}
	for root, members := range classCols {
		for _, m := range members {
			srcVars[m.src][root] = true
		}
	}

	// GYO ear reduction: drop variables left in fewer than two live
	// sources, then remove any source whose effective variable set is
	// contained in another's (ties remove the higher index). An empty
	// fixpoint means the hypergraph is acyclic; survivors are the cyclic
	// core.
	alive := make([]bool, len(schemas))
	for i := range schemas {
		alive[i] = len(srcVars[i]) > 0
	}
	eff := make([]map[scol]bool, len(schemas))
	for {
		occ := make(map[scol]int)
		for i := range schemas {
			if !alive[i] {
				continue
			}
			for v := range srcVars[i] {
				occ[v]++
			}
		}
		changed := false
		for i := range schemas {
			if !alive[i] {
				continue
			}
			eff[i] = make(map[scol]bool)
			for v := range srcVars[i] {
				if occ[v] >= 2 {
					eff[i][v] = true
				}
			}
			if len(eff[i]) == 0 {
				alive[i] = false
				changed = true
			}
		}
		if changed {
			continue
		}
	ears:
		for i := range schemas {
			if !alive[i] {
				continue
			}
			for j := range schemas {
				if j == i || !alive[j] {
					continue
				}
				subset := true
				for v := range eff[i] {
					if !eff[j][v] {
						subset = false
						break
					}
				}
				if !subset {
					continue
				}
				if len(eff[i]) == len(eff[j]) && i < j {
					continue // equal sets: remove the higher index
				}
				alive[i] = false
				changed = true
				break ears
			}
		}
		if !changed {
			break
		}
	}
	var core []int
	inCore := make([]bool, len(schemas))
	for i := range schemas {
		if alive[i] {
			core = append(core, i)
			inCore[i] = true
		}
	}
	if len(core) < 3 {
		return nil
	}

	// Surviving variables: classes present in at least two core sources.
	// Assign ids in elimination order — most core occurrences first, ties by
	// first appearance scanning core sources and their columns in order.
	coreOcc := make(map[scol]int)
	for _, s := range core {
		for v := range srcVars[s] {
			coreOcc[v]++
		}
	}
	type varInfo struct {
		root  scol
		occ   int
		first scol
	}
	var vars []varInfo
	seen := make(map[scol]bool)
	for _, s := range core {
		// Deterministic first-appearance: scan this source's columns
		// ascending and claim unseen surviving classes.
		for col := 0; col < schemas[s].Arity(); col++ {
			root := find(scol{s, col})
			if _, isClass := classCols[root]; !isClass {
				continue
			}
			if coreOcc[root] < 2 || seen[root] {
				continue
			}
			seen[root] = true
			vars = append(vars, varInfo{root: root, occ: coreOcc[root], first: scol{s, col}})
		}
	}
	sort.SliceStable(vars, func(i, j int) bool { return vars[i].occ > vars[j].occ })
	varID := make(map[scol]int)
	for id, v := range vars {
		varID[v.root] = id
	}
	if len(vars) == 0 {
		return nil
	}

	plan := &wcojPlan{Core: core, NumVars: len(vars)}
	plan.Order = make([]int, len(vars))
	for i := range plan.Order {
		plan.Order[i] = i
	}
	for _, s := range core {
		ap := wcojAtomPlan{Src: s}
		for col := 0; col < schemas[s].Arity(); col++ {
			if id, ok := varID[find(scol{s, col})]; ok {
				ap.VarCols = append(ap.VarCols, ra.WCOJVarCol{Var: id, Col: col})
			}
		}
		plan.Atoms = append(plan.Atoms, ap)
	}
	// Consume exactly the conjuncts whose endpoints both sit in the core:
	// the keys the binary chain would have used joining core sources.
	for _, e := range edges {
		if inCore[e.a.src] && inCore[e.b.src] {
			plan.Conjuncts = append(plan.Conjuncts, e.ci)
		}
	}
	if len(plan.Conjuncts) < 3 {
		return nil // a cycle needs at least three in-core keys
	}
	return plan
}
