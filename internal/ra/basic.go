// Package ra implements the relational algebra: the six basic operations
// (selection, projection, union, difference, Cartesian product, rename),
// θ-joins with several physical algorithms, group-by & aggregation, and the
// paper's four graph operations — MM-join, MV-join, anti-join, and
// union-by-update — each with the alternative SQL-level implementations the
// paper benchmarks (Section 7.1).
//
// Operators are eager: they take materialized relations and produce new
// materialized relations, mirroring the temp-table-per-step execution of the
// SQL/PSM procedures the WITH+ compiler emits.
//
// # Aliasing contract
//
// Operator inputs are immutable snapshots (catalog materializations clone at
// the storage boundary — Table.InsertRelation and View materialization copy
// tuples in and out — and no operator mutates a tuple it did not allocate).
// Operators may therefore SHARE surviving input tuples in their outputs
// instead of cloning them — Select, Limit, Distinct and the vectorized
// kernels do — but must never share the Tuples slice itself (Rename
// excepted: ρ is explicitly a shallow relabeling view): the output's row
// slice is always freshly allocated, so reordering or appending to a result
// cannot disturb its source. Operators that
// compute new values (Project, GroupBy, joins) allocate fresh tuples as
// before.
package ra

import (
	"sort"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// Expr evaluates an expression against one tuple.
type Expr func(relation.Tuple) (value.Value, error)

// Pred evaluates a predicate against one tuple.
type Pred func(relation.Tuple) (bool, error)

// ColExpr returns an Expr reading column i.
func ColExpr(i int) Expr {
	return func(t relation.Tuple) (value.Value, error) { return t[i], nil }
}

// ConstExpr returns an Expr producing v.
func ConstExpr(v value.Value) Expr {
	return func(relation.Tuple) (value.Value, error) { return v, nil }
}

// Select returns σ_pred(r). Surviving tuples are shared with r, not cloned:
// inputs are immutable snapshots (see the aliasing contract in the package
// comment), so selection only costs the predicate and the output row slice.
func Select(r *relation.Relation, pred Pred) (*relation.Relation, error) {
	out := relation.New(r.Sch)
	for _, t := range r.Tuples {
		ok, err := pred(t)
		if err != nil {
			return nil, err
		}
		if ok {
			out.Append(t)
		}
	}
	return out, nil
}

// ProjectCols returns Π over the given column indexes.
func ProjectCols(r *relation.Relation, cols []int) *relation.Relation {
	out := relation.NewWithCap(r.Sch.Project(cols), r.Len())
	for _, t := range r.Tuples {
		nt := make(relation.Tuple, len(cols))
		for i, c := range cols {
			nt[i] = t[c]
		}
		out.Tuples = append(out.Tuples, nt)
	}
	return out
}

// OutCol names one computed output column of a generalized projection.
type OutCol struct {
	Col  schema.Column
	Expr Expr
}

// Project returns a generalized projection computing each output column's
// expression per tuple (SQL's select list).
func Project(r *relation.Relation, outs []OutCol) (*relation.Relation, error) {
	sch := make(schema.Schema, len(outs))
	for i, o := range outs {
		sch[i] = o.Col
	}
	out := relation.NewWithCap(sch, r.Len())
	for _, t := range r.Tuples {
		nt := make(relation.Tuple, len(outs))
		for i, o := range outs {
			v, err := o.Expr(t)
			if err != nil {
				return nil, err
			}
			nt[i] = v
		}
		out.Tuples = append(out.Tuples, nt)
	}
	return out, nil
}

// Rename returns ρ: a shallow re-labeling of the relation with a new
// qualifier and optionally new column names (nil keeps the old names).
func Rename(r *relation.Relation, qualifier string, names []string) *relation.Relation {
	sch := r.Sch.Qualify(qualifier)
	if names != nil {
		sch = sch.RenameCols(names)
	}
	return &relation.Relation{Sch: sch, Tuples: r.Tuples}
}

// UnionAll returns r ⊎ s as a bag (SQL UNION ALL).
func UnionAll(r, s *relation.Relation) *relation.Relation {
	out := relation.NewWithCap(r.Sch, r.Len()+s.Len())
	for _, t := range r.Tuples {
		out.Tuples = append(out.Tuples, t.Clone())
	}
	for _, t := range s.Tuples {
		out.Tuples = append(out.Tuples, t.Clone())
	}
	return out
}

// Distinct removes duplicate tuples (SQL DISTINCT), keeping each first
// occurrence in input order. Kept tuples are shared with r per the aliasing
// contract. The hash table grows with the output, not the input — a
// recursive step's input is mostly duplicates: it maps a hash to the first
// kept tuple carrying it, and later kept tuples with the same hash chain
// through next.
func Distinct(r *relation.Relation) *relation.Relation {
	out := relation.New(r.Sch)
	first := make(map[uint64]int32)
	var next []int32 // next[i]: the kept tuple chained after out.Tuples[i], -1 = none
	for _, t := range r.Tuples {
		h := t.Hash()
		head, ok := first[h]
		if !ok {
			head = -1
		}
		i := head
		for i >= 0 && !out.Tuples[i].Equal(t) {
			i = next[i]
		}
		if i >= 0 {
			continue
		}
		first[h] = int32(len(out.Tuples))
		next = append(next, head)
		out.Tuples = append(out.Tuples, t)
	}
	return out
}

// Union returns r ∪ s with duplicates removed (SQL UNION).
func Union(r, s *relation.Relation) *relation.Relation {
	return Distinct(UnionAll(r, s))
}

// Difference returns the set difference r − s.
func Difference(r, s *relation.Relation) *relation.Relation {
	all := make([]int, r.Sch.Arity())
	for i := range all {
		all[i] = i
	}
	idx := relation.BuildHashIndex(s, allCols(s))
	out := relation.New(r.Sch)
	for _, t := range r.Tuples {
		if !idx.Contains(t, all) {
			out.Append(t.Clone())
		}
	}
	return out
}

// Intersect returns r ∩ s (distinct tuples present in both).
func Intersect(r, s *relation.Relation) *relation.Relation {
	all := allCols(r)
	idx := relation.BuildHashIndex(s, allCols(s))
	out := relation.New(r.Sch)
	seen := make(map[uint64][]relation.Tuple)
	for _, t := range r.Tuples {
		if !idx.Contains(t, all) {
			continue
		}
		h := t.Hash()
		dup := false
		for _, prev := range seen[h] {
			if prev.Equal(t) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		c := t.Clone()
		seen[h] = append(seen[h], c)
		out.Tuples = append(out.Tuples, c)
	}
	return out
}

// Product returns the Cartesian product r × s.
func Product(r, s *relation.Relation) *relation.Relation {
	out := relation.NewWithCap(r.Sch.Concat(s.Sch), r.Len()*s.Len())
	for _, rt := range r.Tuples {
		for _, st := range s.Tuples {
			nt := make(relation.Tuple, 0, len(rt)+len(st))
			nt = append(nt, rt...)
			nt = append(nt, st...)
			out.Tuples = append(out.Tuples, nt)
		}
	}
	return out
}

// Limit returns the first n tuples of r, shared per the aliasing contract.
func Limit(r *relation.Relation, n int) *relation.Relation {
	if n > r.Len() {
		n = r.Len()
	}
	out := relation.NewWithCap(r.Sch, n)
	out.Tuples = append(out.Tuples, r.Tuples[:n]...)
	return out
}

// OrderBy sorts a copy of r by the given columns; desc[i] flips column i.
func OrderBy(r *relation.Relation, cols []int, desc []bool) *relation.Relation {
	out := r.Clone()
	less := func(a, b relation.Tuple) bool {
		for i, c := range cols {
			cmp := a[c].Compare(b[c])
			if len(desc) > i && desc[i] {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false
	}
	sort.SliceStable(out.Tuples, func(i, j int) bool {
		return less(out.Tuples[i], out.Tuples[j])
	})
	return out
}

func allCols(r *relation.Relation) []int {
	cols := make([]int, r.Sch.Arity())
	for i := range cols {
		cols[i] = i
	}
	return cols
}
