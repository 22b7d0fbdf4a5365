// Package withplus implements the semantics of the enhanced recursive WITH
// clause (Section 6): validation of the paper's restrictions, the
// XY-stratification check of Theorem 5.1 (via the datalog package), and
// compilation to a SQL/PSM procedure (Algorithm 1) executed on the engine.
package withplus

import (
	"fmt"
	"strings"

	"repro/internal/datalog"
	"repro/internal/sql"
)

// Check validates a WITH+ statement:
//
//  1. structural restrictions — a single recursive relation; union by
//     update used at most once and never mixed with union all; at least one
//     initialization branch and, for union by update, exactly one recursive
//     branch; computed-by definitions cycle-free and only referencing
//     earlier definitions;
//  2. the dependency graph has a single recursive cycle; and
//  3. the program's Datalog encoding is XY-stratified (Theorem 5.1).
func Check(w *sql.WithStmt) error {
	if w.RecName == "" {
		return fmt.Errorf("withplus: missing recursive relation name")
	}
	if len(w.Branches) == 0 {
		return fmt.Errorf("withplus: no subqueries")
	}
	ubuCount := 0
	for _, op := range w.Ops {
		if op == sql.WithUnionByUpdate {
			ubuCount++
		}
	}
	if ubuCount > 1 {
		return fmt.Errorf("withplus: union by update may appear only once (the update is not unique otherwise)")
	}
	recursive := make([]bool, len(w.Branches))
	firstRecursive := -1
	recursiveCount := 0
	for i, br := range w.Branches {
		recursive[i] = branchReferencesRec(br, w.RecName)
		if recursive[i] {
			recursiveCount++
			if firstRecursive < 0 {
				firstRecursive = i
			}
		}
		if !recursive[i] && firstRecursive >= 0 {
			return fmt.Errorf("withplus: initialization subqueries must precede recursive subqueries")
		}
	}
	if firstRecursive == 0 {
		return fmt.Errorf("withplus: the first subquery must initialize %s without referring to it", w.RecName)
	}
	if ubuCount == 1 {
		// The paper allows any number of initialization subqueries but only
		// one recursive subquery with union by update, joined by it.
		if recursiveCount != 1 {
			return fmt.Errorf("withplus: union by update takes exactly one recursive subquery, got %d", recursiveCount)
		}
		if w.Ops[firstRecursive-1] != sql.WithUnionByUpdate {
			return fmt.Errorf("withplus: union by update must introduce the recursive subquery")
		}
	}
	// computed-by blocks: each definition may reference only base tables,
	// the recursive relation, and earlier definitions of the same block.
	for bi, br := range w.Branches {
		defined := map[string]bool{}
		for _, def := range br.Computed {
			if defined[def.Name] {
				return fmt.Errorf("withplus: duplicate computed-by relation %q", def.Name)
			}
			for _, ref := range sql.ReferencedTables(def.Query) {
				if ref == def.Name {
					return fmt.Errorf("withplus: computed-by relation %q must be cycle free", def.Name)
				}
				if laterDef(br.Computed, def.Name, ref) {
					return fmt.Errorf("withplus: computed-by relation %q refers to later definition %q (forward references only)", def.Name, ref)
				}
			}
			defined[def.Name] = true
		}
		if len(br.Computed) > 0 && !recursive[bi] && branchComputedReferencesRec(br, w.RecName) {
			return fmt.Errorf("withplus: initialization subquery %d reaches %s through computed by", bi+1, w.RecName)
		}
	}
	prog := buildDatalog(w, recursive)
	g := datalog.BuildDependencyGraph(prog)
	if n := g.RecursiveCycleCount(); n > 1 {
		return fmt.Errorf("withplus: %d recursive cycles in the dependency graph; only one is allowed", n)
	}
	if err := datalog.IsXYStratified(prog); err != nil {
		return fmt.Errorf("withplus: not XY-stratified: %w", err)
	}
	return nil
}

func laterDef(defs []sql.ComputedDef, current, ref string) bool {
	seenCurrent := false
	for _, d := range defs {
		if d.Name == current {
			seenCurrent = true
			continue
		}
		if seenCurrent && d.Name == ref {
			return true
		}
	}
	return false
}

// branchReferencesRec reports whether a branch query (or any of its
// computed-by definitions) references the recursive relation.
func branchReferencesRec(br sql.WithBranch, rec string) bool {
	if refTables(br.Query, rec) {
		return true
	}
	return branchComputedReferencesRec(br, rec)
}

func branchComputedReferencesRec(br sql.WithBranch, rec string) bool {
	for _, def := range br.Computed {
		if refTables(def.Query, rec) {
			return true
		}
	}
	return false
}

func refTables(s *sql.SelectStmt, name string) bool {
	for _, r := range sql.ReferencedTables(s) {
		if r == name {
			return true
		}
	}
	return false
}

// FrontierReason decides, for one recursive branch, whether semi-naive
// evaluation may rewrite it to read the Δ frontier instead of the full
// recursive relation. It returns "" when the rewrite is sound, else the
// reason for falling back to full evaluation (surfaced in Trace.BranchModes).
//
// The rewrite is sound exactly for linear, monotone accumulation: every new
// row derivable from R_k but not from R_{k-1} must be derivable from some row
// of Δ_k = R_k − R_{k-1}. A single occurrence of R in a branch free of
// non-monotone constructs guarantees that — Q(R_{k-1} ∪ Δ_k) = Q(R_{k-1}) ∪
// Q(Δ_k) for linear Q, and Q(R_{k-1}) was already appended by the previous
// iteration. Nonlinear branches (two occurrences) can pair an old row with a
// new one, which Δ alone cannot produce; union-by-update branches rewrite
// the whole vector each step, so this rule never admits one (GuardReason
// decides them); negation, aggregation, and LIMIT are not monotone in R.
func FrontierReason(w *sql.WithStmt, i int) string {
	rec := w.RecName
	br := w.Branches[i]
	if i > 0 && w.Ops[i-1] == sql.WithUnionByUpdate {
		return "union by update rewrites the whole vector each iteration"
	}
	for _, def := range br.Computed {
		if sql.CountTableRefs(def.Query, rec) > 0 {
			return fmt.Sprintf("recursion reaches %s through computed-by relation %s", rec, def.Name)
		}
	}
	if n := sql.CountTableRefs(br.Query, rec); n != 1 {
		return fmt.Sprintf("nonlinear recursion (%d references to %s)", n, rec)
	}
	if br.Query.UsesNegation(rec) {
		return fmt.Sprintf("%s appears under negation", rec)
	}
	if br.Query.HasAggregatesDeep() {
		return "aggregation over the recursive branch is not frontier-distributive"
	}
	if br.Query.HasLimitDeep() {
		return "limit is not monotone"
	}
	return ""
}

// guardTestMode is set only by tests: mutateGuardSum plants the fault the
// bounded-exhaustive check must catch — the guard admits a sum as it does a
// min.
var guardTestMode string

const mutateGuardSum = "Δ admitted under a sum merge"

// GuardReason decides, for the recursive branch i of a union-by-update
// statement, whether its inner reference to the recursive relation R may
// read Δ_k — the rows the previous union-by-update changed, Δ_1 being the
// seed — while the outer reference and the merge still read all of R. It
// returns "" when the rewrite is sound, else the reason for full
// evaluation (surfaced in Trace.BranchModes).
//
// The rewrite is sound for a min/max-guarded relaxation:
//
//	select R.k, least(R.c, s.m), … from R, (select …, min(…) m … from R, …
//	  group by …) s where R.k = s.g
//
// keyed on R's one union-by-update key k, where every other column of R is
// least(R.c, s.m) over a column m of s computed as min(…) — or greatest(R.c,
// s.m) over max(…) — and s is one block that reads R exactly once, as a
// plain FROM item, with no HAVING. A key not in Δ_k offers the candidate it
// offered when its value last changed, which the guard already folded into
// every row it reaches, and min and max absorb repeats (NULL is their
// identity, ties keep the old value); so Δ evaluation writes the same rows
// as full evaluation at every iteration. A sum (PageRank) counts a repeat
// twice, an unguarded merge forgets the old value, a least over max can
// raise it, and a second inner reference pairs an old row with a new one:
// each keeps full evaluation. R's key must also be unique — checked at run
// time, as only the data can tell (Program.stepBranch).
func GuardReason(w *sql.WithStmt, i int) string {
	rec := w.RecName
	br := w.Branches[i]
	switch {
	case i == 0 || w.Ops[i-1] != sql.WithUnionByUpdate:
		return "not a union-by-update branch"
	case len(w.UBUCols) == 0:
		return "union by update without key columns replaces the whole relation"
	case len(w.UBUCols) > 1:
		return "union by update on more than one key column"
	case len(w.RecCols) == 0:
		return fmt.Sprintf("%s declares no column names", rec)
	case len(br.Computed) > 0:
		return "the branch has computed-by relations"
	}
	q := br.Query
	if q.Next != nil || q.Distinct || len(q.GroupBy) > 0 || q.HasAggregates() || len(q.OrderBy) > 0 || q.Limit >= 0 || len(q.From) != 2 {
		return fmt.Sprintf("the merge is not a select over %s and one subquery", rec)
	}
	outer, sub := q.From[0], q.From[1]
	if outer.Sub != nil {
		outer, sub = sub, outer
	}
	if outer.IsJoin() || outer.Sub != nil || outer.Name != rec || sub.Sub == nil || sub.Alias == "" {
		return fmt.Sprintf("the merge is not a select over %s and one subquery", rec)
	}
	r, a, key := outer.DisplayName(), sub.Alias, w.UBUCols[0]
	kpos := -1
	for c, name := range w.RecCols {
		if name == key {
			kpos = c
		}
	}
	eq, ok := q.Where.(*sql.Binary)
	if kpos < 0 || !ok || eq.Op != "=" {
		return fmt.Sprintf("the merge does not join %s and %s on %s.%s alone", r, a, r, key)
	}
	l, lok := eq.L.(*sql.ColRef)
	g, gok := eq.R.(*sql.ColRef)
	if lok && gok && l.Table == a {
		l, g = g, l
	}
	if !lok || !gok || l.Table != r || l.Name != key || g.Table != a {
		return fmt.Sprintf("the merge does not join %s and %s on %s.%s alone", r, a, r, key)
	}
	s := sub.Sub
	if n := sql.CountTableRefs(s, rec); n != 1 {
		return fmt.Sprintf("the inner subquery reads %s %d times", rec, n)
	}
	direct := false
	for _, f := range s.From {
		if f.IsJoin() && f.Kind != sql.JoinInner {
			return "the inner subquery has an outer join"
		}
		direct = direct || f.Sub == nil && !f.IsJoin() && f.Name == rec
	}
	switch {
	case !direct:
		return fmt.Sprintf("the inner subquery reads %s below its own FROM list", rec)
	case s.Next != nil || s.Distinct || len(s.GroupBy) == 0 || s.Having != nil || s.HasLimitDeep():
		return "the inner subquery is not one grouped block without HAVING or LIMIT"
	case s.UsesNegation(rec):
		return fmt.Sprintf("%s appears under negation", rec)
	}
	if len(q.Items) != len(w.RecCols) {
		return fmt.Sprintf("the merge yields %d columns for %d", len(q.Items), len(w.RecCols))
	}
	for c, it := range q.Items {
		col := w.RecCols[c]
		if c == kpos {
			if cr, ok := it.Expr.(*sql.ColRef); !ok || cr.Table != r || cr.Name != key {
				return fmt.Sprintf("the merge does not keep %s.%s as the key", r, key)
			}
			continue
		}
		if reason := guarded(it.Expr, r, col, a, s); reason != "" {
			return fmt.Sprintf("column %s: %s", col, reason)
		}
	}
	return ""
}

// guarded checks one merge column: least(r.col, a.m) over an m that the
// subquery s computes as min(…), or greatest over max(…).
func guarded(e sql.Expr, r, col, a string, s *sql.SelectStmt) string {
	f, ok := e.(*sql.FuncCall)
	want := ""
	if ok {
		want = map[string]string{"least": "min", "greatest": "max"}[strings.ToLower(f.Name)]
	}
	if want == "" || len(f.Args) != 2 {
		return fmt.Sprintf("not guarded by least(%s.%s, …) or greatest(%s.%s, …)", r, col, r, col)
	}
	old, okOld := f.Args[0].(*sql.ColRef)
	m, okM := f.Args[1].(*sql.ColRef)
	if !okOld || !okM || old.Table != r || old.Name != col || m.Table != a {
		return fmt.Sprintf("%s does not merge the old %s.%s with a column of %s", f.Name, r, col, a)
	}
	for _, it := range s.Items {
		if it.Alias != m.Name {
			continue
		}
		agg, ok := it.Expr.(*sql.FuncCall)
		name := ""
		if ok && agg.IsAggregate() {
			name = strings.ToLower(agg.Name)
		}
		if name == "sum" && guardTestMode == mutateGuardSum {
			return ""
		}
		if name != want {
			return fmt.Sprintf("%s.%s is not %s(…) under %s", a, m.Name, want, f.Name)
		}
		return ""
	}
	return fmt.Sprintf("%s.%s is not an aggregate of the inner subquery", a, m.Name)
}

// buildDatalog encodes the WITH+ statement as the XY Datalog program of
// Theorem 5.1's second proof step: per iteration, computed-by relations and
// the recursive branch results live at stage s(T), while references to the
// recursive relation read stage T; union-by-update adds the carry-forward
// rule with the negated source.
func buildDatalog(w *sql.WithStmt, recursive []bool) *datalog.Program {
	var rules []datalog.Rule
	edb := map[string]bool{}
	localNames := map[string]bool{w.RecName: true}
	for i, br := range w.Branches {
		if recursive[i] {
			for _, def := range br.Computed {
				localNames[def.Name] = true
			}
			localNames[qPred(i)] = true
		}
	}
	mkBody := func(q *sql.SelectStmt, stage func(name string) datalog.Term) []datalog.Literal {
		var body []datalog.Literal
		hasAgg := q.HasAggregates()
		for _, ref := range sql.ReferencedTables(q) {
			lit := datalog.Literal{Negated: q.UsesNegation(ref)}
			if localNames[ref] {
				lit.Atom = datalog.Atom{Pred: ref, Args: []datalog.Term{datalog.V("X"), stage(ref)}}
				lit.Aggregated = hasAgg
			} else {
				lit.Atom = datalog.Atom{Pred: ref, Args: []datalog.Term{datalog.V("X")}}
				edb[ref] = true
			}
			body = append(body, lit)
		}
		if len(body) == 0 {
			body = append(body, datalog.Literal{Atom: datalog.Atom{Pred: "__dual", Args: []datalog.Term{datalog.V("X")}}})
			edb["__dual"] = true
		}
		return body
	}
	recStage := func(name string) datalog.Term {
		if name == w.RecName {
			return datalog.T("T") // read the previous stage
		}
		return datalog.ST("T") // computed-by siblings live at the new stage
	}
	// anchor keeps Definition 9.3 satisfied for within-stage chains (the
	// paper's R_i(s(T)) :- R_j(s(T)) rules): every Y-rule is anchored at the
	// previous stage of the recursive relation, which is what the PSM loop
	// reads when the iteration starts.
	anchor := func(body []datalog.Literal) []datalog.Literal {
		for _, l := range body {
			if len(l.Atom.Args) == 2 && l.Atom.Args[1].Kind == datalog.TermTemporalVar {
				return body
			}
		}
		return append(body, datalog.Literal{
			Atom: datalog.Atom{Pred: w.RecName, Args: []datalog.Term{datalog.V("X"), datalog.T("T")}},
		})
	}
	for i, br := range w.Branches {
		if !recursive[i] {
			// Initialization: an X-rule seeding the recursive relation.
			rules = append(rules, datalog.Rule{
				Head: datalog.Atom{Pred: w.RecName, Args: []datalog.Term{datalog.V("X"), datalog.T("T")}},
				Body: mkBody(br.Query, func(string) datalog.Term { return datalog.T("T") }),
			})
			continue
		}
		for _, def := range br.Computed {
			rules = append(rules, datalog.Rule{
				Head: datalog.Atom{Pred: def.Name, Args: []datalog.Term{datalog.V("X"), datalog.ST("T")}},
				Body: anchor(mkBody(def.Query, recStage)),
			})
		}
		// The branch result Q_i at stage s(T).
		rules = append(rules, datalog.Rule{
			Head: datalog.Atom{Pred: qPred(i), Args: []datalog.Term{datalog.V("X"), datalog.ST("T")}},
			Body: anchor(mkBody(br.Query, recStage)),
		})
		if w.HasUBU() {
			// R(s(T)) :- Q(s(T));  R(s(T)) :- R(T), ¬Q(s(T)).
			rules = append(rules,
				datalog.Rule{
					Head: datalog.Atom{Pred: w.RecName, Args: []datalog.Term{datalog.V("X"), datalog.ST("T")}},
					Body: anchor([]datalog.Literal{{Atom: datalog.Atom{Pred: qPred(i), Args: []datalog.Term{datalog.V("X"), datalog.ST("T")}}}}),
				},
				datalog.Rule{
					Head: datalog.Atom{Pred: w.RecName, Args: []datalog.Term{datalog.V("X"), datalog.ST("T")}},
					Body: []datalog.Literal{
						{Atom: datalog.Atom{Pred: w.RecName, Args: []datalog.Term{datalog.V("X"), datalog.T("T")}}},
						{Atom: datalog.Atom{Pred: qPred(i), Args: []datalog.Term{datalog.V("X"), datalog.ST("T")}}, Negated: true},
					},
				})
		} else {
			// Accumulation: R(s(T)) :- Q(s(T)); R(s(T)) :- R(T).
			rules = append(rules,
				datalog.Rule{
					Head: datalog.Atom{Pred: w.RecName, Args: []datalog.Term{datalog.V("X"), datalog.ST("T")}},
					Body: anchor([]datalog.Literal{{Atom: datalog.Atom{Pred: qPred(i), Args: []datalog.Term{datalog.V("X"), datalog.ST("T")}}}}),
				},
				datalog.Rule{
					Head: datalog.Atom{Pred: w.RecName, Args: []datalog.Term{datalog.V("X"), datalog.ST("T")}},
					Body: []datalog.Literal{{Atom: datalog.Atom{Pred: w.RecName, Args: []datalog.Term{datalog.V("X"), datalog.T("T")}}}},
				})
		}
	}
	names := make([]string, 0, len(edb))
	for n := range edb {
		names = append(names, n)
	}
	return datalog.NewProgram(rules, names...)
}

func qPred(i int) string { return fmt.Sprintf("__q%d", i) }
