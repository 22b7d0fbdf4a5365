package withplus

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/psm"
	"repro/internal/ra"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/sql"
)

// Trace records per-iteration progress of a WITH+ execution, used by the
// Exp-C figures (running time and accumulated tuples per iteration).
type Trace struct {
	Iterations int
	IterTimes  []time.Duration
	IterRows   []int
	// CycleDetected reports that a union/union-all iteration re-derived
	// tuples already in the recursive relation — the condition Oracle's
	// CYCLE clause warns about (Table 1, category E). The semi-naive
	// evaluation drops such tuples, so the recursion still terminates.
	CycleDetected bool
	// DeltaEnabled reports that at least one recursive branch was rewritten
	// to read the Δ frontier working table instead of the full recursive
	// relation (delta-driven semi-naive evaluation).
	DeltaEnabled bool
	// BranchModes records, per recursive branch, whether it runs against
	// the Δ frontier or falls back to full evaluation — and why (e.g.
	// "Q2: Δ frontier", "Q3: full evaluation (nonlinear recursion ...)").
	BranchModes []string
	// DeltaRows is aligned with IterRows: the number of rows each branch
	// evaluation actually changed (appended or updated) in that step.
	DeltaRows []int
}

// Program is a checked, compiled WITH+ statement bound to an engine.
type Program struct {
	With *sql.WithStmt
	Proc *psm.Proc

	eng       *engine.Engine
	exec      *sql.Exec
	trace     *Trace
	changed   bool // did the last iteration change R?
	recursive []bool

	// Delta-driven semi-naive state. branchDelta marks the recursive
	// branches statically proven safe to read the Δ frontier (see
	// FrontierReason); when any branch qualifies, deltaTab names the Δ
	// working table refreshed once per iteration from pending — the union
	// of the changed rows every branch produced this iteration. recSet is
	// the seeded distinct-set over R that makes the append-side Difference
	// O(Δ) instead of O(|R|) per iteration; deltaSums accumulates per-branch
	// changed rows for the EXPLAIN ANALYZE plan annotation.
	branchDelta []bool
	anyDelta    bool
	deltaTab    string
	recSet      *ra.TupleSet
	pending     *relation.Relation
	deltaSums   []int64

	// Guarded Δ of a union-by-update branch (GuardReason): guardQuery is the
	// branch with its inner reference to R renamed to deltaTab — aliased
	// back to R's name — which each step binds to ubuDelta, the rows the
	// previous union-by-update changed (the seed before the first step).
	// guardFull is set at run time when R's key is not unique; the branch
	// then reads all of R. merge is the branch's keyed-merge target
	// (sql.RunUBU), whose key index survives the iterations.
	guardQuery *sql.SelectStmt
	ubuDelta   *relation.Relation
	guardFull  bool
	merge      *sql.UBUMerge

	// afterStep, set only by tests, sees R and the rows each branch step
	// changed, so a differential can compare every iteration.
	afterStep func(r, delta *relation.Relation)

	// analyze mode (RunAnalyzed): every compiled SELECT runs through
	// sql.Exec.RunAnalyzed and its annotated plan is merged into the
	// per-section accumulator, collapsing the loop's iterations into one
	// tree per subquery.
	analyze   bool
	plans     map[string]*obs.PlanNode
	planOrder []string
}

// Prepare parses, checks (Theorem 5.1), and compiles src into a PSM
// procedure over eng.
func Prepare(eng *engine.Engine, src string) (*Program, error) {
	w, err := sql.ParseWith(src)
	if err != nil {
		return nil, err
	}
	return PrepareStmt(eng, w)
}

// PrepareStmt checks and compiles an already-parsed statement.
func PrepareStmt(eng *engine.Engine, w *sql.WithStmt) (*Program, error) {
	if err := Check(w); err != nil {
		return nil, err
	}
	if eng.Cat.Has(w.RecName) {
		return nil, fmt.Errorf("withplus: recursive relation %q collides with an existing table", w.RecName)
	}
	p := &Program{
		With:  w,
		eng:   eng,
		exec:  sql.NewExec(eng),
		trace: &Trace{},
	}
	p.recursive = make([]bool, len(w.Branches))
	for i, br := range w.Branches {
		p.recursive[i] = branchReferencesRec(br, w.RecName)
	}
	p.planFrontier()
	p.Proc = p.buildProc()
	return p, nil
}

// planFrontier decides, per recursive branch, whether semi-naive evaluation
// may read the Δ frontier (FrontierReason) and records the decision — and
// the fallback reason when not — in Trace.BranchModes.
func (p *Program) planFrontier() {
	w := p.With
	p.branchDelta = make([]bool, len(w.Branches))
	p.deltaSums = make([]int64, len(w.Branches))
	deltaTab := w.RecName + "__delta"
	for i := range w.Branches {
		if !p.recursive[i] {
			continue
		}
		ubu := w.Ops[i-1] == sql.WithUnionByUpdate
		reason := ""
		if ubu {
			reason = GuardReason(w, i)
		} else {
			reason = FrontierReason(w, i)
		}
		switch {
		case reason != "":
			p.trace.BranchModes = append(p.trace.BranchModes,
				fmt.Sprintf("Q%d: full evaluation (%s)", i+1, reason))
		case p.eng.DisableDelta:
			p.trace.BranchModes = append(p.trace.BranchModes,
				fmt.Sprintf("Q%d: full evaluation (delta evaluation disabled)", i+1))
		case p.eng.Cat.Has(deltaTab):
			p.trace.BranchModes = append(p.trace.BranchModes,
				fmt.Sprintf("Q%d: full evaluation (Δ working table %s collides with an existing table)", i+1, deltaTab))
		case ubu:
			p.guardQuery = renameInner(w.Branches[i].Query, w.RecName, deltaTab)
			p.trace.BranchModes = append(p.trace.BranchModes,
				fmt.Sprintf("Q%d: guarded Δ (the inner %s reads the rows the last update changed)", i+1, w.RecName))
		default:
			p.branchDelta[i] = true
			p.anyDelta = true
			p.trace.BranchModes = append(p.trace.BranchModes,
				fmt.Sprintf("Q%d: Δ frontier", i+1))
		}
	}
	if p.anyDelta || p.guardQuery != nil {
		p.deltaTab = deltaTab
	}
	p.trace.DeltaEnabled = p.anyDelta || p.guardQuery != nil
}

// renameInner returns q with the one FROM reference to rec inside its
// subquery renamed to name and aliased as before, so the reference reads
// whatever name binds while its columns still resolve under rec's alias.
// The statement is copied along the path; q itself is left as it was.
func renameInner(q *sql.SelectStmt, rec, name string) *sql.SelectStmt {
	out := *q
	out.From = append([]*sql.TableRef(nil), q.From...)
	for i, f := range out.From {
		if f.Sub == nil {
			continue
		}
		sub := *f.Sub
		sub.From = append([]*sql.TableRef(nil), f.Sub.From...)
		for k, g := range sub.From {
			if g.Sub == nil && !g.IsJoin() && g.Name == rec {
				ref := *g
				ref.Name, ref.Alias = name, g.DisplayName()
				sub.From[k] = &ref
			}
		}
		ref := *f
		ref.Sub = &sub
		out.From[i] = &ref
	}
	return &out
}

// Run calls the compiled procedure and evaluates the final query.
func (p *Program) Run() (*relation.Relation, *Trace, error) {
	if err := p.Proc.Call(p.eng); err != nil {
		return nil, nil, err
	}
	out, err := p.runQuery(p.With.Final, "final query")
	if err != nil {
		return nil, nil, err
	}
	return out, p.trace, nil
}

// runQuery evaluates one compiled SELECT, merging its annotated plan into
// the named section when the program runs in analyze mode. Sections are
// stable across iterations (one per subquery), so a 15-iteration loop
// renders as one tree with loops=15 rather than 15 trees.
func (p *Program) runQuery(s *sql.SelectStmt, section string) (*relation.Relation, error) {
	r, _, err := p.runInto(s, section, nil)
	return r, err
}

// runInto is runQuery for a branch whose rows go into the semi-naive set
// (sql.Exec.RunFrontier): fused is non-nil when the frontier kernel ran, and
// r then holds only the rows new to set, already added to it.
func (p *Program) runInto(s *sql.SelectStmt, section string, set *ra.TupleSet) (r *relation.Relation, fused *ra.FrontierStats, err error) {
	r, plan, fused, err := p.exec.RunFrontier(s, set, p.analyze)
	if err != nil {
		return nil, nil, err
	}
	p.addPlan(section, plan)
	return r, fused, nil
}

// addPlan merges an analyzed statement's plan into its section; plan is nil
// outside analyze mode.
func (p *Program) addPlan(section string, plan *obs.PlanNode) {
	if plan == nil {
		return
	}
	if cur, ok := p.plans[section]; ok {
		cur.Merge(plan)
	} else {
		p.plans[section] = plan
		p.planOrder = append(p.planOrder, section)
	}
}

// AnalysisSection is one subquery's merged plan tree within an Analysis.
type AnalysisSection struct {
	Title string
	Plan  *obs.PlanNode
}

// Analysis is the EXPLAIN ANALYZE result of a WITH+ statement: the compiled
// procedure with per-statement execution stats, the per-iteration trace, and
// one merged plan tree per subquery (initialization, computed-by, recursive,
// and final), with Loops counting how many iterations ran each tree.
type Analysis struct {
	Proc     *psm.Proc
	Stats    *psm.ProcStats
	Trace    *Trace
	Sections []AnalysisSection
	Dur      time.Duration
}

// Render draws the full EXPLAIN ANALYZE report: the annotated procedure
// followed by each subquery's plan tree.
func (a *Analysis) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXPLAIN ANALYZE (total time %s)\n", a.Dur.Round(time.Microsecond))
	b.WriteString(a.Proc.StringWithStats(a.Stats))
	b.WriteString("\n")
	for _, s := range a.Sections {
		fmt.Fprintf(&b, "\n%s:\n%s", s.Title, s.Plan.Render())
	}
	return b.String()
}

// RunAnalyzed executes the program with full instrumentation: every PSM
// statement is timed, every compiled SELECT builds an annotated plan tree,
// and per-iteration trees are merged per subquery. The result relation is
// returned together with the analysis.
func (p *Program) RunAnalyzed() (*relation.Relation, *Analysis, error) {
	p.analyze = true
	p.plans = map[string]*obs.PlanNode{}
	p.planOrder = nil
	defer func() { p.analyze = false }()
	t0 := time.Now()
	stats, err := p.Proc.CallWithStats(p.eng)
	if err != nil {
		return nil, nil, err
	}
	out, err := p.runQuery(p.With.Final, "final query")
	if err != nil {
		return nil, nil, err
	}
	for i := range p.With.Branches {
		if !p.recursive[i] {
			continue
		}
		if plan, ok := p.plans[fmt.Sprintf("recursive subquery Q%d", i+1)]; ok {
			plan.Extra = fmt.Sprintf("delta_rows=%d", p.deltaSums[i])
		}
	}
	a := &Analysis{Proc: p.Proc, Stats: stats, Trace: p.trace, Dur: time.Since(t0)}
	for _, k := range p.planOrder {
		a.Sections = append(a.Sections, AnalysisSection{Title: k, Plan: p.plans[k]})
	}
	return out, a, nil
}

// Cleanup drops the temporary tables the program created so the engine can
// run another statement with the same relation names.
func (p *Program) Cleanup() {
	for _, name := range p.eng.Cat.TempNames() {
		if name == p.With.RecName || name == p.deltaTab || isComputedName(p.With, name) {
			_ = p.eng.Cat.Drop(name)
		}
	}
}

func isComputedName(w *sql.WithStmt, name string) bool {
	for _, br := range w.Branches {
		for _, def := range br.Computed {
			if def.Name == name {
				return true
			}
		}
	}
	return false
}

// buildProc emits the Algorithm 1 shape: initialize R from the
// non-recursive subqueries, then loop { refresh computed-by tables;
// evaluate recursive subqueries; union / union-by-update into R; exit when
// no subquery changed R }.
func (p *Program) buildProc() *psm.Proc {
	w := p.With
	var steps []psm.Stmt

	// Initialization: evaluate init branches (with their computed-by
	// tables) and create R from the union of their results.
	steps = append(steps, &psm.Do{
		Label: fmt.Sprintf("initialize %s from %d initialization subquery(ies)", w.RecName, countFalse(p.recursive)),
		Fn:    p.initRec,
	})

	var body []psm.Stmt
	body = append(body, &psm.Do{
		Label: "begin iteration (reset change flags)",
		Fn: func(ctx *psm.Ctx) error {
			p.changed = false
			return nil
		},
	})
	for i, br := range w.Branches {
		if !p.recursive[i] {
			continue
		}
		for _, def := range br.Computed {
			def := def
			body = append(body, &psm.InsertSelect{
				Table:    def.Name,
				Truncate: true,
				Label:    fmt.Sprintf("computed by %s", def.Name),
				Query: func(ctx *psm.Ctx) (*relation.Relation, error) {
					return p.evalComputed(def)
				},
			})
		}
		i := i
		br := br
		marker := ""
		if p.branchDelta[i] {
			marker = " (Δ frontier)"
		}
		body = append(body, &psm.Do{
			Label: fmt.Sprintf("evaluate recursive subquery Q%d%s and %s into %s", i+1, marker, w.Ops[i-1], w.RecName),
			Fn: func(ctx *psm.Ctx) error {
				return p.stepBranch(ctx, i, br)
			},
		})
	}
	if p.anyDelta {
		// Advance the frontier: Δ becomes exactly the rows this iteration
		// added to R, so next iteration's rewritten branches probe only the
		// new work. Runs before the exit test — when nothing changed the
		// (empty) refresh is the loop's last write.
		body = append(body, &psm.InsertSelect{
			Table:    p.deltaTab,
			Truncate: true,
			Label:    fmt.Sprintf("new rows of %s this iteration (advance Δ frontier)", w.RecName),
			Query: func(ctx *psm.Ctx) (*relation.Relation, error) {
				d := p.pending
				p.pending = nil
				if d == nil {
					cur, err := p.eng.Rel(w.RecName)
					if err != nil {
						return nil, err
					}
					d = &relation.Relation{Sch: cur.Sch}
				}
				return d, nil
			},
		})
	}
	body = append(body, &psm.ExitIf{
		Label: "no recursive subquery changed " + w.RecName,
		Cond: func(ctx *psm.Ctx) (bool, error) {
			return !p.changed, nil
		},
	})
	steps = append(steps, &psm.Loop{Body: body, MaxIter: w.MaxRec})
	return &psm.Proc{Name: "F_" + w.RecName, Steps: steps}
}

func countFalse(bs []bool) int {
	n := 0
	for _, b := range bs {
		if !b {
			n++
		}
	}
	return n
}

// initRec evaluates the initialization branches and creates the recursive
// temp table with the declared column names.
func (p *Program) initRec(ctx *psm.Ctx) error {
	w := p.With
	var acc *relation.Relation
	for i, br := range w.Branches {
		if p.recursive[i] {
			continue
		}
		for _, def := range br.Computed {
			r, err := p.evalComputed(def)
			if err != nil {
				return err
			}
			if _, err := p.eng.EnsureTemp(def.Name, r.Sch); err != nil {
				return err
			}
			if err := p.eng.StoreInto(def.Name, r); err != nil {
				return err
			}
		}
		r, err := p.runQuery(br.Query, fmt.Sprintf("initialization subquery Q%d", i+1))
		if err != nil {
			return err
		}
		if acc == nil {
			acc = r
			continue
		}
		if !acc.Sch.UnionCompatible(r.Sch) {
			return fmt.Errorf("withplus: initialization subqueries disagree on arity (%d vs %d)", acc.Sch.Arity(), r.Sch.Arity())
		}
		// The branches' rows are concatenated, not cloned: StoreInto copies
		// what the table keeps, and nothing writes into them.
		acc = &relation.Relation{Sch: acc.Sch, Tuples: slices.Concat(acc.Tuples, r.Tuples)}
	}
	if acc == nil {
		return fmt.Errorf("withplus: no initialization subquery")
	}
	sch := acc.Sch
	if len(w.RecCols) > 0 {
		if len(w.RecCols) != sch.Arity() {
			return fmt.Errorf("withplus: %s declares %d columns but initialization yields %d", w.RecName, len(w.RecCols), sch.Arity())
		}
		sch = make(schema.Schema, len(w.RecCols))
		for i, name := range w.RecCols {
			sch[i] = schema.Column{Name: name, Type: acc.Sch[i].Type}
		}
	}
	acc = &relation.Relation{Sch: sch, Tuples: acc.Tuples}
	ctx.SetRows(int64(acc.Len()))
	if _, err := p.eng.EnsureTemp(w.RecName, sch); err != nil {
		return err
	}
	if err := p.eng.StoreInto(w.RecName, acc); err != nil {
		return err
	}
	// Seed the semi-naive machinery: the distinct-set over R makes the
	// append-side Difference O(Δ), and Δ0 = R0 so the first iteration's
	// rewritten branches see every initial row.
	p.recSet = nil
	p.pending = nil
	for i := range p.deltaSums {
		p.deltaSums[i] = 0
	}
	if !p.eng.DisableDelta && p.hasUnionRecursive() {
		p.recSet = ra.NewTupleSet(acc)
	}
	if p.anyDelta {
		if _, err := p.eng.EnsureTemp(p.deltaTab, sch); err != nil {
			return err
		}
		if err := p.eng.StoreInto(p.deltaTab, acc); err != nil {
			return err
		}
	}
	// The union-by-update branch: Δ_1 is the seed, and both the guard and
	// the keyed merge key R on its one union-by-update column, through one
	// key index over R's rows.
	p.merge, p.ubuDelta, p.guardFull = nil, acc, false
	if len(w.UBUCols) == 1 {
		key := sch.IndexOf(w.UBUCols[0])
		if key < 0 {
			return fmt.Errorf("withplus: union by update key %q is not a column of %s", w.UBUCols[0], w.RecName)
		}
		cur, err := p.eng.Rel(w.RecName)
		if err != nil {
			return err
		}
		p.merge = &sql.UBUMerge{Table: w.RecName, Key: key, Index: ra.NewKeyIndex(cur, key)}
		p.guardFull = p.guardQuery != nil && !p.merge.Index.Unique()
	}
	return nil
}

// hasUnionRecursive reports whether any recursive branch accumulates by
// union / union all (the only ops the seeded distinct-set accelerates).
func (p *Program) hasUnionRecursive() bool {
	for i := range p.With.Branches {
		if p.recursive[i] && p.With.Ops[i-1] != sql.WithUnionByUpdate {
			return true
		}
	}
	return false
}

// evalComputed evaluates one computed-by definition, applying its declared
// column names.
func (p *Program) evalComputed(def sql.ComputedDef) (*relation.Relation, error) {
	r, err := p.runQuery(def.Query, "computed by "+def.Name)
	if err != nil {
		return nil, err
	}
	if len(def.Cols) > 0 {
		if len(def.Cols) != r.Sch.Arity() {
			return nil, fmt.Errorf("withplus: %s declares %d columns but its query yields %d", def.Name, len(def.Cols), r.Sch.Arity())
		}
		sch := make(schema.Schema, len(def.Cols))
		for i, name := range def.Cols {
			sch[i] = schema.Column{Name: name, Type: r.Sch[i].Type}
		}
		r = &relation.Relation{Sch: sch, Tuples: r.Tuples}
	}
	if !p.eng.Cat.Has(def.Name) {
		if _, err := p.eng.EnsureTemp(def.Name, r.Sch); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// stepBranch evaluates one recursive subquery and folds it into R by the
// statement's set operation, updating the change flag and trace. Each
// branch starts with a governor checkpoint, so a cancelled or over-budget
// run stops at a statement boundary even when the loop body is long.
func (p *Program) stepBranch(ctx *psm.Ctx, i int, br sql.WithBranch) error {
	w := p.With
	if err := p.eng.Gov().Check(); err != nil {
		return err
	}
	start := time.Now()
	var delta *relation.Relation
	var err error
	if w.Ops[i-1] == sql.WithUnionByUpdate {
		delta, err = p.stepUBU(ctx, i, br)
	} else {
		delta, err = p.stepUnion(ctx, i, br)
	}
	if err != nil {
		return err
	}
	deltaRows := delta.Len()
	if deltaRows > 0 {
		p.changed = true
	}
	cur, err := p.eng.Rel(w.RecName)
	if err != nil {
		return err
	}
	p.trace.Iterations++
	p.trace.IterTimes = append(p.trace.IterTimes, time.Since(start))
	p.trace.IterRows = append(p.trace.IterRows, cur.Len())
	p.trace.DeltaRows = append(p.trace.DeltaRows, deltaRows)
	p.deltaSums[i] += int64(deltaRows)
	if p.afterStep != nil {
		p.afterStep(cur, delta)
	}
	return nil
}

// stepUBU evaluates the union-by-update branch and merges its rows into R —
// through the keyed merge when the branch's plan takes it (sql.RunUBU), else
// by the engine's union-by-update — and returns the rows of R it changed.
// Under guarded Δ the branch's inner reference reads the rows the previous
// step changed.
func (p *Program) stepUBU(ctx *psm.Ctx, i int, br sql.WithBranch) (*relation.Relation, error) {
	w := p.With
	query := br.Query
	if p.guardQuery != nil && !p.guardFull {
		query = p.guardQuery
		p.exec.Override[p.deltaTab] = p.ubuDelta
		p.exec.Delta[p.deltaTab] = true
		defer func() {
			delete(p.exec.Override, p.deltaTab)
			delete(p.exec.Delta, p.deltaTab)
		}()
	}
	q, plan, merged, err := p.exec.RunUBU(query, p.merge, p.analyze)
	if err != nil {
		return nil, err
	}
	p.addPlan(fmt.Sprintf("recursive subquery Q%d", i+1), plan)
	if merged != nil {
		// The statement's rows, as the join the merge replaced counts them.
		ctx.SetRows(int64(merged.Rows))
		p.ubuDelta = merged.Delta
		return merged.Delta, nil
	}
	ctx.SetRows(int64(q.Len()))
	before, err := p.eng.Rel(w.RecName)
	if err != nil {
		return nil, err
	}
	// The engine's UBU reports the changed-row delta directly — no cloned
	// previous image, no full-vector compare.
	var delta *relation.Relation
	if len(w.UBUCols) == 0 {
		// Attribute-less form: replace R wholesale (DROP/ALTER).
		delta, err = p.eng.UnionByUpdate(w.RecName, retag(q, before.Sch), nil, ra.UBUReplace)
	} else {
		keys := make([]int, len(w.UBUCols))
		for ki, c := range w.UBUCols {
			idx := before.Sch.IndexOf(c)
			if idx < 0 {
				return nil, fmt.Errorf("withplus: union by update key %q is not a column of %s", c, w.RecName)
			}
			keys[ki] = idx
		}
		delta, err = p.eng.UnionByUpdate(w.RecName, retag(q, before.Sch), keys, ra.UBUFullOuter)
	}
	if err != nil {
		return nil, err
	}
	p.ubuDelta = delta
	return delta, nil
}

// stepUnion evaluates a union or union all branch and appends its new rows
// to R, returning them. The with+ implementation is semi-naive (Exp-C):
// only rows not already in R are appended. The seeded distinct-set
// remembers R across iterations, so the Difference costs O(|q|) probes, not
// O(|R|) rebuild work, and it collapses q's duplicates itself. The frontier
// kernel did both already when it ran. A cycle is a row of q that was in R
// before this step; duplicates within q are not one.
func (p *Program) stepUnion(ctx *psm.Ctx, i int, br sql.WithBranch) (*relation.Relation, error) {
	w := p.With
	if p.branchDelta[i] {
		// Frontier rewrite: bind the recursive relation's name to the Δ
		// working table for this evaluation only, so every scan of R in the
		// branch reads last iteration's new rows instead of all of R.
		d, err := p.eng.Rel(p.deltaTab)
		if err != nil {
			return nil, err
		}
		p.exec.Override[w.RecName] = d
		p.exec.Delta[w.RecName] = true
		defer func() {
			delete(p.exec.Override, w.RecName)
			delete(p.exec.Delta, w.RecName)
		}()
	}
	q, fused, err := p.runInto(br.Query, fmt.Sprintf("recursive subquery Q%d", i+1), p.recSet)
	if err != nil {
		return nil, err
	}
	if fused != nil {
		// The statement's rows, as the join the kernel replaced counts them.
		ctx.SetRows(fused.Candidates)
	} else {
		ctx.SetRows(int64(q.Len()))
	}
	before, err := p.eng.Rel(w.RecName)
	if err != nil {
		return nil, err
	}
	var delta *relation.Relation
	old := false
	switch {
	case fused != nil:
		delta, old = retag(q, before.Sch), fused.Old
	case p.recSet != nil:
		delta, old = p.recSet.DiffAdd(retag(q, before.Sch))
	default:
		dedup := ra.Distinct(retag(q, before.Sch))
		delta = ra.Difference(dedup, before)
		old = delta.Len() < dedup.Len()
	}
	if old {
		p.trace.CycleDetected = true
	}
	if delta.Len() > 0 {
		if err := p.eng.AppendInto(w.RecName, delta); err != nil {
			return nil, err
		}
		if p.anyDelta {
			if p.pending == nil {
				p.pending = delta
			} else {
				p.pending = ra.UnionAll(p.pending, delta)
			}
		}
	}
	return delta, nil
}

// retag gives the query result the recursive relation's schema so union
// and update steps line up positionally.
func retag(r *relation.Relation, sch schema.Schema) *relation.Relation {
	if r.Sch.Arity() != sch.Arity() {
		return r // let the engine report the arity error
	}
	return &relation.Relation{Sch: sch, Tuples: r.Tuples}
}

// Run parses, checks, compiles, and executes a WITH+ statement in one call.
func Run(eng *engine.Engine, src string) (*relation.Relation, *Trace, error) {
	p, err := Prepare(eng, src)
	if err != nil {
		return nil, nil, err
	}
	defer p.Cleanup()
	return p.Run()
}
