package engine

// NewSession returns a session engine over the same database: it shares the
// root's base tables (through a session overlay catalog), buffer pool, WAL,
// and simulated disk, but carries its own counters, governor, observer,
// limits, and temp-table namespace. Statements on a session engine read
// shared tables through a per-statement snapshot (see BeginStatement), so
// concurrent sessions never observe each other's half-applied writes; temps
// the session creates live in its overlay and are invisible to every other
// session, which is what lets N `WITH+` recursions run their `R`/`R__delta`
// working tables simultaneously.
//
// label names the session in per-session metrics
// (`engine.statements{session=label}`); it should be unique per session and
// bounded in cardinality (connection IDs, not request IDs).
//
// The plan-shaping knobs (PlanKnobs, as one value) and Limits are copied from
// the root at creation; the session may change its own copy (e.g.
// per-session budgets) without affecting anyone else.
func (e *Engine) NewSession(label string) *Engine {
	root := e
	if e.root != nil {
		root = e.root
	}
	return &Engine{
		Prof:      root.Prof,
		Cat:       root.Cat.Session(),
		PlanKnobs: root.PlanKnobs,
		Limits:    root.Limits,
		disk:      root.disk,
		pool:      root.pool,
		wal:       root.wal,
		frames:    root.frames,
		session:   label,
		root:      root,
	}
}

// Session returns the session label ("" on the root engine).
func (e *Engine) Session() string { return e.session }

// Root returns the engine this session was created from, or the receiver
// itself on a root engine.
func (e *Engine) Root() *Engine {
	if e.root != nil {
		return e.root
	}
	return e
}

// CloseSession ends a session: it drops every temp table the session still
// holds in its overlay (abandoned recursion working tables, PSM temps),
// releasing their buffer frames, and releases the session's slot in the
// root catalog, so that once the last session closes, appends to shared
// tables regain the in-place fast path. Call it exactly once per
// NewSession; the session engine must not be used afterwards. Safe to call
// on a root engine, where it is a no-op: the root's temps belong to the
// benchmark harness, not to a connection.
func (e *Engine) CloseSession() {
	if e.root == nil {
		return
	}
	for _, name := range e.Cat.TempNames() {
		_ = e.Cat.Drop(name)
	}
	e.Cat.Release()
}
