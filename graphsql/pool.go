package graphsql

import (
	"fmt"
	"sync"
)

// Pool is one shared database serving many concurrent sessions. The pool
// owns the root engine — base tables, buffer pool, WAL — and hands out
// session DBs whose statements run concurrently against it:
//
//   - reads of shared tables are snapshot-isolated per statement (each
//     statement pins every table it touches at one version; writers bump
//     versions copy-on-write and never block readers);
//   - temporary tables — `WITH+` recursion working tables, PSM temps — are
//     private to their session, so N recursions run simultaneously without
//     name collisions;
//   - resource budgets (SetLimits), operator counters (Stats), and
//     statement metrics are accounted per session.
//
// Typical use: load base data through DB(), then one Session per client:
//
//	pool, _ := graphsql.OpenPool("oracle")
//	pool.DB().LoadEdges("E", g)
//	for i := 0; i < clients; i++ {
//		s := pool.Session()
//		go func() { defer s.Close(); s.Query(ctx, stmt) }()
//	}
type Pool struct {
	root *DB

	mu  sync.Mutex
	seq int
}

// OpenPool creates a shared database with the named profile (the same names
// Open accepts).
func OpenPool(profile string) (*Pool, error) {
	db, err := Open(profile)
	if err != nil {
		return nil, err
	}
	return &Pool{root: db}, nil
}

// DB returns the pool's root database — the place to load base tables and
// read whole-database state. The root is a session like any other for
// queries, except its temps live in the shared namespace; prefer Session
// for concurrent query streams.
func (p *Pool) DB() *DB { return p.root }

// Session opens a new session on the shared database. The returned DB has
// the full single-session API; Close it when the client disconnects to
// release its temp tables.
func (p *Pool) Session() *DB {
	p.mu.Lock()
	p.seq++
	label := fmt.Sprintf("s%d", p.seq)
	p.mu.Unlock()
	return &DB{eng: p.root.eng.NewSession(label)}
}

// Close closes a session: its private temporary tables are dropped and its
// session slot released. On a root (non-pool) DB it is a no-op. Safe to
// call once; a closed DB must not be used again.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	db.eng.CloseSession()
	return nil
}

// SessionID returns the session's label within its pool ("" for a root DB).
func (db *DB) SessionID() string { return db.eng.Session() }
