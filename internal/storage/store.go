package storage

import (
	"fmt"
	"sort"

	"repro/internal/relation"
)

// TupleStore is the physical storage behind a table. MemStore keeps tuples
// as Go values (an in-memory RDBMS / Oracle-AMM-style temp space);
// PagedStore serializes tuples into buffer-pool pages (a disk-based temp
// space), paying encode/decode and page-management costs on every access.
type TupleStore interface {
	// Insert appends one tuple.
	Insert(t relation.Tuple) error
	// Scan calls fn for every tuple until fn returns false.
	Scan(fn func(t relation.Tuple) bool) error
	// Len returns the number of stored tuples.
	Len() int
	// Truncate removes all tuples.
	Truncate() error
	// BytesUsed reports the storage footprint: resident pages for
	// PagedStore, an estimated heap footprint for MemStore. Either way it
	// feeds the resource governor's memory budget.
	BytesUsed() int64
}

// MemStore stores tuples in a slice.
type MemStore struct {
	tuples []relation.Tuple
	bytes  int64
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Insert implements TupleStore.
func (s *MemStore) Insert(t relation.Tuple) error {
	s.tuples = append(s.tuples, t)
	s.bytes += tupleFootprint(t)
	return nil
}

// tupleFootprint estimates a tuple's heap cost: 16 bytes per value slot
// (the Value struct's order of magnitude) plus string payloads — the same
// scale the engine charges for join intermediates, so the governor's
// MaxBytes compares like with like.
func tupleFootprint(t relation.Tuple) int64 {
	n := int64(len(t)) * 16
	for _, v := range t {
		n += int64(len(v.S))
	}
	return n
}

// Scan implements TupleStore.
func (s *MemStore) Scan(fn func(t relation.Tuple) bool) error {
	for _, t := range s.tuples {
		if !fn(t) {
			return nil
		}
	}
	return nil
}

// UpdateAt replaces tuple i (in Scan order) with t, in place.
func (s *MemStore) UpdateAt(i int, t relation.Tuple) (bool, error) {
	s.bytes += tupleFootprint(t) - tupleFootprint(s.tuples[i])
	s.tuples[i] = t
	return true, nil
}

// Len implements TupleStore.
func (s *MemStore) Len() int { return len(s.tuples) }

// Truncate implements TupleStore.
func (s *MemStore) Truncate() error {
	s.tuples = s.tuples[:0]
	s.bytes = 0
	return nil
}

// BytesUsed implements TupleStore.
func (s *MemStore) BytesUsed() int64 { return s.bytes }

// PagedStore stores tuples encoded into slotted pages managed by a buffer
// pool. An optional WAL receives one record per insert (base tables log;
// temporary tables bypass the redo log, as the paper notes all three RDBMSs
// do — but they still pay the page I/O).
type PagedStore struct {
	pool    *BufferPool
	wal     *WAL   // nil for non-logged tables
	name    string // table name stamped on WAL records (logged stores)
	pages   []PageID
	starts  []int // starts[k]: the number of tuples stored before page k
	n       int
	scratch []byte
}

// NewPagedStore returns an empty paged store over pool. wal may be nil
// (unlogged temp storage); name identifies the table in WAL records and is
// ignored when wal is nil.
func NewPagedStore(pool *BufferPool, wal *WAL, name string) *PagedStore {
	return &PagedStore{pool: pool, wal: wal, name: name}
}

// Insert implements TupleStore.
func (s *PagedStore) Insert(t relation.Tuple) error {
	s.scratch = EncodeTuple(s.scratch[:0], t)
	rec := s.scratch
	if len(rec) > PageSize-pageHeaderSize-slotSize {
		return fmt.Errorf("storage: tuple of %d bytes exceeds page capacity", len(rec))
	}
	if s.wal != nil {
		s.wal.AppendInsert(s.name, rec)
	}
	if len(s.pages) > 0 {
		last := s.pages[len(s.pages)-1]
		p, err := s.pool.Fetch(last)
		if err != nil {
			return err
		}
		if _, ok := p.Insert(rec); ok {
			s.n++
			return s.pool.Unpin(last, true)
		}
		if err := s.pool.Unpin(last, false); err != nil {
			return err
		}
	}
	id, p, err := s.pool.NewPage()
	if err != nil {
		return err
	}
	if _, ok := p.Insert(rec); !ok {
		s.pool.Unpin(id, false)
		return fmt.Errorf("storage: fresh page rejected %d-byte record", len(rec))
	}
	s.pages = append(s.pages, id)
	s.starts = append(s.starts, s.n)
	s.n++
	return s.pool.Unpin(id, true)
}

// UpdateAt replaces tuple i (in Scan order) with t in an unlogged store:
// the record is overwritten in its slot when the new encoding has the old
// one's length (a number replacing a number). A logged store, or a record
// that would change length, reports false, having changed nothing.
func (s *PagedStore) UpdateAt(i int, t relation.Tuple) (bool, error) {
	if s.wal != nil || i < 0 || i >= s.n {
		return false, nil
	}
	k := sort.Search(len(s.starts), func(k int) bool { return s.starts[k] > i }) - 1
	id := s.pages[k]
	p, err := s.pool.Fetch(id)
	if err != nil {
		return false, err
	}
	rec, err := p.Record(i - s.starts[k])
	if err != nil {
		s.pool.Unpin(id, false)
		return false, err
	}
	s.scratch = EncodeTuple(s.scratch[:0], t)
	if len(s.scratch) != len(rec) {
		return false, s.pool.Unpin(id, false)
	}
	copy(rec, s.scratch)
	return true, s.pool.Unpin(id, true)
}

// Scan implements TupleStore.
func (s *PagedStore) Scan(fn func(t relation.Tuple) bool) error {
	for _, id := range s.pages {
		p, err := s.pool.Fetch(id)
		if err != nil {
			return err
		}
		stop := false
		for slot := 0; slot < p.NumSlots(); slot++ {
			rec, err := p.Record(slot)
			if err != nil {
				s.pool.Unpin(id, false)
				return err
			}
			t, _, err := DecodeTuple(rec)
			if err != nil {
				s.pool.Unpin(id, false)
				return err
			}
			if !fn(t) {
				stop = true
				break
			}
		}
		if err := s.pool.Unpin(id, false); err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}

// Len implements TupleStore.
func (s *PagedStore) Len() int { return s.n }

// Truncate implements TupleStore. Logged stores record the truncation so
// recovery replays it in sequence with the inserts around it.
func (s *PagedStore) Truncate() error {
	for _, id := range s.pages {
		s.pool.Drop(id)
	}
	s.pages, s.starts = nil, nil
	s.n = 0
	if s.wal != nil {
		s.wal.AppendTruncate(s.name)
	}
	return nil
}

// BytesUsed implements TupleStore.
func (s *PagedStore) BytesUsed() int64 { return int64(len(s.pages)) * PageSize }
