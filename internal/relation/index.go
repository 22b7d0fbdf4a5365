package relation

import (
	"math"
	"sort"

	"repro/internal/value"
)

// HashIndex maps the values of a key-column subset to the rows holding
// each key. It is the access structure behind hash joins, semi-joins,
// anti-joins, group-by partitioning and union-by-update.
//
// An index on one column whose keys are all NULL or dense (denseKey, the
// largest within denseFits with indexFloor) chains its rows by key in arrays: head and tail
// hold each key's first and last row, next each row's successor with the
// same key, and NULL-keyed rows form one chain of their own (value.Equal
// matches NULL to NULL; joins skip NULL probe keys themselves through
// Tuple.NullOn). A probe is one array load and a walk in row order, and a
// build allocates three int32 arrays — at most 2·(denseSlack·n+indexFloor)
// + n entries for n rows — instead of a bucket per key.
//
// Every other key set hashes into buckets. Each bucket entry carries the
// first key column inline next to the row number, so the common
// single-column probe compares against contiguous memory instead of chasing
// rel.Tuples[row] — two dependent random loads — per candidate. Multi-column
// keys check the inline value first and fall back to EqualOn for the
// remaining columns only when it matches.
type HashIndex struct {
	rel  *Relation
	cols []int
	// The dense layout, while buckets is nil. Rows are stored +1, so 0
	// ends a chain.
	head, tail         []int32 // per dense key: its first and last row
	next               []int32 // per row: the next row with the same key
	nullHead, nullTail int32   // the NULL-keyed rows
	buckets            map[uint64][]bucketEntry
}

// bucketEntry is one indexed row plus its first key column.
type bucketEntry struct {
	key value.Value
	row int
}

// entryFor builds the bucket entry for a row (Null key for zero-column
// indexes, where every row trivially matches).
func (idx *HashIndex) entryFor(row int) bucketEntry {
	e := bucketEntry{row: row}
	if len(idx.cols) > 0 {
		e.key = idx.rel.Tuples[row][idx.cols[0]]
	}
	return e
}

// The dense layout's planted faults. indexTestMode names the one planted:
// a constant "" in every build but the hashindexfaults-tagged one that
// hashindex_faults_test.go runs in, so the checks below compile away.
const (
	mutateFractionSlot = "dense slot for a non-integral key"
	mutateReverseChain = "chain in reverse row order"
	mutateNullDropped  = "NULL chain dropped"
)

// BuildHashIndex indexes rel on the given key columns.
func BuildHashIndex(rel *Relation, cols []int) *HashIndex {
	idx := &HashIndex{rel: rel, cols: cols}
	size, ok := denseSize(rel, cols)
	if !ok {
		idx.toBuckets(rel.Len())
		return idx
	}
	idx.head = make([]int32, size)
	idx.tail = make([]int32, size)
	idx.next = make([]int32, rel.Len())
	// Walking the rows backwards and pushing each onto the front of its
	// chain leaves every chain in row order.
	i, end, step := rel.Len()-1, -1, -1
	if indexTestMode == mutateReverseChain {
		i, end, step = 0, rel.Len(), 1
	}
	for ; i != end; i += step {
		head, tail := &idx.nullHead, &idx.nullTail
		if k := rel.Tuples[i][cols[0]]; !k.IsNull() {
			id, _ := denseKey(k)
			head, tail = &idx.head[id], &idx.tail[id]
		} else if indexTestMode == mutateNullDropped {
			continue
		}
		if *tail == 0 {
			*tail = int32(i) + 1
		}
		idx.next[i] = *head
		*head = int32(i) + 1
	}
	return idx
}

// denseSize returns the dense layout's array size for an index of rel on
// cols — the largest key + 1 — and whether the layout applies: one key
// column whose every value is NULL or a dense key within denseFits.
func denseSize(rel *Relation, cols []int) (int, bool) {
	if len(cols) != 1 || rel.Len() >= math.MaxInt32 {
		return 0, false
	}
	maxID := int64(-1)
	for _, t := range rel.Tuples {
		k := t[cols[0]]
		if k.IsNull() {
			continue
		}
		id, ok := denseKey(k)
		if !ok || !denseFits(id, rel.Len(), indexFloor) {
			return 0, false
		}
		maxID = max(maxID, id)
	}
	return int(maxID + 1), true
}

// toBuckets indexes rows [0, n) in buckets, leaving the dense layout for
// good.
func (idx *HashIndex) toBuckets(n int) {
	idx.head, idx.tail, idx.next = nil, nil, nil
	idx.nullHead, idx.nullTail = 0, 0
	idx.buckets = make(map[uint64][]bucketEntry, distinctHint(idx.rel, idx.cols))
	for i, t := range idx.rel.Tuples[:n] {
		h := t.HashOn(idx.cols)
		idx.buckets[h] = append(idx.buckets[h], idx.entryFor(i))
	}
}

// hintSample is how many leading rows distinctHint inspects.
const hintSample = 256

// distinctHint sizes a bucket map for the distinct keys of rel on cols. When
// the first hintSample rows all carry distinct keys the column is taken as
// unique and the hint is the row count, one entry per row; otherwise it is
// the number of distinct keys among those rows, and the map grows from
// there. A row-count hint alone reserves ~29x what an edge table's source
// column holds (29 000 rows over 1 000 keys).
func distinctHint(rel *Relation, cols []int) int {
	n := min(rel.Len(), hintSample)
	// Open addressing over the key hashes, stored +1 so that 0 marks an
	// empty slot; equal hashes count once, which only lowers the hint.
	var seen [2 * hintSample]uint64
	distinct := 0
	for _, t := range rel.Tuples[:n] {
		h := t.HashOn(cols) + 1
		for i := h; ; i++ {
			slot := &seen[i%uint64(len(seen))]
			if *slot == h {
				break
			}
			if *slot == 0 {
				*slot = h
				distinct++
				break
			}
		}
	}
	if distinct == n {
		return rel.Len()
	}
	return distinct
}

// Cols returns the indexed key columns.
func (idx *HashIndex) Cols() []int { return idx.cols }

// Rel returns the indexed relation. Callers that receive a prebuilt index
// use it to check the index covers the relation they are probing against.
func (idx *HashIndex) Rel() *Relation { return idx.rel }

// Probe returns the row numbers whose key columns equal probe's key columns
// (probeCols selects the key within the probe tuple). It allocates a fresh
// slice per call; hot loops should use ProbeEach instead.
func (idx *HashIndex) Probe(probe Tuple, probeCols []int) []int {
	var out []int
	idx.ProbeEach(probe, probeCols, func(row int) bool {
		out = append(out, row)
		return true
	})
	return out
}

// ProbeEach calls f with each row number whose key columns equal probe's key
// columns, in row order, stopping early if f returns false. Unlike Probe it
// allocates nothing, which matters in join and union-by-update inner loops
// that probe once per input tuple.
func (idx *HashIndex) ProbeEach(probe Tuple, probeCols []int, f func(row int) bool) {
	if idx.buckets == nil {
		// Every key is NULL or dense, so a probe key that maps to no slot
		// — NaN, non-integral, out of range, a string or a bool — equals
		// no key.
		k := probe[probeCols[0]]
		var r int32
		if id, ok := denseKey(k); ok && uint64(id) < uint64(len(idx.head)) {
			r = idx.head[id]
		} else if k.IsNull() {
			r = idx.nullHead
		}
		for ; r != 0; r = idx.next[r-1] {
			if !f(int(r - 1)) {
				return
			}
		}
		return
	}
	h := probe.HashOn(probeCols)
	var p0 value.Value
	if len(probeCols) > 0 {
		p0 = probe[probeCols[0]]
	}
	for _, e := range idx.buckets[h] {
		if len(idx.cols) > 0 && !e.key.Equal(p0) {
			continue
		}
		if len(idx.cols) > 1 && !idx.rel.Tuples[e.row].EqualOn(idx.cols[1:], probe, probeCols[1:]) {
			continue
		}
		if !f(e.row) {
			return
		}
	}
}

// Contains reports whether any row matches the probe key.
func (idx *HashIndex) Contains(probe Tuple, probeCols []int) bool {
	found := false
	idx.ProbeEach(probe, probeCols, func(int) bool {
		found = true
		return false
	})
	return found
}

// Add indexes the relation's next row — rows are added in order, each
// once — when the relation grows, e.g. during MERGE-style union-by-update.
// The dense layout grows its arrays while the row's key keeps it dense, and
// turns into buckets, for good, on the first key that does not.
func (idx *HashIndex) Add(row int) {
	if idx.buckets != nil {
		h := idx.rel.Tuples[row].HashOn(idx.cols)
		idx.buckets[h] = append(idx.buckets[h], idx.entryFor(row))
		return
	}
	k := idx.rel.Tuples[row][idx.cols[0]]
	id, ok := denseKey(k)
	if !k.IsNull() && !(ok && denseFits(id, row+1, indexFloor)) || row >= math.MaxInt32 {
		idx.toBuckets(row + 1)
		return
	}
	head, tail := &idx.nullHead, &idx.nullTail
	if !k.IsNull() {
		if id >= int64(len(idx.head)) {
			size := min(max(id+1, 2*int64(len(idx.head))), denseBound(row+1, indexFloor))
			idx.head = append(idx.head, make([]int32, size-int64(len(idx.head)))...)
			idx.tail = append(idx.tail, make([]int32, size-int64(len(idx.tail)))...)
		}
		head, tail = &idx.head[id], &idx.tail[id]
	}
	idx.next = append(idx.next, 0)
	if *tail == 0 {
		*head = int32(row) + 1
	} else {
		idx.next[*tail-1] = int32(row) + 1
	}
	*tail = int32(row) + 1
}

// ColumnDict dictionary-encodes one column of a relation: Ords[row] is the
// ordinal of rel.Tuples[row][Col] among the column's distinct values in
// first-seen row order, and Keys[ord] is the distinct value for each
// ordinal. Aggregate-join kernels that group on a column of the (cached)
// build side use the dictionary to fold into dense arrays — one int32 load
// per matched row instead of a hash-and-compare per match. Like a hash
// index, a dict is valid for exactly one version of the relation's content.
type ColumnDict struct {
	Col  int
	Keys []value.Value
	Ords []int32
	// buckets hashes each distinct value to its candidate ordinals. It is
	// retained after the build so Extend can encode appended rows without
	// rebuilding the dictionary from scratch.
	buckets map[uint64][]int32
	// dense maps small non-negative integral keys directly to ordinal+1
	// (0 = absent), so Lookup is one array load when every key is an
	// integral numeric in range — the dense node-ID case of graph
	// workloads. sparse records that some key broke that shape; Lookup then
	// uses the buckets.
	dense  []int32
	sparse bool
	// floatKeys records that some encoded value is a float: equal values
	// may then have distinct spellings (Int 1 and Float 1, -0 and +0) and a
	// NaN never equals itself, so the dictionary's first-seen spelling and
	// grouping can differ from a group-by over another row order.
	floatKeys bool
}

// denseSlack and a floor bound every dense key array — the dense
// HashIndex's chains, ColumnDict's ordinal map — relative to the n entries
// it holds (rows or distinct keys), so a few huge IDs cannot blow it up.
const denseSlack = 4

// The floors. A ColumnDict is built once per cached column, so a handful
// of keys may take 1 024 slots. A HashIndex is built per call, often over a
// few rows (a small Δ, a semi-join's build side), so its floor is small:
// its chains then never take more than a bucket map's memory plus 1 KiB.
const (
	dictFloor  = 1024
	indexFloor = 64
)

// denseBound is the largest dense array kept for n entries.
func denseBound(n int, floor int64) int64 { return denseSlack*int64(n) + floor }

// denseFits reports whether a dense array for n entries may hold the key
// id: one that denseKey maps, not negative, below denseBound(n, floor).
func denseFits(id int64, n int, floor int64) bool { return id >= 0 && id < denseBound(n, floor) }

// BuildColumnDict dictionary-encodes the column.
func BuildColumnDict(rel *Relation, col int) *ColumnDict {
	d := &ColumnDict{
		Col:     col,
		Ords:    make([]int32, 0, rel.Len()),
		buckets: make(map[uint64][]int32, distinctHint(rel, []int{col})),
	}
	d.Extend(rel)
	return d
}

// Extend encodes the rows appended to rel since the dictionary was built (or
// last extended), reusing the retained value buckets. It is the
// incremental-maintenance path for accumulation-only writes: appends extend
// Keys/Ords in place and never invalidate previously encoded rows.
func (d *ColumnDict) Extend(rel *Relation) {
	prevKeys := len(d.Keys)
	cols := []int{d.Col}
	for i := len(d.Ords); i < rel.Len(); i++ {
		t := rel.Tuples[i]
		h := t.HashOn(cols)
		ord := int32(-1)
		for _, cand := range d.buckets[h] {
			if d.Keys[cand].Equal(t[d.Col]) {
				ord = cand
				break
			}
		}
		if ord < 0 {
			ord = int32(len(d.Keys))
			d.Keys = append(d.Keys, t[d.Col])
			d.buckets[h] = append(d.buckets[h], ord)
		}
		d.floatKeys = d.floatKeys || t[d.Col].K == value.KindFloat
		d.Ords = append(d.Ords, ord)
	}
	if len(d.Keys) > prevKeys {
		d.extendDense(prevKeys)
	}
}

// FloatKeys reports whether some encoded value of the column is a float.
// Without one, two rows fall in one ordinal exactly when their values are
// equal and spelled alike, so a group-by over the rows in any order groups
// and spells them as the dictionary does.
func (d *ColumnDict) FloatKeys() bool { return d.floatKeys }

// denseKey extracts the dense-map index of a key value: integral numerics
// (Int, or Float with an integral value — value.Equal treats Int(3) and
// Float(3.0), and -0 and 0, as the same key) map to their integer;
// everything else is unmappable.
func denseKey(v value.Value) (int64, bool) {
	switch v.K {
	case value.KindInt:
		return v.I, true
	case value.KindFloat:
		if v.F == math.Trunc(v.F) && v.F >= math.MinInt64 && v.F < math.MaxInt64 {
			return int64(v.F), true
		}
		if indexTestMode == mutateFractionSlot && !math.IsNaN(v.F) && math.Abs(v.F) < math.MaxInt64 {
			return int64(v.F), true
		}
	}
	return 0, false
}

// extendDense maps the keys added since prevKeys (all of them on the
// build), switching the dictionary to bucket lookups for good when a new
// key does not fit the dense array (denseFits).
func (d *ColumnDict) extendDense(prevKeys int) {
	if d.sparse {
		return
	}
	maxID := int64(len(d.dense)) - 1
	for _, k := range d.Keys[prevKeys:] {
		id, ok := denseKey(k)
		if !ok || !denseFits(id, len(d.Keys), dictFloor) {
			d.dense, d.sparse = nil, true
			return
		}
		maxID = max(maxID, id)
	}
	if maxID+1 > int64(len(d.dense)) {
		grown := make([]int32, maxID+1)
		copy(grown, d.dense)
		d.dense = grown
	}
	for ord := prevKeys; ord < len(d.Keys); ord++ {
		id, _ := denseKey(d.Keys[ord])
		d.dense[id] = int32(ord) + 1
	}
}

// Lookup resolves a value to its ordinal among the dictionary's distinct
// keys, with the same equality semantics as the encode path (value.Equal —
// cross-kind numeric equality, NULL equals NULL): one array load on the
// dense-integer fast path, a bucket lookup otherwise. ok is false when the
// value never occurred in the encoded column.
func (d *ColumnDict) Lookup(v value.Value) (int32, bool) {
	if !d.sparse {
		// Every key is a small non-negative integer, so a value that maps
		// to no slot equals no key.
		id, ok := denseKey(v)
		if !ok || uint64(id) >= uint64(len(d.dense)) {
			return 0, false
		}
		ord := d.dense[id]
		return ord - 1, ord > 0
	}
	h := value.HashCombine(0, v)
	for _, cand := range d.buckets[h] {
		if d.Keys[cand].Equal(v) {
			return cand, true
		}
	}
	return 0, false
}

// SortedIndex is an ordering of row numbers by the key columns — the stand-in
// for a B+-tree index on a temporary table. A merge join over a SortedIndex
// reads rows in key order without re-sorting the relation, which is exactly
// the effect the paper observes when PostgreSQL uses temp-table indexes.
type SortedIndex struct {
	rel  *Relation
	cols []int
	rows []int
}

// BuildSortedIndex sorts row numbers of rel by the key columns.
func BuildSortedIndex(rel *Relation, cols []int) *SortedIndex {
	rows := make([]int, rel.Len())
	for i := range rows {
		rows[i] = i
	}
	sort.SliceStable(rows, func(a, b int) bool {
		return rel.Tuples[rows[a]].CompareOn(cols, rel.Tuples[rows[b]], cols) < 0
	})
	return &SortedIndex{rel: rel, cols: cols, rows: rows}
}

// Cols returns the indexed key columns.
func (idx *SortedIndex) Cols() []int { return idx.cols }

// Len returns the number of indexed rows.
func (idx *SortedIndex) Len() int { return len(idx.rows) }

// Row returns the i-th row number in key order.
func (idx *SortedIndex) Row(i int) int { return idx.rows[i] }

// Tuple returns the i-th tuple in key order.
func (idx *SortedIndex) Tuple(i int) Tuple { return idx.rel.Tuples[idx.rows[i]] }

// SeekGE returns the first position whose key is >= the probe key.
func (idx *SortedIndex) SeekGE(probe Tuple, probeCols []int) int {
	return sort.Search(len(idx.rows), func(i int) bool {
		return idx.rel.Tuples[idx.rows[i]].CompareOn(idx.cols, probe, probeCols) >= 0
	})
}
