package ra

import (
	"math"

	"repro/internal/govern"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// This file is the fused semi-naive step: Δ ⋈ E, DISTINCT and the
// difference against the recursive relation R in one pass over a CSR. The
// unfused step materializes every row of Δ ⋈ E as a boxed tuple, hashes all
// of them for DISTINCT and hashes the survivors again against R. The kernel
// instead resolves each Δ row's key to its source ordinal once, walks the
// block's typed target ordinals, and test-and-sets a visited set keyed by
// (the Δ columns the row carries, target ordinal): only a row not yet in R
// is built, and it goes straight into the TupleSet. The output — the new
// rows, in first-derivation order — is exactly what Distinct then DiffAdd
// return for the join's rows in csrJoin's order.
//
// Two rows are one member of R when value.Equal holds column by column. The
// visited key keeps that equality exactly: carried columns are interned
// into group ids under value.Equal, and target ordinals are the CSR's Dst
// dictionary ordinals, which are equal exactly when the values are equal and
// spelled alike as long as the dictionary holds no float (FloatKeys) — the
// kernel declines otherwise.

// FrontierSpec is the shape of one fused step over a left input (the Δ
// frontier, or whatever the branch joins in its place) and a CSR over the
// table's (key, target) columns.
type FrontierSpec struct {
	// LeftCol is the left input's join key column.
	LeftCol int
	// Out builds each output row, one entry per column of the recursive
	// relation: a column of the left row, or -1 for the CSR's target — which
	// exactly one entry is.
	Out []int
	// Sch is the output relation's schema.
	Sch schema.Schema
	// Gov is charged one row per left row, as the join it replaces is.
	Gov *govern.Governor
}

// FrontierStats is what a fused step found besides its new rows.
type FrontierStats struct {
	// Candidates is |Δ ⋈ E|: the rows the unfused join would have emitted.
	Candidates int64
	// Old reports that some candidate was already in the set before the
	// step — a re-derivation (DiffAdd's old).
	Old bool
}

// frontierTestMode is set only by tests: frontierOff makes Frontier decline
// every call, so the caller runs its unfused join and DiffAdd; the other
// values plant the faults the bounded-exhaustive check must catch.
var frontierTestMode string

const (
	frontierOff = "off"
	// mutateUnseeded: the visited set skips the set's seed rows.
	mutateUnseeded = "visited not seeded from the seed rows"
	// mutateTargetOnly: the visited set ignores the carried columns.
	mutateTargetOnly = "visited keyed by target alone"
)

// Frontier runs one fused semi-naive step: the rows of left ⋈ csr's table
// on spec.LeftCol = csr.SrcCol, shaped by spec.Out, that are not yet in the
// set, added to it and returned in first-derivation order. ok is false —
// and nothing was read or added — when the kernel does not apply: csr has
// no target dictionary or one holding a float, or spec.Out does not fit the
// set. csr must cover the joined table (CSR.Covers). A left row whose key is
// NULL or absent matches nothing, as in EquiJoin.
func (s *TupleSet) Frontier(left *relation.Relation, csr *relation.CSR, spec FrontierSpec) (out *relation.Relation, st FrontierStats, ok bool) {
	if frontierTestMode == frontierOff || csr.Dst == nil || csr.Dst.FloatKeys() || len(spec.Out) != len(s.cols) {
		return nil, st, false
	}
	v := s.visitedFor(spec.Out, csr.Dst)
	if v == nil {
		return nil, st, false
	}
	v.sync(s.acc)
	before := s.acc.Len()
	out = relation.New(spec.Sch)
	carriedLeft := make([]int, len(v.carried))
	for i, p := range v.carried {
		carriedLeft[i] = spec.Out[p]
	}
	var arena []value.Value
	width := len(spec.Out)
	chunk := 64
	keys := csr.Dst.Keys
	offsets, targets := csr.Offsets, csr.Targets
	tailHead, tailNext, tailTargets := csr.TailHead, csr.TailNext, csr.TailTargets
	emit := func(lt relation.Tuple, t int32) {
		if cap(arena)-len(arena) < width {
			arena = make([]value.Value, 0, width*chunk)
			chunk = min(2*chunk, 4096)
		}
		at := len(arena)
		for _, c := range spec.Out {
			if c < 0 {
				arena = append(arena, keys[t])
			} else {
				arena = append(arena, lt[c])
			}
		}
		row := relation.Tuple(arena[at:len(arena):len(arena)])
		s.acc.Tuples = append(s.acc.Tuples, row)
		out.Tuples = append(out.Tuples, row)
	}
	// visit test-and-sets one candidate of a left row in group gid.
	visit := func(lt relation.Tuple, gid int32, t int32) {
		st.Candidates++
		if gid < 0 {
			// A carried value equal to nothing (NaN): every candidate is new.
			emit(lt, t)
			return
		}
		if at, fresh := v.set.testAndSet(pack(gid, t), int32(s.acc.Len())); fresh {
			emit(lt, t)
		} else if int(at) < before {
			st.Old = true
		}
	}
	lc := spec.LeftCol
	for _, lt := range left.Tuples {
		spec.Gov.MustStep(1)
		k := lt[lc]
		if k.IsNull() {
			continue
		}
		ord, found := csr.SrcOrd(k)
		if !found {
			continue
		}
		gid := v.group(lt, carriedLeft)
		if int(ord)+1 < len(offsets) {
			for e := offsets[ord]; e < offsets[ord+1]; e++ {
				visit(lt, gid, targets[e])
			}
		}
		if int(ord) < len(tailHead) {
			for e := tailHead[ord]; e >= 0; e = tailNext[e] {
				visit(lt, gid, tailTargets[e])
			}
		}
	}
	// The set's own rows are in; only the hash index lags (TupleSet.sync).
	v.synced = s.acc.Len()
	return out, st, true
}

// visitedFor returns the set's visited structure for the step shape out
// over the target dictionary dict, creating it on first use and starting it
// over when the dictionary is another one or has grown (an appended edge
// table): a row of R whose target the old dictionary lacked may now have an
// ordinal. nil when out does not name the target exactly once.
func (s *TupleSet) visitedFor(out []int, dict *relation.ColumnDict) *visited {
	for _, v := range s.frontiers {
		if equalCols(v.out, out) {
			if v.dict != dict || v.dictLen != len(dict.Keys) {
				v.reset(dict)
			}
			return v
		}
	}
	v := &visited{out: append([]int(nil), out...), target: -1, seeded: s.seeded}
	for p, c := range out {
		switch {
		case c >= 0:
			v.carried = append(v.carried, p)
		case v.target >= 0:
			return nil
		default:
			v.target = p
		}
	}
	if v.target < 0 {
		return nil
	}
	if frontierTestMode == mutateTargetOnly {
		v.carried = nil
	}
	v.reset(dict)
	s.frontiers = append(s.frontiers, v)
	return v
}

// visited is the frontier kernel's membership structure for one step
// shape: every row of the set, as (group id of its carried columns, target
// ordinal), mapped to its position in acc. Its size is O(|R|): one entry per
// row, one group per distinct carried tuple.
type visited struct {
	out     []int
	carried []int // output positions of the carried columns
	target  int   // output position of the target
	seeded  int   // rows of acc that seeded the set

	dict    *relation.ColumnDict
	dictLen int // len(dict.Keys) when the structure was (re)started
	synced  int // rows of acc folded in
	set     ordSet

	// Carried-column groups: group g's values are vals[g*w : (g+1)*w] for
	// w = len(carried); byHash lists the groups of each value hash.
	vals   []value.Value
	byHash map[uint64][]int32
	ngroup int32
}

func (v *visited) reset(dict *relation.ColumnDict) {
	v.dict, v.dictLen, v.synced = dict, len(dict.Keys), 0
	v.set = ordSet{}
}

// sync folds the rows of acc appended since the last call into the set. A
// row whose target the dictionary lacks is never a candidate and stays out.
func (v *visited) sync(acc *relation.Relation) {
	if frontierTestMode == mutateUnseeded && v.synced < v.seeded {
		v.synced = v.seeded
	}
	for ; v.synced < acc.Len(); v.synced++ {
		t := acc.Tuples[v.synced]
		ord, ok := v.dict.Lookup(t[v.target])
		if !ok {
			continue
		}
		if gid := v.group(t, v.carried); gid >= 0 {
			v.set.testAndSet(pack(gid, ord), int32(v.synced))
		}
	}
}

// group interns the carried tuple t[cols] under value.Equal and returns its
// id: 0 when nothing is carried, -1 when some value equals nothing, itself
// included (NaN).
func (v *visited) group(t relation.Tuple, cols []int) int32 {
	if len(cols) == 0 {
		return 0
	}
	var h uint64
	for _, c := range cols {
		if t[c].K == value.KindFloat && math.IsNaN(t[c].F) {
			return -1
		}
		h = value.HashCombine(h, t[c])
	}
	w := len(cols)
	for _, g := range v.byHash[h] {
		vals := v.vals[int(g)*w : int(g+1)*w]
		same := true
		for i, c := range cols {
			if !vals[i].Equal(t[c]) {
				same = false
				break
			}
		}
		if same {
			return g
		}
	}
	if v.byHash == nil {
		v.byHash = map[uint64][]int32{}
	}
	g := v.ngroup
	v.ngroup++
	for _, c := range cols {
		v.vals = append(v.vals, t[c])
	}
	v.byHash[h] = append(v.byHash[h], g)
	return g
}

// pack is the visited key of (group, target ordinal), +1 so that no key is
// the empty slot's 0.
func pack(gid, ord int32) uint64 { return (uint64(gid)<<32 | uint64(uint32(ord))) + 1 }

// ordSet is an open-addressing map from packed visited keys to acc
// positions, at most half full.
type ordSet struct {
	keys []uint64
	rows []int32
	n    int
}

// testAndSet returns the position stored under key and false, or stores row
// under it and returns row and true.
func (m *ordSet) testAndSet(key uint64, row int32) (int32, bool) {
	if 2*(m.n+1) > len(m.keys) {
		m.grow()
	}
	mask := uint64(len(m.keys) - 1)
	h := key * 0x9e3779b97f4a7c15
	for i := (h ^ h>>32) & mask; ; i = (i + 1) & mask {
		switch m.keys[i] {
		case key:
			return m.rows[i], false
		case 0:
			m.keys[i], m.rows[i] = key, row
			m.n++
			return row, true
		}
	}
}

func (m *ordSet) grow() {
	keys, rows := m.keys, m.rows
	size := max(64, 2*len(keys))
	m.keys, m.rows, m.n = make([]uint64, size), make([]int32, size), 0
	for i, k := range keys {
		if k != 0 {
			m.testAndSet(k, rows[i])
		}
	}
}
