package relation

import "repro/internal/value"

// CSR is a compressed-sparse-row adjacency index over one relation — the
// physical access path for "join = adjacency extend" workloads. Rows are
// grouped by the dictionary ordinal of their SrcCol value: for a source
// ordinal s, Rows[Offsets[s]:Offsets[s+1]] are the matching row numbers in
// ascending row order — exactly the match set and order a HashIndex probe
// on {SrcCol} yields — and Targets/Weights carry the rows' DstCol ordinals
// and WCol values in the same contiguous layout. A frontier extend then
// reads sequential int32/Value arrays instead of hash buckets: no per-match
// key comparison, no bucket-entry indirection, no tuple pointer chase.
//
// DstCol and WCol are optional (pass -1): a generic equi-join needs only
// Offsets+Rows, while the fused MV-/MM-join kernels use Targets and Weights
// to fold products without touching the source tuples at all.
//
// Like a HashIndex or ColumnDict, a CSR is valid for exactly one version of
// the relation's content, with the same incremental append path: Extend
// encodes rows appended since the build into per-source tail chains
// (the main arrays stay contiguous and immutable), so accumulation-only
// recursion never rebuilds the index. Destructive writes require a rebuild.
type CSR struct {
	SrcCol, DstCol, WCol int

	// Src dictionary-encodes SrcCol; Dst (when DstCol >= 0) encodes DstCol.
	// Probes resolve a key to its source ordinal through Src (one array
	// load for dense integer IDs); group folds resolve Targets back to
	// values through Dst.Keys.
	Src *ColumnDict
	Dst *ColumnDict

	// Offsets has one entry per source ordinal known at build time, plus a
	// terminator: ordinal s's main edge block is [Offsets[s], Offsets[s+1]).
	Offsets []int32
	// Rows[e] is the relation row number of edge position e; Targets[e] its
	// Dst ordinal (when DstCol >= 0); Weights[e] its WCol value (when
	// WCol >= 0).
	Rows    []int32
	Targets []int32
	Weights []value.Value
	// FloatWeights is the float64 copy of Weights, filled while every
	// encoded weight (main block and tail) is KindFloat; it is nil once any
	// weight is not, and whenever WCol < 0. It is computed at build time and
	// on Extend, never on read: one CSR is shared by every reader of its
	// version. TailFloatWeights is its tail counterpart, position for
	// position with TailWeights, and is meaningful only while FloatWeights
	// is non-nil.
	FloatWeights []float64

	// Tail chains hold rows appended after the build, per source ordinal, in
	// row order (main block rows always precede tail rows, preserving the
	// ascending-row match order of a hash probe). TailHead is indexed by
	// source ordinal (-1 = no tail); TailNext links positions within the
	// tail arrays.
	TailHead    []int32
	TailNext    []int32
	TailRows    []int32
	TailTargets []int32
	TailWeights []value.Value
	// TailFloatWeights: see FloatWeights.
	TailFloatWeights []float64

	rel *Relation
	n   int // rows encoded so far (main + tail)
}

// BuildCSR builds the adjacency index over rel, grouping rows by the srcCol
// value. dstCol and wCol are optional (-1): when present, Targets and
// Weights are filled alongside Rows.
func BuildCSR(rel *Relation, srcCol, dstCol, wCol int) *CSR {
	c := &CSR{SrcCol: srcCol, DstCol: dstCol, WCol: wCol, rel: rel}
	c.Src = BuildColumnDict(rel, srcCol)
	if dstCol >= 0 {
		c.Dst = BuildColumnDict(rel, dstCol)
	}
	n := rel.Len()
	nSrc := len(c.Src.Keys)
	// Counting sort by source ordinal; stable, so each block keeps ascending
	// row order (the order ProbeEach yields matches in).
	c.Offsets = make([]int32, nSrc+1)
	for _, ord := range c.Src.Ords {
		c.Offsets[ord+1]++
	}
	for s := 0; s < nSrc; s++ {
		c.Offsets[s+1] += c.Offsets[s]
	}
	cursor := make([]int32, nSrc)
	copy(cursor, c.Offsets[:nSrc])
	c.Rows = make([]int32, n)
	if c.Dst != nil {
		c.Targets = make([]int32, n)
	}
	if wCol >= 0 {
		c.Weights = make([]value.Value, n)
		c.FloatWeights = make([]float64, n)
	}
	for row := 0; row < n; row++ {
		ord := c.Src.Ords[row]
		pos := cursor[ord]
		cursor[ord] = pos + 1
		c.Rows[pos] = int32(row)
		if c.Targets != nil {
			c.Targets[pos] = c.Dst.Ords[row]
		}
		if c.Weights != nil {
			w := rel.Tuples[row][wCol]
			c.Weights[pos] = w
			if w.K != value.KindFloat {
				c.FloatWeights = nil
			} else if c.FloatWeights != nil {
				c.FloatWeights[pos] = w.F
			}
		}
	}
	c.n = n
	return c
}

// SrcOrd resolves a probe key to its source ordinal through Src. The match
// semantics are identical to a HashIndex probe on {SrcCol} — cross-kind
// numeric equality included.
func (c *CSR) SrcOrd(v value.Value) (int32, bool) { return c.Src.Lookup(v) }

// Extend encodes the rows appended to the relation since the build (or last
// Extend) into the per-source tail chains. The source and target
// dictionaries extend in place (retained buckets and dense maps, no
// rebuild) and new source ordinals get empty main blocks implicitly. This
// is the in-place append fast path:
// accumulation-only writes never invalidate previously encoded rows.
func (c *CSR) Extend(rel *Relation) {
	if rel.Len() == c.n {
		return
	}
	c.Src.Extend(rel)
	if c.Dst != nil {
		c.Dst.Extend(rel)
	}
	if len(c.TailHead) < len(c.Src.Keys) {
		grown := make([]int32, len(c.Src.Keys))
		copy(grown, c.TailHead)
		for i := len(c.TailHead); i < len(grown); i++ {
			grown[i] = -1
		}
		c.TailHead = grown
	}
	// tailTail tracks each chain's last position so appends keep row order.
	tailTail := make(map[int32]int32)
	for ord, head := range c.TailHead {
		if head < 0 {
			continue
		}
		e := head
		for c.TailNext[e] >= 0 {
			e = c.TailNext[e]
		}
		tailTail[int32(ord)] = e
	}
	for row := c.n; row < rel.Len(); row++ {
		ord := c.Src.Ords[row]
		e := int32(len(c.TailRows))
		c.TailRows = append(c.TailRows, int32(row))
		c.TailNext = append(c.TailNext, -1)
		if c.Dst != nil {
			c.TailTargets = append(c.TailTargets, c.Dst.Ords[row])
		}
		if c.Weights != nil {
			w := rel.Tuples[row][c.WCol]
			c.TailWeights = append(c.TailWeights, w)
			if w.K != value.KindFloat {
				c.FloatWeights, c.TailFloatWeights = nil, nil
			} else if c.FloatWeights != nil {
				c.TailFloatWeights = append(c.TailFloatWeights, w.F)
			}
		}
		if prev, ok := tailTail[ord]; ok {
			c.TailNext[prev] = e
		} else {
			c.TailHead[ord] = e
		}
		tailTail[ord] = e
	}
	c.n = rel.Len()
}

// Rel returns the indexed relation; like HashIndex.Rel, callers use it to
// check the index covers the relation they are probing against.
func (c *CSR) Rel() *Relation { return c.rel }

// Len returns the number of rows encoded (main blocks plus tails).
func (c *CSR) Len() int { return c.n }

// NumSrc returns the number of distinct source keys.
func (c *CSR) NumSrc() int { return len(c.Src.Keys) }

// Covers reports whether the CSR indexes exactly the rows of r: the indexed
// relation by identity or by shared backing rows (re-qualified headers), with
// every row encoded.
func (c *CSR) Covers(r *Relation) bool {
	return (c.rel == r || SameRows(c.rel, r)) && c.n == r.Len()
}

// Degree returns the number of edges for a source ordinal (main block plus
// tail chain) — a test and stats helper, not a hot-loop API.
func (c *CSR) Degree(ord int32) int {
	n := 0
	if int(ord)+1 < len(c.Offsets) {
		n = int(c.Offsets[ord+1] - c.Offsets[ord])
	}
	if int(ord) < len(c.TailHead) {
		for e := c.TailHead[ord]; e >= 0; e = c.TailNext[e] {
			n++
		}
	}
	return n
}

// EdgeRows appends the row numbers for a source ordinal, main block first
// then tail chain — the full match set in ascending row order. It is the
// reference iteration used by tests and cold paths; hot loops inline the
// same two sweeps over the exported arrays.
func (c *CSR) EdgeRows(ord int32, out []int32) []int32 {
	if int(ord)+1 < len(c.Offsets) {
		out = append(out, c.Rows[c.Offsets[ord]:c.Offsets[ord+1]]...)
	}
	if int(ord) < len(c.TailHead) {
		for e := c.TailHead[ord]; e >= 0; e = c.TailNext[e] {
			out = append(out, c.TailRows[e])
		}
	}
	return out
}
