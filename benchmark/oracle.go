package main

import (
	"math"
	"strconv"
	"strings"

	"repro/graphsql"
	"repro/internal/refimpl"
)

// answer identifies a reply without keeping it: the row count and an
// order-independent checksum (wrapping sum of the FNV-1a hash of every
// payload line).
type answer struct {
	n   int
	sum uint64
}

// fnv is 64-bit FNV-1a.
func fnv[T string | []byte](s T) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

func answerOf(lines []string) answer {
	a := answer{n: len(lines)}
	for _, l := range lines {
		a.sum += fnv(l)
	}
	return a
}

// lineBuf renders expected payload lines the way internal/server does
// (tab-separated value.String() forms) and folds them into an answer.
type lineBuf struct {
	a   answer
	buf []byte
}

func (l *lineBuf) int(v int64) *lineBuf {
	l.sep()
	l.buf = strconv.AppendInt(l.buf, v, 10)
	return l
}

func (l *lineBuf) float(v float64) *lineBuf {
	l.sep()
	l.buf = strconv.AppendFloat(l.buf, v, 'g', -1, 64)
	return l
}

func (l *lineBuf) sep() {
	if len(l.buf) > 0 {
		l.buf = append(l.buf, '\t')
	}
}

func (l *lineBuf) end() {
	l.a.n++
	l.a.sum += fnv(l.buf)
	l.buf = l.buf[:0]
}

// oracle holds reference answers computed from the graph's adjacency,
// sharing no code with the engine under test. For a read-only workload
// every answer is precomputed in set-up; for the live workload the oracle
// keeps a shadow adjacency that replays each write the client sent and
// answers reads from it on the fly.
type oracle struct {
	n    int
	out  [][]arc // current adjacency (shadow of the addressed edge table)
	base [][]arc // adjacency of E, what a reload restores
	live bool

	perID map[string][]answer // class → answer per source id (static only)
	whole map[string]answer   // classes without an id
	pr    []float64           // refimpl PageRank, compared within tolerance
}

func adjacency(g *graphsql.Graph) [][]arc {
	out := make([][]arc, g.N)
	for _, e := range g.Edges {
		out[e.F] = append(out[e.F], arc{to: e.T, w: e.W})
	}
	return out
}

func cloneAdj(a [][]arc) [][]arc {
	out := make([][]arc, len(a))
	for i, l := range a {
		out[i] = append([]arc(nil), l...)
	}
	return out
}

// newOracle precomputes the reference answers the workload's classes need.
func newOracle(wl *workload, g *graphsql.Graph) *oracle {
	o := &oracle{n: g.N, base: adjacency(g), live: wl.reloadEvery > 0,
		perID: map[string][]answer{}, whole: map[string]answer{}}
	if o.live {
		o.out = cloneAdj(o.base)
		return o
	}
	o.out = o.base
	for _, class := range wl.classes() {
		switch class {
		case "pr":
			o.pr = refimpl.PageRank(g, 0.85, 15)
		case "wcc":
			var l lineBuf
			for id, label := range refimpl.WCC(g) {
				l.int(int64(id)).float(float64(label)).end()
			}
			o.whole[class] = l.a
		case "triangle":
			var l lineBuf
			l.int(o.triangles()).end()
			o.whole[class] = l.a
		case "filteragg":
			o.whole[class] = o.filterAgg(0.5)
		case "scan":
			var l lineBuf
			for f, arcs := range o.out {
				for _, a := range arcs {
					l.int(int64(f)).int(int64(a.to)).float(a.w).end()
				}
			}
			o.whole[class] = l.a
		default:
			as := make([]answer, o.n)
			for id := range as {
				as[id] = o.compute(class, int32(id))
			}
			o.perID[class] = as
		}
	}
	return o
}

// compute answers one id-pinned class from the current adjacency.
func (o *oracle) compute(class string, id int32) answer {
	var l lineBuf
	switch class {
	case "lookup":
		for _, a := range o.out[id] {
			l.int(int64(a.to)).float(a.w).end()
		}
	case "vertex":
		// gsqld loads V with zero vertex weights.
		l.float(0).end()
	case "onehop":
		for _, a := range o.out[id] {
			l.int(int64(a.to)).end()
		}
	case "hop2":
		for _, a := range o.out[id] {
			for _, b := range o.out[a.to] {
				l.int(int64(b.to)).end()
			}
		}
	case "reach":
		for v, d := range o.bfs(id, math.MaxInt32) {
			if d > 0 {
				l.int(int64(v)).end()
			}
		}
	case "khop":
		// maxrecursion k runs k recursive steps after the seed branch, and
		// the recursive relation has set semantics: distinct vertices at
		// the end of a path of 1..k+1 edges.
		cnt := 0
		for _, d := range o.bfs(id, khopDepth+1) {
			if d > 0 {
				cnt++
			}
		}
		l.int(int64(cnt)).end()
	case "shortest":
		for v, d := range o.distances(id) {
			if d < 1e18 {
				l.int(int64(v)).float(d).end()
			}
		}
	default:
		panic("benchmark: no oracle for class " + class)
	}
	return l.a
}

// bfs returns, per vertex, the length of the shortest path of at least one
// edge from src (so src itself gets its shortest cycle), or 0 when there is
// none within maxDepth edges.
func (o *oracle) bfs(src int32, maxDepth int) []int32 {
	depth := make([]int32, o.n)
	frontier := []int32{src}
	for d := int32(1); len(frontier) > 0 && int(d) <= maxDepth; d++ {
		var next []int32
		for _, u := range frontier {
			for _, a := range o.out[u] {
				if depth[a.to] == 0 {
					depth[a.to] = d
					next = append(next, a.to)
				}
			}
		}
		frontier = next
	}
	return depth
}

// distances is queue-based Bellman-Ford from src; unreachable vertices keep
// the engine's 1e18 sentinel.
func (o *oracle) distances(src int32) []float64 {
	dist := make([]float64, o.n)
	for i := range dist {
		dist[i] = 1e18
	}
	dist[src] = 0
	queued := make([]bool, o.n)
	queue := []int32{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		queued[u] = false
		for _, a := range o.out[u] {
			if nd := dist[u] + a.w; nd < dist[a.to] {
				dist[a.to] = nd
				if !queued[a.to] {
					queued[a.to] = true
					queue = append(queue, a.to)
				}
			}
		}
	}
	return dist
}

// triangles counts directed 3-cycles as ordered edge triples, the way the
// three-way self-join does (each cycle is counted once per rotation).
func (o *oracle) triangles() int64 {
	has := make([]map[int32]int, o.n)
	for f, arcs := range o.out {
		has[f] = make(map[int32]int, len(arcs))
		for _, a := range arcs {
			has[f][a.to]++
		}
	}
	var cnt int64
	for a, arcs := range o.out {
		for _, ab := range arcs {
			for _, bc := range o.out[ab.to] {
				cnt += int64(has[bc.to][int32(a)])
			}
		}
	}
	return cnt
}

// filterAgg is `select F, count(*), sum(ew) … where ew > min group by F`.
func (o *oracle) filterAgg(min float64) answer {
	var l lineBuf
	for f, arcs := range o.out {
		cnt, sum := 0, 0.0
		for _, a := range arcs {
			if a.w > min {
				cnt++
				sum += a.w
			}
		}
		if cnt > 0 {
			l.int(int64(f)).int(int64(cnt)).float(sum).end()
		}
	}
	return l.a
}

// check verifies one reply. Statements that return no rows (DML) must
// return none.
func (o *oracle) check(st statement, lines []string) bool {
	switch st.class {
	case "insert", "reload":
		return len(lines) == 0
	case "pr":
		return o.checkPR(lines)
	}
	if want, ok := o.whole[st.class]; ok {
		return answerOf(lines) == want
	}
	if as, ok := o.perID[st.class]; ok {
		return answerOf(lines) == as[st.id]
	}
	return answerOf(lines) == o.compute(st.class, st.id)
}

// checkPR compares `run PR` rows (ID, rank) with refimpl.PageRank within a
// relative 1e-9: the engine sums in join order, the reference in edge order.
func (o *oracle) checkPR(lines []string) bool {
	if len(lines) != len(o.pr) {
		return false
	}
	seen := make([]bool, len(o.pr))
	for _, l := range lines {
		idText, rankText, ok := strings.Cut(l, "\t")
		if !ok {
			return false
		}
		id, err := strconv.Atoi(idText)
		if err != nil || id < 0 || id >= len(o.pr) || seen[id] {
			return false
		}
		rank, err := strconv.ParseFloat(rankText, 64)
		if err != nil || math.Abs(rank-o.pr[id]) > 1e-9*math.Max(1, math.Abs(o.pr[id])) {
			return false
		}
		seen[id] = true
	}
	return true
}

// apply replays an acknowledged write on the shadow adjacency.
func (o *oracle) apply(st statement) {
	switch {
	case st.class == "insert":
		for i, f := range st.from {
			o.out[f] = append(o.out[f], st.rows[i])
		}
	case st.class == "reload" && strings.HasPrefix(st.arg, "truncate"):
		o.out = make([][]arc, o.n)
	case st.class == "reload":
		for f, arcs := range o.base {
			o.out[f] = append(o.out[f], arcs...)
		}
	}
}
