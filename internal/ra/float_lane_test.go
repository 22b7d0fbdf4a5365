package ra

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/govern"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/semiring"
	"repro/internal/value"
)

// This file is the float lane's differential: FusedMVJoinCSR under a
// semiring with a float form against the same call with the float form
// cleared, which forces the boxed lane. The cleared semiring is test data,
// not a knob — production semirings either declare a float form or not.

// boxedOnly returns sr with its float form cleared.
func boxedOnly(sr semiring.Semiring) semiring.Semiring {
	sr.Float = semiring.FloatForm{}
	return sr
}

// floatSemirings returns the built-ins that declare a float form.
func floatSemirings() []semiring.Semiring {
	var out []semiring.Semiring
	for _, sr := range semiring.All() {
		if sr.Float.Ok() {
			out = append(out, sr)
		}
	}
	return out
}

// oddFloat returns, one time in ten, a float whose bits a comparison or an
// operand swap can change — a signed zero or NaN — and otherwise x.
func oddFloat(rng *rand.Rand, x float64) float64 {
	switch rng.Intn(30) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return 0
	case 2:
		return math.NaN()
	}
	return x
}

// floatMatrix returns an edge relation E(F,T,ew) over [0, nodes) with
// non-integral float weights — so (+, *) rounding depends on fold order —
// and the odd signed zero or NaN, in which every fourth edge is repeated
// (duplicate edges).
func floatMatrix(rng *rand.Rand, nodes, edges int) *relation.Relation {
	e := relation.New(schema.Schema{
		{Name: "F", Type: value.KindInt},
		{Name: "T", Type: value.KindInt},
		{Name: "ew", Type: value.KindFloat},
	})
	for e.Len() < edges {
		t := relation.Tuple{
			value.Int(rng.Int63n(int64(nodes))),
			value.Int(rng.Int63n(int64(nodes))),
			value.Float(oddFloat(rng, rng.Float64()*3-1)),
		}
		e.Append(t)
		if e.Len()%4 == 0 {
			e.Append(t.Clone())
		}
	}
	return e
}

// floatVector returns V(ID,vw) with non-integral float weights (and the
// odd signed zero or NaN) over [0, nodes+extra): IDs at or past nodes are
// absent from any matrix built by floatMatrix(…, nodes, …), so those
// probes miss.
func floatVector(rng *rand.Rand, nodes, extra int) *relation.Relation {
	v := relation.New(schema.Schema{
		{Name: "ID", Type: value.KindInt},
		{Name: "vw", Type: value.KindFloat},
	})
	for n := 0; n < nodes+extra; n++ {
		if rng.Intn(6) == 0 {
			continue
		}
		v.Append(relation.Tuple{value.Int(int64(n)), value.Float(oddFloat(rng, rng.Float64()*2))})
	}
	return v
}

// sameValue reports whether two values are the same cell: same kind, same
// payload, and for floats the same bits.
func sameValue(a, b value.Value) bool {
	if a.K == value.KindFloat && b.K == value.KindFloat {
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	return reflect.DeepEqual(a, b)
}

// wantSameCells asserts two relations hold the same tuples in the same
// order, float cells compared by their bits.
func wantSameCells(t *testing.T, label string, got, want *relation.Relation) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d tuples, want %d", label, got.Len(), want.Len())
	}
	for i := range want.Tuples {
		g, w := got.Tuples[i], want.Tuples[i]
		if len(g) != len(w) {
			t.Fatalf("%s: tuple %d = %v, want %v", label, i, g, w)
		}
		for j := range w {
			if !sameValue(g[j], w[j]) {
				t.Fatalf("%s: tuple %d = %v, want %v", label, i, g, w)
			}
		}
	}
}

// laneRun runs FusedMVJoinCSR under a fresh governor with the given row
// budget and returns the output, the lane its span names, the governor's
// charged rows, and the error a governor abort raised.
func laneRun(a, c *relation.Relation, csr *relation.CSR, sr semiring.Semiring, maxRows int64) (out *relation.Relation, algo string, rows int64, err error) {
	gov := govern.New(context.Background(), govern.Limits{MaxRows: maxRows})
	defer gov.Close()
	sp := &obs.Span{}
	func() {
		defer govern.RecoverTo(&err)
		out = FusedMVJoinCSR(a, c, csr, NodeVec(), sr, gov, sp)
	}()
	return out, sp.Algo, gov.Rows(), err
}

// TestFusedMVJoinCSRFloatLane asserts the float lane returns the boxed
// lane's tuples — same order, same float bits — and charges the governor
// the same rows, on duplicate edges, tail chains after Extend, probe keys
// absent from the CSR, an empty vector, and both join directions.
func TestFusedMVJoinCSRFloatLane(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for _, sr := range floatSemirings() {
		for trial := 0; trial < 3; trial++ {
			for _, dir := range []struct{ aJoin, aKeep int }{{0, 1}, {1, 0}} {
				a := floatMatrix(rng, 60, 400)
				csr := relation.BuildCSR(a, dir.aJoin, dir.aKeep, 2)
				vecs := map[string]*relation.Relation{
					"vector": floatVector(rng, 60, 15),
					"empty":  floatVector(rng, 0, 0),
				}
				check := func(stage string) {
					for name, c := range vecs {
						label := fmt.Sprintf("%s trial=%d aJoin=%d %s %s", sr.Name, trial, dir.aJoin, stage, name)
						got, algo, rows, err := laneRun(a, c, csr, sr, 0)
						want, boxedAlgo, boxedRows, boxedErr := laneRun(a, c, csr, boxedOnly(sr), 0)
						if err != nil || boxedErr != nil {
							t.Fatalf("%s: %v / %v", label, err, boxedErr)
						}
						if algo != "fused-csr f64" || boxedAlgo != "fused-csr" {
							t.Fatalf("%s: lanes %q and %q, want fused-csr f64 and fused-csr", label, algo, boxedAlgo)
						}
						if rows != boxedRows {
							t.Fatalf("%s: governor rows %d (float) vs %d (boxed)", label, rows, boxedRows)
						}
						wantSameCells(t, label, got, want)
					}
				}
				check("built")
				// Tail chains: rows appended after the build, some with new
				// source keys, some repeating an existing edge.
				for i := 0; i < 80; i++ {
					if i%5 == 0 {
						a.Append(a.Tuples[rng.Intn(a.Len())].Clone())
						continue
					}
					a.Append(relation.Tuple{
						value.Int(rng.Int63n(70)), value.Int(rng.Int63n(70)), value.Float(rng.Float64() - 0.25),
					})
				}
				csr.Extend(a)
				if csr.FloatWeights == nil || len(csr.TailFloatWeights) != len(csr.TailWeights) {
					t.Fatalf("extend lost the float weights: %d main, %d of %d tail",
						len(csr.FloatWeights), len(csr.TailFloatWeights), len(csr.TailWeights))
				}
				check("extended")
			}
		}
	}
}

// TestFusedMVJoinCSRFloatLaneFallback asserts a call the float lane cannot
// serve runs wholly on the boxed lane: a NULL probe weight, an Int weight in
// the matrix, and an Int weight arriving by Extend. The boxed
// lane's output is unchanged by the float form it could not use.
func TestFusedMVJoinCSRFloatLaneFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	sr := semiring.PlusTimes()
	type fixture struct {
		a, c *relation.Relation
		csr  *relation.CSR
	}
	cases := map[string]func() fixture{
		"null probe weight": func() fixture {
			a, c := floatMatrix(rng, 40, 200), floatVector(rng, 40, 0)
			c.Tuples[c.Len()/2][1] = value.Null
			return fixture{a, c, relation.BuildCSR(a, 0, 1, 2)}
		},
		"int matrix weight": func() fixture {
			a, c := floatMatrix(rng, 40, 200), floatVector(rng, 40, 0)
			a.Tuples[7][2] = value.Int(3)
			csr := relation.BuildCSR(a, 0, 1, 2)
			if csr.FloatWeights != nil {
				t.Fatal("an Int weight left FloatWeights filled")
			}
			return fixture{a, c, csr}
		},
		"int weight by extend": func() fixture {
			a, c := floatMatrix(rng, 40, 200), floatVector(rng, 40, 0)
			csr := relation.BuildCSR(a, 0, 1, 2)
			a.Append(relation.Tuple{value.Int(3), value.Int(4), value.Float(0.5)})
			a.Append(relation.Tuple{value.Int(5), value.Int(6), value.Int(2)})
			csr.Extend(a)
			if csr.FloatWeights != nil || csr.TailFloatWeights != nil {
				t.Fatal("an extended Int weight left the float weights filled")
			}
			return fixture{a, c, csr}
		},
	}
	for name, mk := range cases {
		f := mk()
		got, algo, rows, err := laneRun(f.a, f.c, f.csr, sr, 0)
		want, _, boxedRows, boxedErr := laneRun(f.a, f.c, f.csr, boxedOnly(sr), 0)
		if err != nil || boxedErr != nil {
			t.Fatalf("%s: %v / %v", name, err, boxedErr)
		}
		if algo != "fused-csr" {
			t.Errorf("%s: ran lane %q, want the boxed fused-csr", name, algo)
		}
		if rows != boxedRows {
			t.Errorf("%s: governor rows %d vs %d", name, rows, boxedRows)
		}
		wantSameCells(t, name, got, want)
	}
	// A semiring without a float form never takes the float lane.
	a, c := floatMatrix(rng, 40, 200), floatVector(rng, 40, 0)
	if _, algo, _, _ := laneRun(a, c, relation.BuildCSR(a, 0, 1, 2), semiring.OrAnd(), 0); algo != "fused-csr" {
		t.Errorf("or-and ran lane %q, want fused-csr", algo)
	}
}

// TestFusedMVJoinCSRFloatLaneWidensIntProbe asserts an Int probe weight
// against float matrix weights takes the float lane, widened to its float64,
// and folds to the boxed lane's output bit for bit under every semiring with
// a float form — value.Add and value.Mul widen the Int the same way.
func TestFusedMVJoinCSRFloatLaneWidensIntProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(306))
	for _, sr := range []semiring.Semiring{semiring.PlusTimes(), semiring.MinPlus(), semiring.MaxTimes(), semiring.MinTimes()} {
		a, c := floatMatrix(rng, 40, 200), floatVector(rng, 40, 0)
		for i := range c.Tuples {
			if i%3 != 0 {
				c.Tuples[i][1] = value.Int(int64(rng.Intn(7) - 3))
			}
		}
		csr := relation.BuildCSR(a, 0, 1, 2)
		got, algo, rows, err := laneRun(a, c, csr, sr, 0)
		want, _, boxedRows, boxedErr := laneRun(a, c, csr, boxedOnly(sr), 0)
		if err != nil || boxedErr != nil {
			t.Fatalf("%s: %v / %v", sr.Name, err, boxedErr)
		}
		if algo != "fused-csr f64" {
			t.Errorf("%s: ran lane %q, want fused-csr f64", sr.Name, algo)
		}
		if rows != boxedRows {
			t.Errorf("%s: governor rows %d vs %d", sr.Name, rows, boxedRows)
		}
		wantSameCells(t, sr.Name, got, want)
	}
}

// TestFusedMVJoinCSRFloatLaneBudget asserts a row budget below the probe
// (and edge) count fails both lanes with the same BudgetError.
func TestFusedMVJoinCSRFloatLaneBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	sr := semiring.MinTimes()
	a := floatMatrix(rng, 2000, 6000)
	csr := relation.BuildCSR(a, 0, 1, 2)
	c := floatVector(rng, 2000, 0)
	limit := int64(c.Len() / 2)
	if limit >= int64(a.Len()) || limit <= probeMorsel {
		t.Fatalf("fixture: limit %d must sit between one morsel and %d edges", limit, a.Len())
	}
	_, _, rows, err := laneRun(a, c, csr, sr, limit)
	_, _, boxedRows, boxedErr := laneRun(a, c, csr, boxedOnly(sr), limit)
	var be *govern.BudgetError
	if !errors.As(err, &be) || be.Resource != "rows" {
		t.Fatalf("float lane: err %v, want a rows BudgetError", err)
	}
	if !reflect.DeepEqual(err, boxedErr) || rows != boxedRows {
		t.Fatalf("float lane failed with %v after %d rows, boxed with %v after %d", err, rows, boxedErr, boxedRows)
	}
}

// BenchmarkFusedMVJoinCSRFloat is BenchmarkFusedMVJoinCSR on an all-float
// matrix and vector — the float lane; -boxed variants clear the float form.
func BenchmarkFusedMVJoinCSRFloat(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	a := floatMatrix(rng, 4096, 32768)
	c := floatVector(rng, 4096, 0)
	csr := relation.BuildCSR(a, 0, 1, 2)
	for _, sr := range []semiring.Semiring{semiring.PlusTimes(), boxedOnly(semiring.PlusTimes())} {
		name := "float"
		if !sr.Float.Ok() {
			name = "boxed"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				FusedMVJoinCSR(a, c, csr, NodeVec(), sr, nil, nil)
			}
		})
	}
}
