package exp

import (
	"testing"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// TestChecksumPinned pins the shared checksum scheme to exact outputs: the
// committed BENCH.json baseline and the bench guard compare these
// strings byte-for-byte, so a silent change to the fold (separator, hash
// function, rendering) must fail here first.
func TestChecksumPinned(t *testing.T) {
	// FNV-64a of "1\t2" — the canonical single-row fold.
	if got, want := TupleHash(relation.Tuple{value.Int(1), value.Int(2)}), uint64(0x45f44b1818935e67); got != want {
		t.Errorf("TupleHash(1,2) = %#x, want %#x", got, want)
	}
	// The fold is over rendered values, and Float(2) renders "2" exactly
	// like Int(2) — so equal-rendering tuples hash equal across kinds,
	// matching how the query tools print them.
	if TupleHash(relation.Tuple{value.Int(2)}) != TupleHash(relation.Tuple{value.Float(2)}) {
		t.Error("Int(2) and Float(2) both render \"2\" and must fold equal")
	}

	r := relation.New(schema.Cols(value.KindInt, "F", "T"))
	r.AppendVals(value.Int(1), value.Int(2))
	r.AppendVals(value.Int(3), value.Int(4))
	sum := RelChecksum(r)
	if want := "1289cc003a023c78"; sum != want {
		t.Errorf("RelChecksum = %s, want %s", sum, want)
	}

	// Order independence: the same rows reversed fold to the same string.
	rev := relation.New(r.Sch)
	rev.AppendVals(value.Int(3), value.Int(4))
	rev.AppendVals(value.Int(1), value.Int(2))
	if got := RelChecksum(rev); got != sum {
		t.Errorf("reversed rows checksum %s != %s", got, sum)
	}

	// Empty relation: the zero fold.
	if got := RelChecksum(relation.New(r.Sch)); got != "0000000000000000" {
		t.Errorf("empty checksum = %s", got)
	}
}
