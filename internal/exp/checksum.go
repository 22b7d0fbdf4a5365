// Checksum helpers shared by the experiment records and the bench guard.
// The delta, csr, vector, motif, and concurrent experiments all pin result
// checksums in the committed BENCH.json; one definition here keeps the
// scheme from drifting between them (the guard compares these strings
// byte-for-byte across on/off runs).
package exp

import (
	"fmt"
	"hash/fnv"

	"repro/internal/relation"
)

// TupleHash is the FNV-64a hash of one tuple's rendered values, tab
// separated — the row fold every experiment checksum builds on.
func TupleHash(tu relation.Tuple) uint64 {
	h := fnv.New64a()
	for j, v := range tu {
		if j > 0 {
			h.Write([]byte{'\t'})
		}
		h.Write([]byte(v.String()))
	}
	return h.Sum64()
}

// RelChecksum folds a relation's rows order-independently (XOR of the row
// hashes) into a fixed-width hex string: row orderings hash equal, any
// value difference does not.
func RelChecksum(r *relation.Relation) string {
	var sum uint64
	for _, tu := range r.Tuples {
		sum ^= TupleHash(tu)
	}
	return fmt.Sprintf("%016x", sum)
}
