//go:build hashindexfaults

package relation

import "testing"

// TestHashIndexPlantedFaults checks that the bounded-exhaustive HashIndex
// check catches each planted fault of the dense layout. The faults exist
// only in this build:
//
//	go test -tags hashindexfaults ./internal/relation -run HashIndexPlantedFaults
func TestHashIndexPlantedFaults(t *testing.T) {
	for _, mode := range []string{mutateFractionSlot, mutateReverseChain, mutateNullDropped} {
		indexTestMode = mode
		bad := hashIndexMismatch(*hashIndexRows)
		indexTestMode = ""
		if bad == "" {
			t.Errorf("planted fault %q not caught", mode)
		} else {
			t.Logf("%s: caught: %s", mode, bad)
		}
	}
}
