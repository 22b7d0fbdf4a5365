//go:build hashindexfaults

package relation

// indexTestMode names the dense-layout fault hashindex_faults_test.go plants
// (mutateFractionSlot, mutateReverseChain, mutateNullDropped), or "".
var indexTestMode string
