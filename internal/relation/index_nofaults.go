//go:build !hashindexfaults

package relation

// indexTestMode is "" outside the hashindexfaults build: no fault planted.
const indexTestMode = ""
