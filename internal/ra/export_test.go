package ra

// The frontier kernel's test modes, for the bounded-exhaustive check in
// frontier_exhaustive_test.go: FrontierOff makes the kernel decline every
// call (the unfused join, then DiffAdd, runs instead), and each Mutate*
// plants one fault the check must catch.
const (
	FrontierOff      = frontierOff
	MutateUnseeded   = mutateUnseeded
	MutateTargetOnly = mutateTargetOnly
)

// SetFrontierTestMode switches the kernel to mode ("" is the real kernel)
// until the returned func restores the previous mode. Tests that use it must
// not run in parallel.
func SetFrontierTestMode(mode string) (restore func()) {
	prev := frontierTestMode
	frontierTestMode = mode
	return func() { frontierTestMode = prev }
}
