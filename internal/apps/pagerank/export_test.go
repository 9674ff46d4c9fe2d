package pagerank

import "updown/internal/kvmsr"

// MapBindingForTest returns the (defaulted) map binding of the main
// map-shuffle-reduce invocation and of the apply doAll.
func (a *App) MapBindingForTest() (main, apply kvmsr.MapBinding) {
	return a.Shuffle.Spec().MapBinding, a.applyInv.Spec().MapBinding
}

// ReduceBindingForTest returns the main invocation's reduce binding.
func (a *App) ReduceBindingForTest() kvmsr.ReduceBinding { return a.Shuffle.Spec().ReduceBinding }
