package pagerank

import (
	"updown"
	"updown/internal/kvmsr"
)

// MapBindingForTest returns the (defaulted) map binding of the
// map-shuffle-reduce invocation.
func (a *App) MapBindingForTest() kvmsr.MapBinding { return a.Shuffle.Spec().MapBinding }

// ReduceBindingForTest returns the main invocation's reduce binding.
func (a *App) ReduceBindingForTest() kvmsr.ReduceBinding { return a.Shuffle.Spec().ReduceBinding }

// CachedForTest counts the combining cache's entries on every lane.
func (a *App) CachedForTest() int {
	n := 0
	for lane := 0; lane < a.M.Arch.TotalLanes(); lane++ {
		n += a.cc.Pending(a.M.Engine.PeekActor(updown.NetworkID(lane)))
	}
	return n
}
