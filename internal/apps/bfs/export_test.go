package bfs

import "updown/internal/kvmsr"

// ReduceBindingForTest returns the round invocation's (defaulted) reduce
// binding, which also picks the root's seed lane.
func (a *App) ReduceBindingForTest() kvmsr.ReduceBinding { return a.Shuffle.Spec().ReduceBinding }
