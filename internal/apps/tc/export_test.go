package tc

import "updown/internal/kvmsr"

// MapBindingForTest returns the main invocation's map binding.
func (a *App) MapBindingForTest() kvmsr.MapBinding { return a.Shuffle.Spec().MapBinding }
