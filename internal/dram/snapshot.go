package dram

import (
	"math"

	"updown/internal/snap"
)

// Snapshot implements sim.Snapshotter: the controller's mutable state is
// its bandwidth horizon, traffic counters and the hinted-handoff log (the
// backing store belongs to gasmem, which snapshots separately). A hint
// announcing more operands than Hint.Ops holds is rejected.
func (c *Controller) Snapshot(sc *snap.Codec) (commit func(), err error) {
	busy, bytes, fallback, hints := c.busy64, c.Bytes, c.FallbackReads, c.hints
	snap.W64(sc, &busy)
	snap.W64(sc, &bytes)
	snap.W64(sc, &fallback)
	snap.List(sc, &hints, math.MaxUint64, func(_ int, h *Hint) {
		snap.W64(sc, &h.Intended)
		snap.W64(sc, &h.Kind)
		snap.W64(sc, &h.NOps)
		sc.U64(&h.VA)
		if h.NOps > uint8(len(h.Ops)) {
			sc.Failf("dram: hint with %d operands, at most %d", h.NOps, len(h.Ops))
			return
		}
		for i := range h.NOps {
			sc.U64(&h.Ops[i])
		}
	})
	return func() { c.busy64, c.Bytes, c.FallbackReads, c.hints = busy, bytes, fallback, hints }, sc.Err()
}
