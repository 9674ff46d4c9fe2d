package kvmsr

import (
	"updown/internal/arch"
	"updown/internal/prng"
	"updown/internal/udweave"
)

// Test-only accessors for the package-internal binding methods.

// InitialRangeForTest exposes the contiguous range MapBinding.initialKeys
// hands lane laneIdx of a laneCount-lane set (Block, PBMW, Stride).
func InitialRangeForTest(b MapBinding, laneIdx, laneCount int, numKeys uint64) (uint64, uint64) {
	s := b.initialKeys(arch.Machine{}, LaneSet{Count: laneCount}, arch.NetworkID(laneIdx), numKeys)
	return s.next, s.end
}

// PoolStartForTest exposes MapBinding.poolStart.
func PoolStartForTest(b MapBinding, laneCount int, numKeys uint64) uint64 {
	return b.poolStart(laneCount, numKeys)
}

// ReportModeForTest reports whether the executing lane is in report mode.
func (v *Invocation) ReportModeForTest(c *udweave.Ctx) bool { return v.st(c).reportMode }

// PushesForTest returns how many delta messages one lane has pushed.
func (v *Invocation) PushesForTest(peek func(arch.NetworkID) any, lane arch.NetworkID) uint64 {
	var n uint64
	eachLane(v, peek, v.slot, func(l arch.NetworkID, st *laneState) {
		if l == lane {
			n = st.term.Pushes
		}
	})
	return n
}

// HandOffSlotForTest returns the FirstWins table slot key occupies.
func HandOffSlotForTest(key uint64) uint64 { return prng.Mix64(key) >> (64 - handedBits) }
