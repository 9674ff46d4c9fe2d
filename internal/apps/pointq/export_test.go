package pointq

import "updown"

const SlotShift, SpreadShift = slotShift, spreadShift

// Key is vertex v's reduce key in slot for a tuple sent from lane from.
func (e *Engine) Key(slot, v uint64, from updown.NetworkID) uint64 { return e.key(slot, v, from) }

// ReduceLane is the lane slot's reduce binding sends key to.
func (e *Engine) ReduceLane(key uint64) updown.NetworkID {
	s := e.inv.Spec()
	return s.ReduceBinding.Lane(key, s.Lanes)
}
