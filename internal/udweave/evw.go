package udweave

import "updown/internal/arch"

// Event words (paper Section 2.1.1): a 64-bit value combining the
// computation location (networkID), the thread context ID, the event label
// (the address of the event in the program), and the operand count.
//
// Layout: [63:32] networkID | [31:16] thread ID | [15:4] label | [3:0] nops.

// Label identifies an event handler within a Program (12 bits).
type Label uint16

// maxLabel bounds the 12-bit label field.
const maxLabel = 1<<12 - 1

// NewThreadTID is the thread-ID sentinel requesting a fresh thread at the
// destination lane; evw_new produces event words carrying it.
const NewThreadTID uint16 = 0xFFFF

// IGNRCONT is the "no continuation" sentinel (paper Listing 1).
const IGNRCONT uint64 = ^uint64(0)

// EvwNew returns an event word for a new thread on the given lane running
// the given event — the evw_new intrinsic.
func EvwNew(nid arch.NetworkID, label Label) uint64 { return EvwExisting(nid, NewThreadTID, label) }

// EvwExisting returns an event word addressing an existing thread (the
// operand count is left 0).
func EvwExisting(nid arch.NetworkID, tid uint16, label Label) uint64 {
	return uint64(uint32(nid))<<32 | uint64(tid)<<16 | uint64(label&maxLabel)<<4
}

// EvwUpdateEvent returns a copy of evw with the event label replaced; the
// networkID and thread context ID are preserved — the evw_update_event
// intrinsic.
func EvwUpdateEvent(evw uint64, label Label) uint64 {
	return evw&^uint64(maxLabel<<4) | uint64(label&maxLabel)<<4
}

// EvwNetworkID extracts the computation location from an event word.
func EvwNetworkID(evw uint64) arch.NetworkID { return arch.NetworkID(int32(evw >> 32)) }

// EvwTID extracts the thread context ID.
func EvwTID(evw uint64) uint16 { return uint16(evw >> 16) }

// EvwLabel extracts the event label.
func EvwLabel(evw uint64) Label { return Label(evw >> 4 & maxLabel) }
