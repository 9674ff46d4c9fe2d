// Package arch describes the UpDown machine: its hierarchy (nodes,
// accelerators, lanes), clock, operation costs, memory and network
// parameters, and the actor-ID space shared by the simulator and the
// runtime layers built on top of it.
//
// The numbers default to the system described in the paper (Section 3):
// 2 GHz lanes, 64 lanes per accelerator, 32 accelerators per node, HBM3e
// memory at 9.4 TB/s per node, 4 TB/s node injection bandwidth, and
// 0.5 microsecond cross-node message latency. All parameters are plain
// struct fields so experiments can sweep them.
package arch

import (
	"errors"
	"fmt"
	"math"
)

// Cycles is simulated time measured in lane clock cycles (2 GHz default).
type Cycles = int64

// NetworkID identifies a computation location: a lane, a per-node memory
// controller, or an auxiliary actor (stream sources, the host TOP core).
// Lanes occupy [0, TotalLanes); memory controllers follow, one per node;
// auxiliary actors are appended after those.
type NetworkID int32

// InvalidNetworkID is returned by lookups that fail.
const InvalidNetworkID NetworkID = -1

// Message kinds understood by simulator actors. Lanes process KindEvent;
// memory controllers process the KindDRAM* requests and reply with
// KindEvent messages carrying the continuation event word.
const (
	// KindEvent is an ordinary UDWeave event message.
	KindEvent uint8 = iota
	// KindDRAMRead requests Ops[1] words starting at virtual address
	// Ops[0]; the response event carries the words as operands.
	KindDRAMRead
	// KindDRAMWrite stores Ops[1:1+n] at virtual address Ops[0]. If the
	// message has a continuation, an acknowledgment event is sent.
	KindDRAMWrite
	// KindDRAMFetchAdd atomically adds Ops[1] to the 64-bit word at
	// Ops[0] and returns the prior value to the continuation. Point
	// queries and match count and claim words with it; PageRank sums in
	// the paper's software fetch-and-add (a combining cache) instead.
	KindDRAMFetchAdd
	// KindControl messages drive auxiliary actors (stream sources).
	KindControl
	// KindEventU is an UDWeave event on the unreliable message class:
	// lanes process it exactly like KindEvent, but the fault-injection
	// layer (internal/fault) may drop, duplicate or delay it. Protocols
	// that carry their own ack/retry/dedup machinery (resilient KVMSR)
	// send on this class; everything else stays on the reliable kinds.
	KindEventU
	// KindDRAMWriteHint is a hinted-handoff leg of a replicated write:
	// the replica's node fail-stopped, so Ops[0] packs (va, intended
	// node) — see gasmem.HintOp — and Ops[1:1+n] carry the words. The
	// receiving controller queues the record for backfill instead of
	// applying it.
	KindDRAMWriteHint
	// KindDRAMFetchAddHint is the hinted form of KindDRAMFetchAdd.
	KindDRAMFetchAddHint
	// NumKinds is one past the last message kind.
	NumKinds
)

// Machine holds every architectural parameter of a simulated UpDown system.
type Machine struct {
	// Nodes is the number of compute nodes (paper: up to 16,384;
	// evaluation: up to 1,024).
	Nodes int
	// AccelsPerNode is the number of UpDown accelerators per node (32).
	AccelsPerNode int
	// LanesPerAccel is the number of lanes per accelerator (64).
	LanesPerAccel int
	// ClockHz is the lane clock (2 GHz). Used only for converting cycle
	// counts into seconds when reporting.
	ClockHz float64

	// LatSameLane is the delivery latency of a message a lane sends to
	// itself (event chaining), in cycles.
	LatSameLane Cycles
	// LatSameAccel is the latency between lanes of one accelerator.
	LatSameAccel Cycles
	// LatSameNode is the latency between accelerators of one node.
	LatSameNode Cycles
	// LatCrossNode is the system network latency (0.5 us = 1000 cycles).
	LatCrossNode Cycles

	// MsgBytes is the fixed network message size (64 bytes).
	MsgBytes int
	// InjectBytesPerCycle is the per-node network injection bandwidth
	// (4 TB/s at 2 GHz = 2000 bytes/cycle).
	InjectBytesPerCycle int

	// DRAMLatency is the access latency of a node's local HBM stack, in
	// cycles, excluding the network hops to reach the controller.
	DRAMLatency Cycles
	// DRAMBytesPerCycle is the per-node memory bandwidth
	// (9.4 TB/s at 2 GHz = 4700 bytes/cycle).
	DRAMBytesPerCycle int
	// DRAMBytesPerNode caps each node's physical memory (capacity model
	// only; allocation beyond it fails).
	DRAMBytesPerNode uint64

	// ScratchBytesPerLane is the lane-private scratchpad capacity.
	ScratchBytesPerLane int

	// Cost table (paper Table 2).
	CostThreadCreate  Cycles // 0: hardware thread management
	CostThreadYield   Cycles // 1
	CostThreadDealloc Cycles // 1
	CostScratchAccess Cycles // 1
	CostSendMessage   Cycles // 1-2; we charge the midpoint behaviour
	CostSendDRAM      Cycles // 1-2
	CostEventDispatch Cycles // pipeline cost to start an event
	CostInstruction   Cycles // one ALU instruction
}

// DefaultMachine returns the paper's system parameters for the given node
// count.
func DefaultMachine(nodes int) Machine {
	return Machine{
		Nodes:               nodes,
		AccelsPerNode:       32,
		LanesPerAccel:       64,
		ClockHz:             2e9,
		LatSameLane:         2,
		LatSameAccel:        10,
		LatSameNode:         30,
		LatCrossNode:        1000,
		MsgBytes:            64,
		InjectBytesPerCycle: 2000,
		DRAMLatency:         200,
		DRAMBytesPerCycle:   4700,
		DRAMBytesPerNode:    64 << 30,
		ScratchBytesPerLane: 64 << 10,
		CostThreadCreate:    0,
		CostThreadYield:     1,
		CostThreadDealloc:   1,
		CostScratchAccess:   1,
		CostSendMessage:     2,
		CostSendDRAM:        2,
		CostEventDispatch:   2,
		CostInstruction:     1,
	}
}

// Validate reports configuration errors.
func (m Machine) Validate() error {
	switch {
	case m.Nodes <= 0:
		return fmt.Errorf("arch: Nodes must be positive, got %d", m.Nodes)
	case m.AccelsPerNode <= 0:
		return fmt.Errorf("arch: AccelsPerNode must be positive, got %d", m.AccelsPerNode)
	case m.LanesPerAccel <= 0:
		return fmt.Errorf("arch: LanesPerAccel must be positive, got %d", m.LanesPerAccel)
	case m.LatSameLane <= 0 || m.LatSameAccel <= 0 || m.LatSameNode <= 0 || m.LatCrossNode <= 0:
		return fmt.Errorf("arch: all latencies must be positive")
	case m.LatCrossNode < m.LatSameNode || m.LatSameNode < m.LatSameAccel || m.LatSameAccel < m.LatSameLane:
		return fmt.Errorf("arch: latencies must be ordered lane <= accel <= node <= system")
	case m.InjectBytesPerCycle <= 0 || m.DRAMBytesPerCycle <= 0 || m.MsgBytes <= 0:
		return fmt.Errorf("arch: bandwidths and message size must be positive")
	case m.DRAMLatency <= 0:
		return fmt.Errorf("arch: DRAMLatency must be positive")
	}
	// Checked by division so the products themselves cannot overflow.
	const ids = math.MaxInt32
	if m.LanesPerAccel > ids/m.AccelsPerNode || m.Nodes > ids/(m.LanesPerNode()+1) {
		return fmt.Errorf("%w: %d nodes of %d×%d lanes", ErrTooManyActors, m.Nodes, m.AccelsPerNode, m.LanesPerAccel)
	}
	return nil
}

// ErrTooManyActors is wrapped by Validate's error for a machine whose lanes
// and memory controllers outnumber the IDs a NetworkID can name (an event
// word carries it in 32 bits).
var ErrTooManyActors = errors.New("arch: machine has more actors than the 2^31-1 a NetworkID can name")

// LanesPerNode returns the number of lanes on one node.
func (m Machine) LanesPerNode() int { return m.AccelsPerNode * m.LanesPerAccel }

// TotalLanes returns the number of lanes in the machine.
func (m Machine) TotalLanes() int { return m.Nodes * m.LanesPerNode() }

// TotalActors returns the size of the fixed actor-ID space: all lanes plus
// one memory controller per node. Auxiliary actors are allocated past it.
func (m Machine) TotalActors() int { return m.TotalLanes() + m.Nodes }

// LaneID returns the NetworkID of a lane by hierarchical coordinates.
func (m Machine) LaneID(node, accel, lane int) NetworkID {
	return NetworkID(node*m.LanesPerNode() + accel*m.LanesPerAccel + lane)
}

// MemCtrlID returns the NetworkID of a node's memory controller.
func (m Machine) MemCtrlID(node int) NetworkID {
	return NetworkID(m.TotalLanes() + node)
}

// IsLane reports whether id names a lane.
func (m Machine) IsLane(id NetworkID) bool {
	return id >= 0 && int(id) < m.TotalLanes()
}

// NodeOf returns the node that hosts an actor. Auxiliary actors (IDs at or
// beyond TotalActors) are placed on node 0, where the host interface sits.
func (m Machine) NodeOf(id NetworkID) int {
	i := int(id)
	switch {
	case i < m.TotalLanes():
		return i / m.LanesPerNode()
	case i < m.TotalActors():
		return i - m.TotalLanes()
	default:
		return 0
	}
}

// AccelOf returns the accelerator index (within its node) of a lane, or -1
// for non-lane actors.
func (m Machine) AccelOf(id NetworkID) int {
	if !m.IsLane(id) {
		return -1
	}
	return (int(id) % m.LanesPerNode()) / m.LanesPerAccel
}

// LaneOf returns the lane index within its accelerator, or -1.
func (m Machine) LaneOf(id NetworkID) int {
	if !m.IsLane(id) {
		return -1
	}
	return int(id) % m.LanesPerAccel
}

// Latency returns the network delivery latency between two actors based on
// their topological distance. Memory controllers count as residents of
// their node.
func (m Machine) Latency(src, dst NetworkID) Cycles {
	if src == dst {
		return m.LatSameLane
	}
	sn, dn := m.NodeOf(src), m.NodeOf(dst)
	if sn != dn {
		return m.LatCrossNode
	}
	if m.IsLane(src) && m.IsLane(dst) &&
		int(src)/m.LanesPerAccel == int(dst)/m.LanesPerAccel {
		return m.LatSameAccel
	}
	return m.LatSameNode
}

// MinCrossNodeLatency is the conservative lookahead used by the parallel
// simulation engine: no message between actors on different nodes can be
// delivered sooner than this.
func (m Machine) MinCrossNodeLatency() Cycles { return m.LatCrossNode }

// Seconds converts a cycle count to seconds at the configured clock.
func (m Machine) Seconds(c Cycles) float64 { return float64(c) / m.ClockHz }
