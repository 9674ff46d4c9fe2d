package kvmsr

import (
	"fmt"

	"updown/internal/arch"
	"updown/internal/gasmem"
	"updown/internal/prng"
)

// LaneSet is the contiguous range of lanes a KVMSR invocation targets.
type LaneSet struct {
	// First is the first lane; it hosts the invocation master.
	First arch.NetworkID
	// Count is the number of lanes.
	Count int
}

// AllLanes targets the whole machine.
func AllLanes(m arch.Machine) LaneSet {
	return LaneSet{First: 0, Count: m.TotalLanes()}
}

// End returns one past the last lane.
func (ls LaneSet) End() arch.NetworkID { return ls.First + arch.NetworkID(ls.Count) }

// Contains reports membership.
func (ls LaneSet) Contains(id arch.NetworkID) bool { return id >= ls.First && id < ls.End() }

// Overlaps reports whether the two sets share a lane.
func (ls LaneSet) Overlaps(o LaneSet) bool { return ls.First < o.End() && o.First < ls.End() }

// Index returns the zero-based position of a lane within the set.
func (ls LaneSet) Index(id arch.NetworkID) int { return int(id - ls.First) }

// Validate checks the set against a machine.
func (ls LaneSet) Validate(m arch.Machine) error {
	if ls.Count <= 0 {
		return fmt.Errorf("kvmsr: LaneSet.Count must be positive, got %d", ls.Count)
	}
	// In int: End wraps in NetworkID's 32 bits.
	if end := int(ls.First) + ls.Count; ls.First < 0 || end > m.TotalLanes() {
		return fmt.Errorf("kvmsr: LaneSet [%d,%d) outside machine of %d lanes", ls.First, end, m.TotalLanes())
	}
	return nil
}

// Tree geometry: KVMSR organizes the lane set hierarchically
// (master -> node masters -> accelerator masters -> lanes) so that
// broadcast and reduction avoid serializing hundreds of thousands of sends
// at one lane. Two rules place every role: unit gives the set's lanes in
// the role's unit (one lane, one accelerator, one node, or the whole set)
// and holder the lane of the unit that holds the role. A role's parent
// holds the unit one level up that contains it; its children hold the
// units one level down that it contains. All of it is a pure function of
// (machine, set), so every participant derives its role, parent and
// children locally without any metadata traffic.

// unit returns the set's lanes [lo, hi) in the unit at level that contains
// lane.
func (ls LaneSet) unit(m arch.Machine, level uint64, lane arch.NetworkID) (lo, hi arch.NetworkID) {
	size := 1
	switch level {
	case levelAccel:
		size = m.LanesPerAccel
	case levelNode:
		size = m.LanesPerNode()
	case levelMaster:
		return ls.First, ls.End()
	}
	return ls.clip(int(lane)-int(lane)%size, size)
}

// holder returns the lane that holds the role of the unit [lo, hi) at
// level, keeping the roles off the lanes that do the work: an accelerator's
// goes on its last lane, a node's on the highest lane that holds no other
// role and is no accelerator's first lane (where a Stride{LanesPerAccel}
// map task runs), or on lo if there is none. The master stays on the set's
// first lane, where launches are addressed.
func (ls LaneSet) holder(m arch.Machine, level uint64, lo, hi arch.NetworkID) arch.NetworkID {
	switch level {
	case levelAccel:
		return hi - 1
	case levelNode:
		for b := hi; b > lo; {
			a, _ := ls.unit(m, levelAccel, b-1)
			if c := b - 2; c >= a && int(c)%m.LanesPerAccel != 0 && c != ls.First {
				return c
			}
			b = a
		}
	}
	return lo
}

// clip returns the set's lanes among the size lanes from lo.
func (ls LaneSet) clip(lo, size int) (arch.NetworkID, arch.NetworkID) {
	return max(arch.NetworkID(lo), ls.First), min(arch.NetworkID(lo+size), ls.End())
}

// firstNode and lastNode bound the nodes the set touches.
func (ls LaneSet) firstNode(m arch.Machine) int { return m.NodeOf(ls.First) }
func (ls LaneSet) lastNode(m arch.Machine) int  { return m.NodeOf(ls.End() - 1) }

// NumNodes returns how many nodes the set touches.
func (ls LaneSet) NumNodes(m arch.Machine) int { return ls.lastNode(m) - ls.firstNode(m) + 1 }

// MapBinding distributes map keys over the lane set (paper Section 2.3).
type MapBinding interface {
	// initialKeys returns the keys statically assigned to one lane of the
	// set for a key space of numKeys. Every lane derives its own walk from
	// (lane, set, numKeys) and what the binding itself holds — no metadata
	// traffic.
	initialKeys(m arch.Machine, ls LaneSet, lane arch.NetworkID, numKeys uint64) keySeq
	// dynamic reports whether exhausted lanes should ask the master for
	// more work (the PBMW protocol).
	dynamic() bool
	// poolStart returns the first key held back for dynamic distribution
	// (= numKeys when nothing is pooled).
	poolStart(laneCount int, numKeys uint64) uint64
	// chunk is the grant size for dynamic requests.
	chunk() uint64
}

// keySeq is a lane's walk over its assigned keys: positions next,
// next+step, ... below end. A position is the key itself (the contiguous
// ranges of Block, Stride, PBMW and its grants) or, under the Owner binding
// (home.PerBlock != 0), the index among the keys that ring position pos of
// a striped array homes.
type keySeq struct {
	next, end, step uint64
	home            gasmem.Striping
	pos             int
}

// keyRange is the walk over the contiguous keys [start, end).
func keyRange(start, end uint64) keySeq { return keySeq{next: start, end: end, step: 1} }

func (s *keySeq) empty() bool { return s.next >= s.end }

// striped reports whether positions unfold block-cyclically.
func (s *keySeq) striped() bool { return s.home.PerBlock != 0 }

// pop returns the next key of a non-empty walk.
func (s *keySeq) pop() uint64 {
	p := s.next
	s.next += s.step
	if s.striped() {
		return s.home.ElemAt(s.pos, p)
	}
	return p
}

// blockRange is lane laneIdx's share when numKeys keys are dealt to
// laneCount lanes in contiguous runs of per keys.
func blockRange(laneIdx int, per, numKeys uint64) keySeq {
	start := uint64(laneIdx) * per
	return keyRange(min(start, numKeys), min(start+per, numKeys))
}

// Block assigns every lane an equal, contiguous portion of the keys — the
// default kv_map binding.
type Block struct{}

func (Block) initialKeys(_ arch.Machine, ls LaneSet, lane arch.NetworkID, numKeys uint64) keySeq {
	per := (numKeys + uint64(ls.Count) - 1) / uint64(ls.Count)
	return blockRange(ls.Index(lane), per, numKeys)
}
func (Block) dynamic() bool                                  { return false }
func (Block) poolStart(laneCount int, numKeys uint64) uint64 { return numKeys }
func (Block) chunk() uint64                                  { return 0 }

// PBMW is partial-block plus master-worker: each lane receives InitialFrac
// of its equal share up front; the remainder is pooled at the master and
// handed out in ChunkSize grants as lanes finish, which tolerates skewed
// per-key work (the triangle-counting variant in Section 4.3.3).
type PBMW struct {
	// InitialDenom: lanes statically receive share/InitialDenom keys
	// (default 2, i.e. half).
	InitialDenom int
	// ChunkSize is the dynamic grant size (default 64 keys).
	ChunkSize uint64
}

func (b PBMW) denom() int {
	if b.InitialDenom <= 0 {
		return 2
	}
	return b.InitialDenom
}

func (b PBMW) chunk() uint64 {
	if b.ChunkSize == 0 {
		return 64
	}
	return b.ChunkSize
}

func (b PBMW) perLane(laneCount int, numKeys uint64) uint64 {
	per := (numKeys + uint64(laneCount) - 1) / uint64(laneCount)
	per /= uint64(b.denom())
	if per == 0 && numKeys > 0 {
		per = 1
	}
	return per
}

func (b PBMW) initialKeys(_ arch.Machine, ls LaneSet, lane arch.NetworkID, numKeys uint64) keySeq {
	return blockRange(ls.Index(lane), b.perLane(ls.Count, numKeys), numKeys)
}

func (b PBMW) dynamic() bool { return true }

func (b PBMW) poolStart(laneCount int, numKeys uint64) uint64 {
	p := b.perLane(laneCount, numKeys) * uint64(laneCount)
	if p > numKeys {
		p = numKeys
	}
	return p
}

// Stride assigns key k to the lane at set index k*Step: with Step equal to
// the lanes per accelerator, exactly one map task lands on each
// accelerator's master lane. BFS uses this to map over per-accelerator
// frontier sections (Section 4.2.2), with each task then organizing its
// accelerator's 64 lanes as local workers.
type Stride struct {
	// Step is the lane-index distance between consecutive keys (>= 1).
	Step int
}

func (b Stride) step() int {
	if b.Step < 1 {
		return 1
	}
	return b.Step
}

func (b Stride) initialKeys(_ arch.Machine, ls LaneSet, lane arch.NetworkID, numKeys uint64) keySeq {
	s := b.step()
	laneIdx := ls.Index(lane)
	if laneIdx%s != 0 {
		return keySeq{}
	}
	k := uint64(laneIdx / s)
	if k >= numKeys {
		return keySeq{}
	}
	return keyRange(k, k+1)
}
func (Stride) dynamic() bool                                  { return false }
func (Stride) poolStart(laneCount int, numKeys uint64) uint64 { return numKeys }
func (Stride) chunk() uint64                                  { return 0 }

// Owner is the owner-computes binding: the task for key k runs on a lane of
// the node that homes element k of a DRAMmalloc'd array, so a kv_map,
// kv_reduce or doAll body that starts by touching record k does so with a
// node-local access. It is built from the array's region descriptor (see
// NewOwner) and serves as MapBinding and as ReduceBinding.
//
// As a MapBinding it deals the keys each node homes cyclically over that
// node's lanes of the set: consecutive keys go to consecutive lanes, which
// also breaks up the run of members a split hub would hand one lane under
// Block. As a ReduceBinding it hashes k over the lanes of k's home node —
// still a pure function of the key, so a combining cache keeps its
// one-owner-lane rule.
type Owner struct {
	home gasmem.Striping
	// lanesPerNode is the machine's (Lane runs per emitted tuple).
	lanesPerNode int
}

// NewOwner builds the binding for keys indexing the elemBytes-byte elements
// r holds from its base, or reports that it does not apply. It applies iff
// the region's nodes are exactly the nodes of the lane set and there is
// more than one of them — a property of the input, not a choice: with
// memory and compute on different node sets some keys have no lane at home,
// and on a single node every lane is at home and Block's contiguous ranges
// measure no worse than cyclic dealing. Callers keep their default binding
// then.
func NewOwner(m arch.Machine, ls LaneSet, r *gasmem.Region, elemBytes uint64) (Owner, bool) {
	if r == nil {
		return Owner{}, false
	}
	home, ok := r.Striping(elemBytes)
	o := Owner{home: home, lanesPerNode: m.LanesPerNode()}
	if !ok || home.NRNodes < 2 || !o.fits(m, ls) {
		return Owner{}, false
	}
	return o, true
}

// fits reports whether the array's nodes are exactly the lane set's.
func (o Owner) fits(m arch.Machine, ls LaneSet) bool {
	return o.home.FirstNode == ls.firstNode(m) && o.home.NRNodes == ls.NumNodes(m)
}

func (o Owner) initialKeys(m arch.Machine, ls LaneSet, lane arch.NetworkID, numKeys uint64) keySeq {
	pos := m.NodeOf(lane) - o.home.FirstNode
	lo, hi := ls.unit(m, levelNode, lane)
	return keySeq{next: uint64(lane - lo), end: o.home.CountAt(pos, numKeys), step: uint64(hi - lo),
		home: o.home, pos: pos}
}
func (Owner) dynamic() bool                                  { return false }
func (Owner) poolStart(laneCount int, numKeys uint64) uint64 { return numKeys }
func (Owner) chunk() uint64                                  { return 0 }

// Lane implements ReduceBinding.
func (o Owner) Lane(key uint64, ls LaneSet) arch.NetworkID {
	lo, hi := ls.clip(o.home.Node(key)*o.lanesPerNode, o.lanesPerNode)
	return lo + arch.NetworkID(prng.Mix64(key)%uint64(hi-lo))
}

// ReduceBinding maps an emitted key to the lane that runs its kv_reduce
// task.
type ReduceBinding interface {
	Lane(key uint64, ls LaneSet) arch.NetworkID
}

// Hash scatters keys uniformly over the lane set — the default kv_reduce
// binding, which gives good load balance on skewed key distributions.
type Hash struct{}

// Lane implements ReduceBinding: LaneID = (hash(key) % NRLanes) + 1stLane.
func (Hash) Lane(key uint64, ls LaneSet) arch.NetworkID {
	return ls.First + arch.NetworkID(prng.Mix64(key)%uint64(ls.Count))
}

// ReduceFunc adapts a function to ReduceBinding, for application-defined
// bindings (e.g. triangle counting hashes a combination of vertex names).
type ReduceFunc func(key uint64, ls LaneSet) arch.NetworkID

// Lane implements ReduceBinding.
func (f ReduceFunc) Lane(key uint64, ls LaneSet) arch.NetworkID { return f(key, ls) }
