// Package gasmem implements UpDown's shared global address space and the
// DRAMmalloc allocator (paper Section 2.4): contiguous virtual regions are
// mapped block-cyclically over a set of node memories, each region encoded
// as a single translation descriptor that converts a virtual address into
// a physical node number (PNN) and an offset within that node in O(1).
//
// Storage is word-granular (the UpDown applications in the paper operate on
// 64-bit words); virtual addresses are byte addresses and must be 8-byte
// aligned for data access.
package gasmem

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
)

// VA is a virtual address in the shared global address space.
type VA = uint64

// FloorPow2 returns the largest power of two that is <= n, or 0 for
// n <= 0. Callers that spread an allocation over "all nodes" use it to
// clamp a non-power-of-two machine (for example one carrying a spare
// node for replication chaos runs) down to a legal DRAMmalloc span.
func FloorPow2(n int) int {
	if n <= 0 {
		return 0
	}
	return 1 << (bits.Len(uint(n)) - 1)
}

// WordBytes is the access granularity.
const WordBytes = 8

// vaBase keeps allocations away from address zero so that a zero VA can be
// used as "null" by application data structures.
const vaBase VA = 1 << 20

// Region is one DRAMmalloc allocation: its translation descriptor plus the
// base physical offset the allocation occupies on each participating node.
type Region struct {
	// Base and Size delimit the virtual address range [Base, Base+Size).
	Base VA
	Size uint64
	// FirstNode is the first participating node; NRNodes nodes starting
	// there hold the data cyclically (power of two, per the paper).
	FirstNode int
	NRNodes   int
	// BS is the distribution block size in bytes (power of two, and at
	// least 4 KiB in the paper's hardware encoding; smaller values are
	// accepted here for reduced-scale experiments but remain powers of
	// two so the descriptor stays a swizzle mask).
	BS uint64

	// Rep is the replication factor: every block is stored on Rep
	// consecutive ring positions starting at its home position, so a
	// fail-stopped node leaves Rep-1 live copies of each of its blocks
	// (Dynamo-style preference list walked clockwise from the home).
	Rep int

	// Owner tags the region with the job that allocated it (0 =
	// untagged). The scheduler brackets each job's build phase with
	// SetOwner so OwnerBytes can report per-job DRAM footprints.
	Owner int

	// physBase[i] is the physical byte offset of the region's storage on
	// the node at ring position i (nodes[i]). The storage holds Rep
	// stripes of perNode bytes each: stripe j at physBase[i]+j*perNode
	// carries the blocks whose home position is (i-j) mod NRNodes.
	physBase []uint64

	// nodes[i] is the machine node serving ring position i. Initially
	// FirstNode+i; Reassign substitutes a spare after a fail-stop.
	nodes []int32

	// perNode is the byte size of one replica stripe on one node.
	perNode uint64

	bsShift  uint
	nodeMask uint64
}

// Translate converts a virtual address within the region into the owning
// node and the physical byte offset on that node. This is the swizzle-mask
// computation the UpDown hardware performs with no software overhead.
func (r *Region) Translate(va VA) (node int, phys uint64) {
	return r.TranslateReplica(va, 0)
}

// TranslateReplica resolves replica stripe j of va: the node at ring
// position (home+j) mod NRNodes and the physical byte offset of the copy in
// that node's stripe j. j = 0 is the primary (identical to Translate).
func (r *Region) TranslateReplica(va VA, j int) (node int, phys uint64) {
	off := va - r.Base
	blk := off >> r.bsShift
	n := blk & r.nodeMask
	within := blk >> bits.Len64(r.nodeMask) // blk / NRNodes (power of two)
	if r.nodeMask == 0 {
		within = blk
	}
	i := (n + uint64(j)) & r.nodeMask
	return int(r.nodes[i]), r.physBase[i] + uint64(j)*r.perNode + within<<r.bsShift + (off & (r.BS - 1))
}

// ReplicaIndexOn returns which replica stripe of va the given machine node
// holds, or ok=false if the node is not in va's preference list.
func (r *Region) ReplicaIndexOn(va VA, node int) (j int, ok bool) {
	off := va - r.Base
	n := (off >> r.bsShift) & r.nodeMask
	for j := 0; j < r.Rep; j++ {
		if int(r.nodes[(n+uint64(j))&r.nodeMask]) == node {
			return j, true
		}
	}
	return 0, false
}

// Contains reports whether va falls inside the region.
func (r *Region) Contains(va VA) bool { return va >= r.Base && va < r.Base+r.Size }

// Striping is the software-visible part of a region's descriptor, for an
// array of fixed-size elements laid out from the region's base: which ring
// position homes element i, and the inverse — which elements, in ascending
// order, one ring position homes. It is what a computation binding needs to
// start a task where its data lives using index arithmetic alone; Translate
// stays the authority (the two are checked against each other in the
// tests), and Node names the home as allocated, before any fail-stop
// Reassign.
type Striping struct {
	// FirstNode and NRNodes are the region's node ring.
	FirstNode, NRNodes int
	// PerBlock is the number of elements in one distribution block.
	PerBlock uint64
}

// Striping describes how elements of elemBytes bytes, indexed from the
// region's base, fall on the node ring. ok is false when elements would
// straddle blocks (elemBytes does not divide BS).
func (r *Region) Striping(elemBytes uint64) (s Striping, ok bool) {
	if elemBytes == 0 || r.BS%elemBytes != 0 {
		return Striping{}, false
	}
	return Striping{FirstNode: r.FirstNode, NRNodes: r.NRNodes, PerBlock: r.BS / elemBytes}, true
}

// Pos returns the ring position homing element i.
func (s Striping) Pos(i uint64) int { return int(i / s.PerBlock % uint64(s.NRNodes)) }

// Node returns the node homing element i.
func (s Striping) Node(i uint64) int { return s.FirstNode + s.Pos(i) }

// CountAt returns how many of the elements [0, n) ring position pos homes.
func (s Striping) CountAt(pos int, n uint64) uint64 {
	round := s.PerBlock * uint64(s.NRNodes)
	count := n / round * s.PerBlock
	if rem, skip := n%round, uint64(pos)*s.PerBlock; rem > skip {
		count += min(rem-skip, s.PerBlock)
	}
	return count
}

// ElemAt returns the j-th element (ascending, from 0) homed at ring
// position pos.
func (s Striping) ElemAt(pos int, j uint64) uint64 {
	return (j/s.PerBlock*uint64(s.NRNodes)+uint64(pos))*s.PerBlock + j%s.PerBlock
}

// extent is one reusable hole in a node's physical store: [Off, Off+Size)
// bytes previously occupied by a reclaimed region. Per-node free lists are
// kept sorted by offset and coalesced, so stack-like allocate/free cycles
// collapse back into the bump pointer and the node's footprint stays flat.
type extent struct {
	Off  uint64
	Size uint64
}

// GAS is the global address space of one simulated machine: per-node
// backing stores plus the set of allocated regions.
//
// Concurrency: during simulation each node's store is accessed only by the
// node's memory controller, which a single simulator shard owns, so no
// locking is needed on the data path. Host-side setup and verification
// happen strictly before and after Engine.Run. Allocation takes a mutex so
// that simulated allocator events could allocate concurrently if needed.
type GAS struct {
	mu       sync.Mutex
	nodes    int
	capacity uint64
	store    [][]uint64 // per node, word-addressed
	used     []uint64   // per node, bytes bump-allocated (high-water)
	free     [][]extent // per node, reclaimed holes sorted by Off, coalesced
	regions  []*Region  // sorted by Base
	nextVA   VA

	// rep is the default replication factor applied by DRAMmalloc
	// (clamped to the allocation's node count); replicated reports
	// whether any region was allocated with Rep > 1.
	rep        int
	replicated bool

	// deadAt[n] is the cycle at which node n fail-stops (aliveForever
	// when it never does); nil until SetFailStop is first called. It
	// mirrors the compiled fault plan so placement decisions — read
	// fall-over, write fan-out, hinted handoff — can consult liveness
	// without a simulator dependency.
	deadAt []int64

	// owner is the tag stamped onto subsequently allocated regions
	// (0 = untagged); see SetOwner.
	owner int
}

// New creates an address space spanning n node memories of capBytes each.
func New(n int, capBytes uint64) *GAS {
	return &GAS{
		nodes:    n,
		capacity: capBytes,
		store:    make([][]uint64, n),
		used:     make([]uint64, n),
		free:     make([][]extent, n),
		nextVA:   vaBase,
	}
}

// Nodes returns the number of node memories.
func (g *GAS) Nodes() int { return g.nodes }

// DRAMmalloc allocates size bytes distributed block-cyclically in blocks of
// bs bytes over nrNodes nodes starting at firstNode, and returns the base
// virtual address. It mirrors the paper's
//
//	void* DRAMmalloc(size, 1stNode, NRNodes, BS)
//
// nrNodes and bs must be powers of two. Passing bs == size/nrNodes yields
// one contiguous chunk per node (the BFS frontier layout in Section 4.2).
func (g *GAS) DRAMmalloc(size uint64, firstNode, nrNodes int, bs uint64) (VA, error) {
	rep := g.rep
	if rep < 1 {
		rep = 1
	}
	if rep > nrNodes {
		rep = nrNodes // a 1-node scratch region cannot hold k copies
	}
	return g.DRAMmallocRep(size, firstNode, nrNodes, bs, rep)
}

// DRAMmallocRep is DRAMmalloc with an explicit replication factor: every
// block is stored on rep consecutive ring positions, so each participating
// node carries rep stripes (rep × the unreplicated footprint).
func (g *GAS) DRAMmallocRep(size uint64, firstNode, nrNodes int, bs uint64, rep int) (VA, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case rep < 1 || rep > nrNodes:
		return 0, fmt.Errorf("gasmem: replication factor %d outside [1,%d]", rep, nrNodes)
	case size == 0:
		return 0, fmt.Errorf("gasmem: zero-size allocation")
	case nrNodes <= 0 || nrNodes&(nrNodes-1) != 0:
		return 0, fmt.Errorf("gasmem: NRNodes must be a positive power of two, got %d", nrNodes)
	case firstNode < 0 || firstNode+nrNodes > g.nodes:
		return 0, fmt.Errorf("gasmem: nodes [%d,%d) outside machine of %d nodes", firstNode, firstNode+nrNodes, g.nodes)
	case bs == 0 || bs&(bs-1) != 0:
		return 0, fmt.Errorf("gasmem: BS must be a power of two, got %d", bs)
	case bs%WordBytes != 0:
		return 0, fmt.Errorf("gasmem: BS must be word aligned, got %d", bs)
	}
	// Round the region up to a whole number of blocks per node so every
	// participating node receives the same amount.
	stride := bs * uint64(nrNodes)
	rounded := (size + stride - 1) / stride * stride
	perNode := rounded / uint64(nrNodes)
	if g.nextVA+rounded > hintVALimit {
		// Hinted-handoff headers pack the intended node into the VA's
		// top bits; keeping all VAs under 2^48 makes that lossless.
		return 0, fmt.Errorf("gasmem: address space exhausted (VA would pass 2^48)")
	}

	r := &Region{
		Base:      g.nextVA,
		Size:      rounded,
		FirstNode: firstNode,
		NRNodes:   nrNodes,
		BS:        bs,
		Rep:       rep,
		Owner:     g.owner,
		physBase:  make([]uint64, nrNodes),
		nodes:     make([]int32, nrNodes),
		perNode:   perNode,
		bsShift:   uint(bits.TrailingZeros64(bs)),
		nodeMask:  uint64(nrNodes - 1),
	}
	footprint := perNode * uint64(rep)
	// Plan placement per node before touching any state, so a capacity
	// failure on a later node leaves the address space unmodified. Each
	// node first tries the free list (best-fit over reclaimed holes), then
	// falls back to the bump pointer.
	type placement struct {
		off   uint64
		reuse bool
	}
	plans := make([]placement, nrNodes)
	for i := 0; i < nrNodes; i++ {
		node := firstNode + i
		if off, ok := g.bestFit(node, footprint); ok {
			plans[i] = placement{off: off, reuse: true}
			continue
		}
		if g.used[node]+footprint > g.capacity {
			return 0, fmt.Errorf("gasmem: node %d over capacity (%d + %d > %d)", node, g.used[node], footprint, g.capacity)
		}
		plans[i] = placement{off: g.used[node]}
	}
	for i := 0; i < nrNodes; i++ {
		node := firstNode + i
		r.nodes[i] = int32(node)
		r.physBase[i] = plans[i].off
		if plans[i].reuse {
			g.takeExtent(node, plans[i].off, footprint)
			// Reused store bytes must read as zero, matching a fresh
			// bump allocation.
			zero := g.store[node][plans[i].off/WordBytes : (plans[i].off+footprint)/WordBytes]
			for j := range zero {
				zero[j] = 0
			}
			continue
		}
		g.used[node] += footprint
		need := (g.used[node] + WordBytes - 1) / WordBytes
		if uint64(len(g.store[node])) < need {
			grown := make([]uint64, need)
			copy(grown, g.store[node])
			g.store[node] = grown
		}
	}
	if rep > 1 {
		g.replicated = true
	}
	g.nextVA += rounded
	// Keep regions VA-sorted; allocations are monotone so append suffices.
	g.regions = append(g.regions, r)
	return r.Base, nil
}

// bestFit returns the offset of the smallest free extent on node able to
// hold size bytes, without removing it (the planning phase of
// DRAMmallocRep; ties go to the lowest offset because the list is sorted).
func (g *GAS) bestFit(node int, size uint64) (off uint64, ok bool) {
	best := -1
	for i, e := range g.free[node] {
		if e.Size >= size && (best < 0 || e.Size < g.free[node][best].Size) {
			best = i
		}
	}
	if best < 0 {
		return 0, false
	}
	return g.free[node][best].Off, true
}

// takeExtent carves [off, off+size) out of the free extent starting at off
// (the commit phase of a free-list reuse planned by bestFit).
func (g *GAS) takeExtent(node int, off, size uint64) {
	fl := g.free[node]
	for i := range fl {
		if fl[i].Off == off {
			if fl[i].Size == size {
				g.free[node] = append(fl[:i], fl[i+1:]...)
			} else {
				fl[i].Off += size
				fl[i].Size -= size
			}
			return
		}
	}
	panic(fmt.Sprintf("gasmem: takeExtent(node %d, 0x%x): no such free extent", node, off))
}

// putExtent returns [off, off+size) to node's free list, coalescing with
// adjacent holes. A coalesced hole that reaches the bump high-water mark is
// handed back to the bump allocator itself, so stack-like allocate/free
// lifetimes (a serving loop recycling per-query state) keep UsedBytes flat
// instead of fragmenting.
func (g *GAS) putExtent(node int, off, size uint64) {
	fl := g.free[node]
	i := sort.Search(len(fl), func(i int) bool { return fl[i].Off >= off })
	if i > 0 && fl[i-1].Off+fl[i-1].Size == off {
		i--
		fl[i].Size += size
	} else {
		fl = append(fl, extent{})
		copy(fl[i+1:], fl[i:])
		fl[i] = extent{Off: off, Size: size}
	}
	if i+1 < len(fl) && fl[i].Off+fl[i].Size == fl[i+1].Off {
		fl[i].Size += fl[i+1].Size
		fl = append(fl[:i+1], fl[i+2:]...)
	}
	if n := len(fl); n > 0 && fl[n-1].Off+fl[n-1].Size == g.used[node] {
		g.used[node] = fl[n-1].Off
		fl = fl[:n-1]
	}
	g.free[node] = fl
}

// FreeOwner reclaims every region tagged with the given owner: the regions
// are unmapped — touching their VAs afterwards is a translation fault, the
// simulated analogue of a use-after-free — and their physical bytes return
// to per-node free lists for reuse by later allocations. It returns the
// total physical footprint reclaimed across all nodes and replicas.
// Virtual addresses are never recycled (the VA cursor stays monotone), so
// a stale pointer can never silently alias a newer allocation.
func (g *GAS) FreeOwner(id int) (freed uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if id == 0 {
		return 0 // 0 means "untagged", not an owner
	}
	kept := g.regions[:0]
	for _, r := range g.regions {
		if r.Owner != id {
			kept = append(kept, r)
			continue
		}
		footprint := r.perNode * uint64(r.Rep)
		for i := range r.nodes {
			g.putExtent(int(r.nodes[i]), r.physBase[i], footprint)
			freed += footprint
		}
	}
	for i := len(kept); i < len(g.regions); i++ {
		g.regions[i] = nil
	}
	g.regions = kept
	return freed
}

// FreeBytes returns the bytes parked on node's free list: reclaimed but
// not yet reused. Holes already returned to the bump pointer (UsedBytes
// shrank) do not count.
func (g *GAS) FreeBytes(node int) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	var total uint64
	for _, e := range g.free[node] {
		total += e.Size
	}
	return total
}

// SetReplication sets the default replication factor for subsequent
// DRAMmalloc calls (clamped per allocation to its node count). It lets a
// machine opt every application allocation into k-way placement without
// threading a factor through each call site.
func (g *GAS) SetReplication(k int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.rep = k
}

// Replicated reports whether any region holds more than one copy.
func (g *GAS) Replicated() bool { return g.replicated }

// SetOwner sets the owner tag stamped onto subsequently allocated
// regions and returns the previous tag, so callers can bracket a build
// phase:
//
//	prev := gas.SetOwner(jobID)
//	defer gas.SetOwner(prev)
//
// Tagging drives both accounting (OwnerBytes reports the live footprint of
// a job's regions) and reclamation: FreeOwner hands a finished job's
// regions back to per-node free lists, so long-lived multi-job machines no
// longer leak DRAM footprint.
func (g *GAS) SetOwner(id int) (prev int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	prev = g.owner
	g.owner = id
	return prev
}

// OwnerBytes returns the physical DRAM footprint — bytes occupied
// across all participating nodes, replicas included — of the regions
// tagged with the given owner.
func (g *GAS) OwnerBytes(id int) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	var total uint64
	for _, r := range g.regions {
		if r.Owner == id {
			total += r.perNode * uint64(r.Rep) * uint64(r.NRNodes)
		}
	}
	return total
}

// RegionOf returns the region containing va, or nil.
func (g *GAS) RegionOf(va VA) *Region {
	rs := g.regions
	i := sort.Search(len(rs), func(i int) bool { return rs[i].Base+rs[i].Size > va })
	if i < len(rs) && rs[i].Contains(va) {
		return rs[i]
	}
	return nil
}

// Translate resolves a virtual address to (node, physical offset). It
// panics on unmapped addresses: those are program bugs, the simulated
// analogue of a hardware translation fault.
func (g *GAS) Translate(va VA) (node int, phys uint64) {
	r := g.RegionOf(va)
	if r == nil {
		panic(fmt.Sprintf("gasmem: translation fault at VA 0x%x", va))
	}
	return r.Translate(va)
}

// NodeOf returns only the owning node of va.
func (g *GAS) NodeOf(va VA) int {
	n, _ := g.Translate(va)
	return n
}

func (g *GAS) checkAligned(va VA) {
	if va%WordBytes != 0 {
		panic(fmt.Sprintf("gasmem: unaligned access at VA 0x%x", va))
	}
}

// ReadU64 loads the word at va. During simulation it must only be invoked
// from the owning node's memory controller; the host may use it freely
// outside Engine.Run. For replicated regions it serves the copy on the
// first finally-alive node of va's preference list, so host verification
// after a fail-stopped run reads surviving data.
func (g *GAS) ReadU64(va VA) uint64 {
	g.checkAligned(va)
	r := g.regionOrFault(va)
	node, phys := r.TranslateReplica(va, g.readStripe(r, va))
	return g.store[node][phys/WordBytes]
}

// WriteU64 stores v at va, with the same ownership rules as ReadU64.
// Replicated regions receive the store on every replica stripe.
func (g *GAS) WriteU64(va VA, v uint64) {
	g.checkAligned(va)
	r := g.regionOrFault(va)
	for j := 0; j < r.Rep; j++ {
		node, phys := r.TranslateReplica(va, j)
		g.store[node][phys/WordBytes] = v
	}
}

func (g *GAS) regionOrFault(va VA) *Region {
	r := g.RegionOf(va)
	if r == nil {
		panic(fmt.Sprintf("gasmem: translation fault at VA 0x%x", va))
	}
	return r
}

// WriteWords bulk-stores src at va, as one WriteU64 per word would: a
// block's worth at a time, each run copied to every replica stripe.
func (g *GAS) WriteWords(va VA, src []uint64) {
	g.checkAligned(va)
	for len(src) > 0 {
		r := g.regionOrFault(va)
		n := min(uint64(len(src)), (r.BS-(va-r.Base)&(r.BS-1))/WordBytes)
		for j := 0; j < r.Rep; j++ {
			node, phys := r.TranslateReplica(va, j)
			copy(g.store[node][phys/WordBytes:], src[:n])
		}
		va, src = va+n*WordBytes, src[n:]
	}
}

// UsedBytes returns the bytes allocated on a node (capacity accounting).
func (g *GAS) UsedBytes(node int) uint64 { return g.used[node] }
