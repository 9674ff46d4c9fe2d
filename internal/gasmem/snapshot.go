package gasmem

// Checkpoint support: the GAS section of a machine checkpoint holds the
// allocator bookkeeping and the backing stores. Its layout is stated once,
// in gasState.code, which runs through a snap.Codec in both directions.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/bits"

	"updown/internal/snap"
)

const (
	snapMagic = "UDGASMEM"
	// Version 2 added the replication descriptor fields (Rep, perNode,
	// ring node assignments) to each region record. Version 3 added the
	// region Owner tag and the per-node free lists, so a restored machine
	// can keep reclaiming finished jobs' regions.
	snapVersion = uint64(3)
)

// gasState is a GAS snapshot: the live address space's fields to write
// it, a decoded and checked copy to restore it.
type gasState struct {
	nodes    int
	capacity uint64
	nextVA   VA
	used     []uint64
	free     [][]extent
	regions  []*Region
	store    [][]uint64
}

// code states the snapshot layout for both directions. Reading, it checks
// the stream against g as it goes, before sizing anything from it.
func (s *gasState) code(c *snap.Codec, g *GAS) {
	if !c.Magic(snapMagic) {
		c.Failf("not a GAS snapshot")
	}
	version := snapVersion
	if c.U64(&version); version != snapVersion {
		c.Failf("snapshot version %d, this build reads %d", version, snapVersion)
	}
	snap.W64(c, &s.nodes)
	c.U64(&s.capacity)
	c.U64(&s.nextVA)
	if s.nodes != g.nodes || s.capacity != g.capacity {
		c.Failf("snapshot for %d nodes × %d bytes, this GAS has %d × %d", s.nodes, s.capacity, g.nodes, g.capacity)
	}
	if c.Reading() {
		s.used, s.free, s.store = make([]uint64, g.nodes), make([][]extent, g.nodes), make([][]uint64, g.nodes)
	}
	for i := range s.used {
		c.U64(&s.used[i])
	}
	for i := range s.free {
		snap.List(c, &s.free[i], math.MaxUint64, func(j int, e *extent) {
			c.U64(&e.Off)
			c.U64(&e.Size)
			if c.Reading() && (e.Size == 0 || e.Off+e.Size < e.Off || e.Off+e.Size > s.used[i] ||
				(j > 0 && e.Off < s.free[i][j-1].Off+s.free[i][j-1].Size)) {
				c.Failf("corrupt free extent %d on node %d", j, i)
			}
		})
	}
	snap.List(c, &s.regions, math.MaxUint64, func(_ int, r **Region) {
		if *r == nil {
			*r = &Region{}
		}
		(*r).code(c, g.nodes)
	})
	for i := range s.store {
		snap.List(c, &s.store[i], s.capacity/WordBytes+1, func(_ int, v *uint64) { c.U64(v) })
	}
}

// code codes a region descriptor. Reading, the descriptor is checked
// against a GAS of nodes nodes before its per-node arrays are sized.
func (r *Region) code(c *snap.Codec, nodes int) {
	c.U64(&r.Base)
	c.U64(&r.Size)
	snap.W64(c, &r.FirstNode)
	snap.W64(c, &r.NRNodes)
	c.U64(&r.BS)
	snap.W64(c, &r.Rep)
	snap.W64(c, &r.Owner)
	c.U64(&r.perNode)
	if c.Reading() {
		if r.NRNodes <= 0 || r.NRNodes&(r.NRNodes-1) != 0 ||
			r.FirstNode < 0 || r.NRNodes > nodes || r.FirstNode > nodes-r.NRNodes ||
			r.BS == 0 || r.BS&(r.BS-1) != 0 || r.Rep < 1 || r.Rep > r.NRNodes {
			c.Failf("corrupt region descriptor at %#x", r.Base)
		}
		if c.Err() != nil {
			return
		}
		r.nodes, r.physBase = make([]int32, r.NRNodes), make([]uint64, r.NRNodes)
		r.bsShift, r.nodeMask = uint(bits.TrailingZeros64(r.BS)), uint64(r.NRNodes-1)
	}
	for j := range r.nodes {
		nd := uint64(r.nodes[j])
		if c.U64(&nd); c.Reading() {
			if nd >= uint64(nodes) {
				c.Failf("corrupt region descriptor at %#x", r.Base)
				return
			}
			r.nodes[j] = int32(nd)
		}
	}
	for j := range r.physBase {
		c.U64(&r.physBase[j])
	}
}

// Snapshot writes the address space — regions, per-node usage and the
// full backing stores — to w. The encoding is canonical: equal address
// spaces produce equal bytes.
func (g *GAS) Snapshot(w io.Writer) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	bw := bufio.NewWriter(w)
	c := snap.NewWriter(bw)
	s := &gasState{g.nodes, g.capacity, g.nextVA, g.used, g.free, g.regions, g.store}
	if s.code(c, g); c.Err() != nil {
		return fmt.Errorf("gasmem: snapshot write: %w", c.Err())
	}
	return bw.Flush()
}

// RestoreSnapshot replaces the address space's contents with a snapshot
// previously written by Snapshot. The GAS must span the same number of
// nodes with the same per-node capacity; any error, mismatch or
// corruption, is returned before any state is modified.
func (g *GAS) RestoreSnapshot(r io.Reader) error {
	commit, err := g.StageRestore(r)
	if err == nil {
		commit()
	}
	return err
}

// StageRestore decodes and validates a snapshot written by Snapshot
// without modifying the GAS; commit then installs it. A caller restoring
// several sections together (the machine checkpoint) stages each before
// committing any.
func (g *GAS) StageRestore(r io.Reader) (commit func(), err error) {
	c := snap.NewReader(bufio.NewReader(r))
	s := &gasState{nodes: g.nodes, capacity: g.capacity}
	if s.code(c, g); c.Err() != nil {
		return nil, fmt.Errorf("gasmem: restore: %w", c.Err())
	}
	return func() {
		g.mu.Lock()
		defer g.mu.Unlock()
		g.nextVA, g.used, g.free, g.regions, g.store = s.nextVA, s.used, s.free, s.regions, s.store
		g.replicated = false
		for _, reg := range s.regions {
			g.replicated = g.replicated || reg.Rep > 1
		}
	}, nil
}
