package gasmem

// Checkpoint support: GAS serializes its allocator bookkeeping and
// backing stores with its own fixed-width little-endian encoding, so the
// package stays free of simulator dependencies. The section is embedded
// in the machine-level checkpoint (see the updown package).

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
)

const (
	snapMagic = "UDGASMEM"
	// Version 2 added the replication descriptor fields (Rep, perNode,
	// ring node assignments) to each region record. Version 3 added the
	// region Owner tag and the per-node free lists, so a restored machine
	// can keep reclaiming finished jobs' regions.
	snapVersion = uint32(3)
)

type snapWriter struct {
	w   *bufio.Writer
	buf [8]byte
	err error
}

func (w *snapWriter) u64(v uint64) {
	if w.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(w.buf[:], v)
	_, w.err = w.w.Write(w.buf[:])
}

type snapReader struct {
	r   io.Reader
	buf [8]byte
	err error
}

func (r *snapReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if _, r.err = io.ReadFull(r.r, r.buf[:]); r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(r.buf[:])
}

// Snapshot writes the address space — regions, per-node usage and the
// full backing stores — to w. The encoding is canonical: equal address
// spaces produce equal bytes.
func (g *GAS) Snapshot(w io.Writer) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	bw := bufio.NewWriter(w)
	sw := &snapWriter{w: bw}
	if sw.err == nil {
		_, sw.err = bw.WriteString(snapMagic)
	}
	sw.u64(uint64(snapVersion))
	sw.u64(uint64(g.nodes))
	sw.u64(g.capacity)
	sw.u64(g.nextVA)
	for _, u := range g.used {
		sw.u64(u)
	}
	for _, fl := range g.free {
		sw.u64(uint64(len(fl)))
		for _, e := range fl {
			sw.u64(e.Off)
			sw.u64(e.Size)
		}
	}
	sw.u64(uint64(len(g.regions)))
	for _, r := range g.regions {
		sw.u64(r.Base)
		sw.u64(r.Size)
		sw.u64(uint64(r.FirstNode))
		sw.u64(uint64(r.NRNodes))
		sw.u64(r.BS)
		sw.u64(uint64(r.Rep))
		sw.u64(uint64(int64(r.Owner)))
		sw.u64(r.perNode)
		for _, nd := range r.nodes {
			sw.u64(uint64(nd))
		}
		for _, pb := range r.physBase {
			sw.u64(pb)
		}
	}
	for _, st := range g.store {
		sw.u64(uint64(len(st)))
		for _, v := range st {
			sw.u64(v)
		}
	}
	if sw.err != nil {
		return fmt.Errorf("gasmem: snapshot write: %w", sw.err)
	}
	return bw.Flush()
}

// RestoreSnapshot replaces the address space's contents with a snapshot
// previously written by Snapshot. The GAS must span the same number of
// nodes with the same per-node capacity; any error, mismatch or
// corruption, is returned before any state is modified.
func (g *GAS) RestoreSnapshot(r io.Reader) error {
	commit, err := g.StageRestore(r)
	if err != nil {
		return err
	}
	commit()
	return nil
}

// restoreChunk bounds what a restore allocates ahead of the data: lists
// sized by a count read from the stream start at most this many elements
// and grow as the elements arrive, so a count the stream cannot back ends
// at EOF, not in a count-sized allocation.
const restoreChunk = 4096

// StageRestore decodes and validates a snapshot written by Snapshot
// without modifying the GAS; commit then installs it. A caller restoring
// several sections together (the machine checkpoint) stages each before
// committing any.
func (g *GAS) StageRestore(r io.Reader) (commit func(), err error) {
	br := bufio.NewReader(r)
	sr := &snapReader{r: br}
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != snapMagic {
		return nil, fmt.Errorf("gasmem: not a GAS snapshot (got %q)", magic)
	}
	if v := sr.u64(); sr.err == nil && v != uint64(snapVersion) {
		return nil, fmt.Errorf("gasmem: snapshot version %d, this build reads %d", v, snapVersion)
	}
	nodes := sr.u64()
	capacity := sr.u64()
	nextVA := sr.u64()
	if sr.err != nil {
		return nil, fmt.Errorf("gasmem: truncated snapshot header: %w", sr.err)
	}
	if int(nodes) != g.nodes || capacity != g.capacity {
		return nil, fmt.Errorf("gasmem: snapshot for %d nodes × %d bytes, this GAS has %d × %d",
			nodes, capacity, g.nodes, g.capacity)
	}
	used := make([]uint64, g.nodes)
	for i := range used {
		used[i] = sr.u64()
	}
	free := make([][]extent, g.nodes)
	for i := range free {
		n := sr.u64()
		fl := make([]extent, 0, min(n, restoreChunk))
		for j := uint64(0); j < n && sr.err == nil; j++ {
			e := extent{Off: sr.u64(), Size: sr.u64()}
			if sr.err == nil && (e.Size == 0 || e.Off+e.Size < e.Off || e.Off+e.Size > used[i] ||
				(j > 0 && e.Off < fl[j-1].Off+fl[j-1].Size)) {
				return nil, fmt.Errorf("gasmem: corrupt free extent %d on node %d", j, i)
			}
			fl = append(fl, e)
		}
		free[i] = fl
	}
	nregions := sr.u64()
	regions := make([]*Region, 0, min(nregions, restoreChunk))
	for i := uint64(0); i < nregions && sr.err == nil; i++ {
		reg := &Region{
			Base:      sr.u64(),
			Size:      sr.u64(),
			FirstNode: int(sr.u64()),
			NRNodes:   int(sr.u64()),
			BS:        sr.u64(),
			Rep:       int(sr.u64()),
			Owner:     int(int64(sr.u64())),
			perNode:   sr.u64(),
		}
		if sr.err != nil {
			break
		}
		if reg.NRNodes <= 0 || reg.NRNodes&(reg.NRNodes-1) != 0 ||
			reg.FirstNode < 0 || reg.NRNodes > g.nodes || reg.FirstNode > g.nodes-reg.NRNodes ||
			reg.BS == 0 || reg.BS&(reg.BS-1) != 0 ||
			reg.Rep < 1 || reg.Rep > reg.NRNodes {
			return nil, fmt.Errorf("gasmem: corrupt region descriptor %d", i)
		}
		reg.nodes = make([]int32, reg.NRNodes)
		for j := range reg.nodes {
			nd := sr.u64()
			if sr.err == nil && nd >= uint64(g.nodes) {
				return nil, fmt.Errorf("gasmem: corrupt region descriptor %d", i)
			}
			reg.nodes[j] = int32(nd)
		}
		reg.physBase = make([]uint64, reg.NRNodes)
		for j := range reg.physBase {
			reg.physBase[j] = sr.u64()
		}
		reg.bsShift = uint(bits.TrailingZeros64(reg.BS))
		reg.nodeMask = uint64(reg.NRNodes - 1)
		regions = append(regions, reg)
	}
	store := make([][]uint64, g.nodes)
	for i := range store {
		n := sr.u64()
		if sr.err == nil && n > capacity/WordBytes+1 {
			return nil, fmt.Errorf("gasmem: node %d store of %d words exceeds capacity", i, n)
		}
		st := make([]uint64, 0, min(n, restoreChunk))
		for j := uint64(0); j < n && sr.err == nil; j++ {
			st = append(st, sr.u64())
		}
		store[i] = st
	}
	if sr.err != nil {
		return nil, fmt.Errorf("gasmem: truncated snapshot: %w", sr.err)
	}
	return func() {
		g.mu.Lock()
		defer g.mu.Unlock()
		g.nextVA = nextVA
		g.used = used
		g.free = free
		g.regions = regions
		g.store = store
		g.replicated = false
		for _, reg := range regions {
			if reg.Rep > 1 {
				g.replicated = true
			}
		}
	}, nil
}
