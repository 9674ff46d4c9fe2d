package gasmem

import (
	"testing"
	"testing/quick"

	"updown/internal/prng"
)

func TestDRAMmallocBasics(t *testing.T) {
	g := New(4, 1<<30)
	va, err := g.DRAMmalloc(1<<20, 0, 4, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if va == 0 {
		t.Fatal("VA 0 must stay unmapped (null)")
	}
	g.WriteU64(va, 42)
	if got := g.ReadU64(va); got != 42 {
		t.Fatalf("ReadU64 = %d, want 42", got)
	}
}

func TestDRAMmallocRejectsBadArgs(t *testing.T) {
	g := New(4, 1<<30)
	cases := []struct {
		name               string
		size               uint64
		firstNode, nrNodes int
		bs                 uint64
	}{
		{"zero size", 0, 0, 4, 4096},
		{"non-power-of-two nodes", 1 << 20, 0, 3, 4096},
		{"zero nodes", 1 << 20, 0, 0, 4096},
		{"nodes out of range", 1 << 20, 2, 4, 4096},
		{"negative first node", 1 << 20, -1, 2, 4096},
		{"non-power-of-two BS", 1 << 20, 0, 4, 3000},
		{"zero BS", 1 << 20, 0, 4, 0},
		{"unaligned BS", 1 << 20, 0, 4, 4},
	}
	for _, c := range cases {
		if _, err := g.DRAMmalloc(c.size, c.firstNode, c.nrNodes, c.bs); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestBlockCyclicDistribution(t *testing.T) {
	g := New(8, 1<<30)
	const bs = 4096
	va, err := g.DRAMmalloc(8*bs*4, 0, 8, bs)
	if err != nil {
		t.Fatal(err)
	}
	// Block i must land on node i % 8, cycling.
	for blk := 0; blk < 32; blk++ {
		node, _ := g.Translate(va + uint64(blk)*bs)
		if node != blk%8 {
			t.Fatalf("block %d on node %d, want %d", blk, node, blk%8)
		}
	}
	// Consecutive addresses within a block stay on one node with
	// consecutive physical offsets.
	n0, p0 := g.Translate(va)
	n1, p1 := g.Translate(va + 8)
	if n0 != n1 || p1 != p0+8 {
		t.Fatalf("within-block locality broken: (%d,%d) then (%d,%d)", n0, p0, n1, p1)
	}
}

func TestDRAMmallocSubsetOfNodes(t *testing.T) {
	g := New(16, 1<<30)
	// Paper Table 1: distribute across the "middle" nodes.
	va, err := g.DRAMmalloc(1<<20, 4, 8, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for blk := 0; blk < 64; blk++ {
		node, _ := g.Translate(va + uint64(blk)*4096)
		if node < 4 || node >= 12 {
			t.Fatalf("block %d on node %d, outside [4,12)", blk, node)
		}
	}
}

// TestDRAMmallocTable1Layouts checks the layouts of the paper's Table 1 at
// reduced scale (same ratios, fewer nodes).
func TestDRAMmallocTable1Layouts(t *testing.T) {
	t.Run("cyclic over whole machine", func(t *testing.T) {
		g := New(16, 1<<30)
		va, err := g.DRAMmalloc(16*4096*2, 0, 16, 4096)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		for blk := 0; blk < 16; blk++ {
			n, _ := g.Translate(va + uint64(blk)*4096)
			seen[n] = true
		}
		if len(seen) != 16 {
			t.Errorf("first 16 blocks touched %d nodes, want all 16", len(seen))
		}
	})
	t.Run("contiguous region per node", func(t *testing.T) {
		// (4TB,0,1024,4GB) at reduced scale: size/NRNodes block size
		// gives each node one contiguous chunk.
		g := New(4, 1<<30)
		const size = 4 << 20
		va, err := g.DRAMmalloc(size, 0, 4, size/4)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			base := va + uint64(i)*size/4
			nStart, _ := g.Translate(base)
			nEnd, _ := g.Translate(base + size/4 - 8)
			if nStart != i || nEnd != i {
				t.Errorf("chunk %d spans nodes %d..%d, want %d", i, nStart, nEnd, i)
			}
		}
	})
	t.Run("middle nodes cyclic", func(t *testing.T) {
		// (4TB,4K,8K,1MB) reduced: start node 4, 8 nodes, verify
		// per-node share equals size/NRNodes.
		g := New(16, 1<<30)
		const size = 8 << 20
		va, err := g.DRAMmalloc(size, 4, 8, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[int]int{}
		for blk := uint64(0); blk < size/(1<<20); blk++ {
			n, _ := g.Translate(va + blk*(1<<20))
			counts[n]++
		}
		for n := 4; n < 12; n++ {
			if counts[n] != 1 {
				t.Errorf("node %d holds %d blocks, want 1", n, counts[n])
			}
		}
	})
}

func TestCapacityEnforced(t *testing.T) {
	g := New(2, 1<<20)
	if _, err := g.DRAMmalloc(4<<20, 0, 2, 4096); err == nil {
		t.Fatal("allocation beyond per-node capacity accepted")
	}
	// And a fitting allocation still works afterwards.
	if _, err := g.DRAMmalloc(1<<20, 0, 2, 4096); err != nil {
		t.Fatalf("valid allocation rejected: %v", err)
	}
}

func TestMultipleRegionsIndependent(t *testing.T) {
	g := New(4, 1<<30)
	a, _ := g.DRAMmalloc(64<<10, 0, 4, 4096)
	b, _ := g.DRAMmalloc(64<<10, 0, 2, 8192)
	for i := uint64(0); i < 1024; i++ {
		g.WriteU64(a+i*8, i)
		g.WriteU64(b+i*8, 1000000+i)
	}
	for i := uint64(0); i < 1024; i++ {
		if g.ReadU64(a+i*8) != i || g.ReadU64(b+i*8) != 1000000+i {
			t.Fatalf("regions interfere at word %d", i)
		}
	}
}

func TestTranslationFaultPanics(t *testing.T) {
	g := New(2, 1<<20)
	defer func() {
		if recover() == nil {
			t.Fatal("unmapped access did not fault")
		}
	}()
	g.ReadU64(0x10)
}

func TestUnalignedAccessPanics(t *testing.T) {
	g := New(2, 1<<20)
	va, _ := g.DRAMmalloc(4096, 0, 1, 4096)
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned access did not fault")
		}
	}()
	g.ReadU64(va + 3)
}

// TestReadWriteWords: a bulk store is one WriteU64 per word — across block
// boundaries (here a run over three blocks on three nodes) and onto every
// replica stripe.
func TestReadWriteWords(t *testing.T) {
	for _, rep := range []int{1, 2} {
		g := New(4, 1<<20)
		va, err := g.DRAMmallocRep(1<<14, 0, 4, 512, rep)
		if err != nil {
			t.Fatal(err)
		}
		src := make([]uint64, 2+64+3) // two words, a whole 512-byte block, three words
		for i := range src {
			src[i] = uint64(100 + i)
		}
		at := va + 512 - 16
		g.WriteWords(at, src)
		r := g.RegionOf(va)
		for i := range src {
			if got := g.ReadU64(at + uint64(i)*WordBytes); got != src[i] {
				t.Fatalf("rep %d word %d: got %d want %d", rep, i, got, src[i])
			}
			for j := 0; j < rep; j++ {
				node, phys := r.TranslateReplica(at+uint64(i)*WordBytes, j)
				if got := g.store[node][phys/WordBytes]; got != src[i] {
					t.Fatalf("rep %d word %d stripe %d: got %d want %d", rep, i, j, got, src[i])
				}
			}
		}
		if g.ReadU64(at-WordBytes) != 0 || g.ReadU64(at+uint64(len(src))*WordBytes) != 0 {
			t.Fatalf("rep %d: WriteWords wrote outside its run", rep)
		}
	}
}

// Property: every address in a region translates to a participating node,
// and distinct addresses never alias the same (node, physical) pair.
func TestTranslationProperties(t *testing.T) {
	f := func(seed uint64) bool {
		rng := prng.NewStream(seed)
		nodes := 1 << (1 + rng.Intn(4)) // 2..16
		g := New(nodes, 1<<30)
		first := rng.Intn(nodes)
		nr := 1 << rng.Intn(3)
		for first+nr > nodes {
			nr /= 2
		}
		if nr == 0 {
			nr = 1
		}
		bs := uint64(1) << (9 + rng.Intn(5)) // 512..8192
		size := uint64(1+rng.Intn(64)) * bs
		va, err := g.DRAMmalloc(size, first, nr, bs)
		if err != nil {
			return false
		}
		seen := map[[2]uint64]bool{}
		seenOff := map[uint64]bool{}
		for i := 0; i < 512; i++ {
			off := rng.Uint64n(size/8) * 8
			if seenOff[off] {
				continue
			}
			seenOff[off] = true
			n, p := g.Translate(va + off)
			if n < first || n >= first+nr {
				return false
			}
			key := [2]uint64{uint64(n), p}
			if seen[key] {
				return false // aliasing
			}
			seen[key] = true
			// Round-trip a write through the translated location.
			g.WriteU64(va+off, off)
			if g.ReadU64(va+off) != off {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRegionOf(t *testing.T) {
	g := New(4, 1<<30)
	a, _ := g.DRAMmalloc(1<<16, 0, 4, 4096)
	b, _ := g.DRAMmalloc(1<<16, 0, 4, 4096)
	if r := g.RegionOf(a); r == nil || r.Base != a {
		t.Error("RegionOf(a) wrong")
	}
	if r := g.RegionOf(b + 1<<16 - 8); r == nil || r.Base != b {
		t.Error("RegionOf(end of b) wrong")
	}
	if g.RegionOf(b+1<<16) != nil && g.RegionOf(b+1<<16).Base == b {
		t.Error("RegionOf past end of b returned b")
	}
	if g.RegionOf(0) != nil {
		t.Error("RegionOf(0) should be nil")
	}
}

func TestOwnerTagging(t *testing.T) {
	g := New(4, 1<<30)

	// Untagged allocation: owner 0.
	va0, err := g.DRAMmalloc(64<<10, 0, 4, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.RegionOf(va0).Owner; got != 0 {
		t.Fatalf("untagged region owner = %d, want 0", got)
	}

	// Bracketed build phases stamp their job ID.
	if prev := g.SetOwner(7); prev != 0 {
		t.Fatalf("SetOwner returned prev %d, want 0", prev)
	}
	va7a, err := g.DRAMmalloc(64<<10, 0, 2, 4096)
	if err != nil {
		t.Fatal(err)
	}
	va7b, err := g.DRAMmallocRep(32<<10, 2, 2, 4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	if prev := g.SetOwner(0); prev != 7 {
		t.Fatalf("SetOwner returned prev %d, want 7", prev)
	}
	g.SetOwner(8)
	va8, err := g.DRAMmalloc(16<<10, 0, 1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	g.SetOwner(0)

	for _, tc := range []struct {
		va    VA
		owner int
	}{{va7a, 7}, {va7b, 7}, {va8, 8}} {
		if got := g.RegionOf(tc.va).Owner; got != tc.owner {
			t.Errorf("RegionOf(%#x).Owner = %d, want %d", tc.va, got, tc.owner)
		}
	}

	// OwnerBytes is the physical footprint: replicas double the bytes.
	if got := g.OwnerBytes(7); got != 64<<10+2*(32<<10) {
		t.Errorf("OwnerBytes(7) = %d, want %d", got, 64<<10+2*(32<<10))
	}
	if got := g.OwnerBytes(8); got != 16<<10 {
		t.Errorf("OwnerBytes(8) = %d, want %d", got, 16<<10)
	}
	if got := g.OwnerBytes(99); got != 0 {
		t.Errorf("OwnerBytes(99) = %d, want 0", got)
	}
}

// TestStripingMatchesTranslate: the index arithmetic a computation binding
// uses agrees with the descriptor's Translate on every element, and
// CountAt/ElemAt enumerate each ring position's elements exactly once, in
// ascending order.
func TestStripingMatchesTranslate(t *testing.T) {
	for _, tc := range []struct {
		nodes, first, nr int
		bs, elem         uint64
	}{
		{4, 0, 4, 32 << 10, 64},
		{8, 2, 2, 4 << 10, 64},
		{8, 4, 4, 4 << 10, 8},
		{2, 1, 1, 512, 64},
		{16, 0, 8, 1 << 10, 128},
	} {
		g := New(tc.nodes, 1<<30)
		if _, err := g.DRAMmalloc(3*tc.bs, 0, 1, tc.bs); err != nil { // base off zero
			t.Fatal(err)
		}
		perBlock := tc.bs / tc.elem
		for _, n := range []uint64{1, perBlock - 1, perBlock, perBlock*uint64(tc.nr) - 1,
			perBlock * uint64(tc.nr), perBlock*uint64(tc.nr) + 1, 5*perBlock + 3} {
			if n == 0 {
				continue
			}
			va, err := g.DRAMmalloc(n*tc.elem, tc.first, tc.nr, tc.bs)
			if err != nil {
				t.Fatal(err)
			}
			s, ok := g.RegionOf(va).Striping(tc.elem)
			if !ok || s.PerBlock != perBlock {
				t.Fatalf("%+v: Striping = %+v, %v", tc, s, ok)
			}
			var total uint64
			for pos := 0; pos < tc.nr; pos++ {
				cnt := s.CountAt(pos, n)
				total += cnt
				prev := int64(-1)
				for j := uint64(0); j < cnt; j++ {
					i := s.ElemAt(pos, j)
					if int64(i) <= prev || i >= n {
						t.Fatalf("%+v n=%d pos %d: ElemAt(%d) = %d after %d", tc, n, pos, j, i, prev)
					}
					prev = int64(i)
					if node, _ := g.Translate(va + i*tc.elem); node != s.Node(i) || s.Pos(i) != pos {
						t.Fatalf("%+v n=%d: element %d homed on node %d, Striping says node %d pos %d (enumerated at %d)",
							tc, n, i, node, s.Node(i), s.Pos(i), pos)
					}
				}
				if cnt < n && s.ElemAt(pos, cnt) < n {
					t.Fatalf("%+v n=%d pos %d: CountAt = %d leaves element %d out", tc, n, pos, cnt, s.ElemAt(pos, cnt))
				}
			}
			if total != n {
				t.Fatalf("%+v: ring positions home %d of %d elements", tc, total, n)
			}
		}
	}
	g := New(2, 1<<30)
	va, _ := g.DRAMmalloc(1<<16, 0, 2, 4096)
	for _, elem := range []uint64{0, 24, 8192} {
		if _, ok := g.RegionOf(va).Striping(elem); ok {
			t.Errorf("Striping(%d) accepted elements that straddle 4096-byte blocks", elem)
		}
	}
}
