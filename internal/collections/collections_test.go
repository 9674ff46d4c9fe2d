package collections_test

import (
	"sort"
	"sync/atomic"
	"testing"

	"updown"
	"updown/internal/arch"
	"updown/internal/collections"
	"updown/internal/gasmem"
	"updown/internal/kvmsr"
	"updown/internal/udweave"
)

func newMachine(t *testing.T, nodes int) *updown.Machine {
	t.Helper()
	m, err := updown.New(updown.Config{Nodes: nodes, Shards: 1, MaxTime: 1 << 36})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// The combining cache must produce the same totals as direct accumulation:
// every lane of a two-node set counts its updates into its own key, which
// finishes with their sum on the last one. Lane s sets the expected count
// before its update s mod 51, so across lanes it arrives first, last and
// at every point in between.
func TestCombiningCacheFetchAdd(t *testing.T) {
	m := newMachine(t, 2)
	// Exclusive ownership discipline (the combining-cache contract): key s
	// is updated only by lane s.
	const slots = 256
	const updatesPerLane = 50
	lanes := kvmsr.LaneSet{First: 0, Count: slots}
	cc := collections.NewCombiningCache(m.Prog, "fna", addU64)
	sums := make([]uint64, slots)
	var updInv *kvmsr.Invocation
	upd := m.Prog.Define("upd", func(c *updown.Ctx) {
		slot := lanes.Index(c.NetworkID())
		for i := 0; i <= updatesPerLane; i++ {
			v, want := uint64(1), uint64(0)
			if i == slot%(updatesPerLane+1) {
				v, want = 0, updatesPerLane
			}
			if sum, _, done := cc.Count(c, gasmem.VA(slot*8), v, want, 0); done {
				sums[slot] = sum
			}
		}
		updInv.Return(c, c.Cont())
		c.YieldTerminate()
	})
	updInv = kvmsr.MustNew(m.Prog, kvmsr.Spec{
		Name: "updphase", MapEvent: upd, Lanes: lanes})
	var driver udweave.Label
	driver = m.Prog.Define("driver", func(c *updown.Ctx) {
		if c.State() == nil {
			c.SetState(true)
			updInv.Launch(c, uint64(lanes.Count), c.ContinueTo(driver))
			return
		}
		c.YieldTerminate()
	})
	m.Start(updown.EvwNew(0, driver))
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for s, got := range sums {
		if got != updatesPerLane {
			t.Fatalf("slot %d = %d, want %d", s, got, updatesPerLane)
		}
		if n := cc.Pending(m.Engine.PeekActor(lanes.First + updown.NetworkID(s))); n != 0 {
			t.Fatalf("lane %d keeps %d entries after its key finished", s, n)
		}
	}
}

func TestCombiningCacheFloatCombine(t *testing.T) {
	m := newMachine(t, 1)
	cc := collections.NewCombiningCache(m.Prog, "fadd", collections.AddF64)
	var got float64
	start := m.Prog.Define("start", func(c *updown.Ctx) {
		cc.Count(c, 0, 0, 3, 0)
		for _, v := range []float64{1.5, 0.25, 0.25} {
			if sum, _, done := cc.Count(c, 0, updown.FloatBits(v), 0, 0); done {
				got = updown.BitsFloat(sum)
			}
		}
		c.YieldTerminate()
	})
	m.Start(updown.EvwNew(0, start))
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 2.0 {
		t.Fatalf("float accumulator = %v, want 2.0", got)
	}
}

// Count finishes a key on the update that brings its count to the
// expected total, whether the total arrives first, last or in between,
// and returns the combined value with the tag; nothing stays cached.
func TestCombiningCacheCount(t *testing.T) {
	m := newMachine(t, 1)
	cc := collections.NewCombiningCache(m.Prog, "cnt", addU64)
	type call struct{ v, want, tag uint64 }
	orders := [][]call{
		{{0, 4, 7}, {1, 0, 0}, {1, 0, 0}, {1, 0, 0}, {4, 0, 0}},
		{{1, 0, 0}, {1, 0, 0}, {1, 0, 0}, {4, 0, 0}, {0, 4, 7}},
		{{1, 0, 0}, {0, 4, 7}, {1, 0, 0}, {1, 0, 0}, {4, 0, 0}},
	}
	var got [][3]uint64
	start := m.Prog.Define("start", func(c *updown.Ctx) {
		for k, order := range orders {
			for i, x := range order {
				sum, tag, done := cc.Count(c, gasmem.VA(8*k), x.v, x.want, x.tag)
				if done != (i == len(order)-1) {
					t.Errorf("order %d: call %d done %v", k, i, done)
				}
				if done {
					got = append(got, [3]uint64{uint64(k), sum, tag})
				}
			}
		}
		c.YieldTerminate()
	})
	m.Start(updown.EvwNew(0, start))
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(orders) {
		t.Fatalf("%d keys finished, want %d", len(got), len(orders))
	}
	for _, g := range got {
		if g[1] != 7 || g[2] != 7 {
			t.Errorf("order %d: sum %d tag %d, want 7 and 7", g[0], g[1], g[2])
		}
	}
	if n := cc.Pending(m.Engine.PeekActor(0)); n != 0 {
		t.Fatalf("%d entries cached after every key finished", n)
	}
}

func addU64(acc, v uint64) uint64 { return acc + v }

// shtRig assembles a machine with one SHT and a driver that runs a list of
// scripted operations sequentially, recording replies.
type shtReply struct{ flag, val uint64 }

func runSHTScript(t *testing.T, cfg collections.SHTConfig, nodes int, ops [][3]uint64) []shtReply {
	t.Helper()
	m := newMachine(t, nodes)
	cfg.Lanes = kvmsr.LaneSet{First: 0, Count: cfg.Lanes.Count}
	sht, err := collections.NewSHT(m.Prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sht.Alloc(m.GAS); err != nil {
		t.Fatal(err)
	}
	var replies []shtReply
	idx := 0
	var step udweave.Label
	issue := func(c *updown.Ctx) {
		kind, key, val := ops[idx][0], ops[idx][1], ops[idx][2]
		cont := c.ContinueTo(step)
		switch kind {
		case 0:
			sht.Put(c, key, val, cont)
		case 1:
			sht.PutIfAbsent(c, key, val, cont)
		case 2:
			sht.Get(c, key, cont)
		case 3:
			sht.Add(c, key, val, cont)
		}
	}
	step = m.Prog.Define("step", func(c *updown.Ctx) {
		replies = append(replies, shtReply{c.Op(0), c.Op(1)})
		idx++
		if idx >= len(ops) {
			c.YieldTerminate()
			return
		}
		issue(c)
	})
	start := m.Prog.Define("start", func(c *updown.Ctx) { issue(c) })
	m.Start(updown.EvwNew(0, start))
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(replies) != len(ops) {
		t.Fatalf("%d replies for %d ops", len(replies), len(ops))
	}
	return replies
}

func TestSHTBasicOps(t *testing.T) {
	cfg := collections.SHTConfig{Name: "t", Lanes: kvmsr.LaneSet{Count: 64},
		BucketsPerLane: 16, EntriesPerBucket: 4}
	r := runSHTScript(t, cfg, 1, [][3]uint64{
		{1, 100, 7},  // PutIfAbsent new -> (0, 7)
		{2, 100, 0},  // Get -> (1, 7)
		{1, 100, 9},  // PutIfAbsent existing -> (1, 7)
		{0, 100, 11}, // Put overwrite -> (1, 7)
		{2, 100, 0},  // Get -> (1, 11)
		{2, 200, 0},  // Get missing -> (0, 0)
		{3, 300, 5},  // Add new -> (0, 5)
		{3, 300, 6},  // Add existing -> (1, 11)
		{2, 300, 0},  // Get -> (1, 11)
	})
	want := []shtReply{{0, 7}, {1, 7}, {1, 7}, {1, 7}, {1, 11}, {0, 0}, {0, 5}, {1, 11}, {1, 11}}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("op %d reply (%d,%d), want (%d,%d)", i, r[i].flag, r[i].val, want[i].flag, want[i].val)
		}
	}
}

// A tiny table forces bucket overflow: probing must still find every key.
func TestSHTOverflowProbing(t *testing.T) {
	cfg := collections.SHTConfig{Name: "tiny", Lanes: kvmsr.LaneSet{Count: 2},
		BucketsPerLane: 4, EntriesPerBucket: 2}
	const n = 12 // 12 keys over 2 lanes x 8 slots = 75% load
	var ops [][3]uint64
	for k := uint64(0); k < n; k++ {
		ops = append(ops, [3]uint64{1, k * 1000003, k})
	}
	for k := uint64(0); k < n; k++ {
		ops = append(ops, [3]uint64{2, k * 1000003, 0})
	}
	r := runSHTScript(t, cfg, 1, ops)
	for k := 0; k < n; k++ {
		if r[k].flag != 0 {
			t.Fatalf("insert %d reported existing", k)
		}
		got := r[n+k]
		if got.flag != 1 || got.val != uint64(k) {
			t.Fatalf("lookup %d = (%d,%d), want (1,%d)", k, got.flag, got.val, k)
		}
	}
}

// Concurrent increments of one key from many lanes must serialize through
// the owner lane's bucket lock.
func TestSHTConcurrentAddsSerialize(t *testing.T) {
	m := newMachine(t, 2)
	sht, err := collections.NewSHT(m.Prog, collections.SHTConfig{
		Name: "ctr", Lanes: kvmsr.LaneSet{First: 0, Count: 512},
		BucketsPerLane: 8, EntriesPerBucket: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := sht.Alloc(m.GAS); err != nil {
		t.Fatal(err)
	}
	const key = 777
	const adders = 300
	var acks atomic.Int64
	var maxVal atomic.Uint64
	var ack udweave.Label
	add := m.Prog.Define("add", func(c *updown.Ctx) {
		sht.Add(c, key, 1, c.ContinueTo(ack))
	})
	ack = m.Prog.Define("ack", func(c *updown.Ctx) {
		acks.Add(1)
		for {
			cur := maxVal.Load()
			if c.Op(1) <= cur || maxVal.CompareAndSwap(cur, c.Op(1)) {
				break
			}
		}
		c.YieldTerminate()
	})
	for i := 0; i < adders; i++ {
		m.Start(updown.EvwNew(updown.NetworkID(i%1024), add))
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if acks.Load() != adders {
		t.Fatalf("%d acks, want %d", acks.Load(), adders)
	}
	if maxVal.Load() != adders {
		t.Fatalf("final counter %d, want %d", maxVal.Load(), adders)
	}
}

// Mixed concurrent PutIfAbsent on colliding keys: exactly one insert wins
// per key.
func TestSHTConcurrentPutIfAbsent(t *testing.T) {
	m := newMachine(t, 1)
	sht, err := collections.NewSHT(m.Prog, collections.SHTConfig{
		Name: "pia", Lanes: kvmsr.LaneSet{First: 0, Count: 16},
		BucketsPerLane: 4, EntriesPerBucket: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := sht.Alloc(m.GAS); err != nil {
		t.Fatal(err)
	}
	const keys = 20
	const attemptsPerKey = 10
	var wins, losses atomic.Int64
	var ack udweave.Label
	try := m.Prog.Define("try", func(c *updown.Ctx) {
		sht.PutIfAbsent(c, c.Op(0), c.Op(1), c.ContinueTo(ack))
	})
	ack = m.Prog.Define("ack", func(c *updown.Ctx) {
		if c.Op(0) == 0 {
			wins.Add(1)
		} else {
			losses.Add(1)
		}
		c.YieldTerminate()
	})
	lane := 0
	for k := uint64(0); k < keys; k++ {
		for a := 0; a < attemptsPerKey; a++ {
			m.Start(updown.EvwNew(updown.NetworkID(lane%2048), try), k*7919, uint64(a))
			lane++
		}
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if wins.Load() != keys {
		t.Fatalf("%d inserts won, want %d", wins.Load(), keys)
	}
	if losses.Load() != keys*(attemptsPerKey-1) {
		t.Fatalf("%d inserts lost, want %d", losses.Load(), keys*(attemptsPerKey-1))
	}
}

func TestSHTConfigValidation(t *testing.T) {
	m := newMachine(t, 1)
	bad := []collections.SHTConfig{
		{Name: "a", Lanes: kvmsr.LaneSet{Count: 0}, BucketsPerLane: 4, EntriesPerBucket: 4},
		{Name: "b", Lanes: kvmsr.LaneSet{Count: 4}, BucketsPerLane: 3, EntriesPerBucket: 4},
		{Name: "c", Lanes: kvmsr.LaneSet{Count: 4}, BucketsPerLane: 4, EntriesPerBucket: 0},
	}
	for i, cfg := range bad {
		if _, err := collections.NewSHT(m.Prog, cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

// Frontier appends must land in the appending lane's own accelerator
// segment, with per-parity double buffering.
func TestFrontierAppendAndParity(t *testing.T) {
	m := newMachine(t, 1)
	lanes := kvmsr.LaneSet{First: 0, Count: 4 * 64} // 4 accelerators
	f, err := collections.NewFrontier(m.Prog, "front", lanes, 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Alloc(m.GAS); err != nil {
		t.Fatal(err)
	}
	var acked atomic.Int64
	var ack udweave.Label
	app := m.Prog.Define("app", func(c *updown.Ctx) {
		f.Append(c, int(c.Op(0)), c.Op(1), c.ContinueTo(ack))
	})
	ack = m.Prog.Define("ack", func(c *updown.Ctx) {
		acked.Add(1)
		c.YieldTerminate()
	})
	// 10 appends per accelerator on parity 0, 5 on parity 1, from
	// assorted lanes of each accelerator.
	for accel := 0; accel < 4; accel++ {
		for i := 0; i < 10; i++ {
			lane := updown.NetworkID(accel*64 + (i*7)%64)
			m.Start(updown.EvwNew(lane, app), 0, uint64(accel*1000+i))
		}
		for i := 0; i < 5; i++ {
			lane := updown.NetworkID(accel*64 + (i*13)%64)
			m.Start(updown.EvwNew(lane, app), 1, uint64(accel*1000+500+i))
		}
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if acked.Load() != 4*15 {
		t.Fatalf("%d acks, want %d", acked.Load(), 4*15)
	}
	// Verify segment contents: each accel's parity-0 segment holds its
	// own ten values (order unspecified), parity-1 its five.
	for accel := 0; accel < 4; accel++ {
		seen := map[uint64]bool{}
		for i := 0; i < 10; i++ {
			seen[m.GAS.ReadU64(f.SegmentVA(accel, 0)+uint64(i)*8)] = true
		}
		for i := 0; i < 10; i++ {
			if !seen[uint64(accel*1000+i)] {
				t.Fatalf("accel %d parity 0 missing value %d", accel, accel*1000+i)
			}
		}
		for i := 0; i < 5; i++ {
			v := m.GAS.ReadU64(f.SegmentVA(accel, 1) + uint64(i)*8)
			if v < uint64(accel*1000+500) || v >= uint64(accel*1000+505) {
				t.Fatalf("accel %d parity 1 slot %d holds %d", accel, i, v)
			}
		}
	}
}

// TestFrontierPlacement: every word of every segment, both parities, lives
// on the node of the accelerator that owns the segment, and no two
// segments overlap — for whole-node sets of any node count, sets that start
// past node 0, sets smaller than a node and sets that start and end
// mid-node. The capacity is not a power of two, as BFS's default is not.
func TestFrontierPlacement(t *testing.T) {
	ar := arch.DefaultMachine(8)
	ar.AccelsPerNode, ar.LanesPerAccel = 4, 16
	lpn := ar.LanesPerNode()
	const segCap = 100
	for _, tc := range []struct {
		name  string
		lanes kvmsr.LaneSet
	}{
		{"1 node", kvmsr.LaneSet{First: 0, Count: lpn}},
		{"2 nodes", kvmsr.LaneSet{First: 0, Count: 2 * lpn}},
		{"3 nodes", kvmsr.LaneSet{First: 0, Count: 3 * lpn}},
		{"8 nodes", kvmsr.LaneSet{First: 0, Count: 8 * lpn}},
		{"from node 2", kvmsr.LaneSet{First: arch.NetworkID(2 * lpn), Count: 2 * lpn}},
		{"2 accelerators", kvmsr.LaneSet{First: arch.NetworkID(5*lpn + 16), Count: 32}},
		{"mid-node to mid-node", kvmsr.LaneSet{First: arch.NetworkID(lpn + 32), Count: 2 * lpn}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := updown.New(updown.Config{Arch: &ar, Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			f, err := collections.NewFrontier(m.Prog, "front", tc.lanes, segCap)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Alloc(m.GAS); err != nil {
				t.Fatal(err)
			}
			type span struct{ lo, hi gasmem.VA }
			var spans []span
			for accel := 0; accel < f.Accels(); accel++ {
				node := ar.NodeOf(arch.NetworkID(f.MasterOfAccel(accel)))
				for parity := 0; parity < 2; parity++ {
					lo := f.SegmentVA(accel, parity)
					for i := gasmem.VA(0); i < segCap; i++ {
						if got := m.GAS.NodeOf(lo + i*gasmem.WordBytes); got != node {
							t.Fatalf("accel %d parity %d word %d on node %d, want %d", accel, parity, i, got, node)
						}
					}
					spans = append(spans, span{lo, lo + segCap*gasmem.WordBytes})
				}
			}
			sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
			for i := 1; i < len(spans); i++ {
				if spans[i].lo < spans[i-1].hi {
					t.Fatalf("segments [%#x,%#x) and [%#x,%#x) overlap", spans[i-1].lo, spans[i-1].hi, spans[i].lo, spans[i].hi)
				}
			}
		})
	}
}

func TestFrontierValidation(t *testing.T) {
	m := newMachine(t, 1)
	if _, err := collections.NewFrontier(m.Prog, "x", kvmsr.LaneSet{First: 3, Count: 64}, 16); err == nil {
		t.Error("unaligned lane set accepted")
	}
	if _, err := collections.NewFrontier(m.Prog, "y", kvmsr.LaneSet{First: 0, Count: 63}, 16); err == nil {
		t.Error("partial accelerator accepted")
	}
	if _, err := collections.NewFrontier(m.Prog, "z", kvmsr.LaneSet{First: 0, Count: 64}, 0); err == nil {
		t.Error("zero capacity accepted")
	}
}

// Shmem: symmetric put/get, barrier ordering, and all-reduce.
func TestShmemPutGetBarrierAllReduce(t *testing.T) {
	m := newMachine(t, 2)
	lanes := kvmsr.LaneSet{First: 0, Count: 512}
	sh, err := collections.NewShmem(m.Prog, lanes, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Alloc(m.GAS); err != nil {
		t.Fatal(err)
	}
	// Phase 1 (doAll): every lane puts its ID+1 into its RIGHT neighbor's
	// word 0 (ring). Barrier. Phase 2: all-reduce word 0 — the total must
	// be sum(1..512).
	var fill *kvmsr.Invocation
	var putAck udweave.Label
	fillBody := m.Prog.Define("sh.fill", func(c *updown.Ctx) {
		c.SetState(c.Cont())
		self := c.NetworkID()
		peer := lanes.First + updown.NetworkID((lanes.Index(self)+1)%lanes.Count)
		sh.Put(c, peer, 0, c.ContinueTo(putAck), uint64(lanes.Index(self))+1)
	})
	putAck = m.Prog.Define("sh.put_ack", func(c *updown.Ctx) {
		fill.Return(c, c.State().(uint64))
		c.YieldTerminate()
	})
	fill = kvmsr.MustNew(m.Prog, kvmsr.Spec{
		Name: "sh.fillall", NumKeys: uint64(lanes.Count),
		MapEvent: fillBody, Lanes: lanes})
	var phase atomic.Int32
	var got uint64
	var driver udweave.Label
	driver = m.Prog.Define("sh.driver", func(c *updown.Ctx) {
		switch phase.Add(1) {
		case 1:
			fill.Launch(c, uint64(lanes.Count), c.ContinueTo(driver))
		case 2:
			sh.Barrier(c, c.ContinueTo(driver))
		case 3:
			sh.AllReduceSum(c, 0, c.ContinueTo(driver))
		default:
			got = c.Op(2)
			c.YieldTerminate()
		}
	})
	m.Start(updown.EvwNew(0, driver))
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	want := uint64(512 * 513 / 2)
	if got != want {
		t.Fatalf("all-reduce = %d, want %d", got, want)
	}
	// Spot-check the symmetric layout: lane 5's word 0 was written by
	// lane 4 (value 5).
	if got := m.GAS.ReadU64(sh.AddrForTest(5, 0)); got != 5 {
		t.Fatalf("lane 5 word 0 = %d, want 5", got)
	}
}

func TestShmemBackToBackCollectives(t *testing.T) {
	m := newMachine(t, 1)
	lanes := kvmsr.LaneSet{First: 0, Count: 64}
	sh, err := collections.NewShmem(m.Prog, lanes, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Alloc(m.GAS); err != nil {
		t.Fatal(err)
	}
	// Lane i's word is i+1; two consecutive all-reduces must both read
	// the sum (the second must not inherit the first's total).
	for i := 0; i < lanes.Count; i++ {
		m.GAS.WriteU64(sh.AddrForTest(lanes.First+updown.NetworkID(i), 0), uint64(i)+1)
	}
	var totals []uint64
	var driver udweave.Label
	driver = m.Prog.Define("sh2.driver", func(c *updown.Ctx) {
		if c.State() != nil {
			totals = append(totals, c.Op(2))
		}
		if len(totals) < 2 {
			c.SetState(true)
			sh.AllReduceSum(c, 0, c.ContinueTo(driver))
			return
		}
		c.YieldTerminate()
	})
	m.Start(updown.EvwNew(0, driver))
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	want := uint64(64 * 65 / 2)
	if len(totals) != 2 || totals[0] != want || totals[1] != want {
		t.Fatalf("all-reduces = %v, want two of %d", totals, want)
	}
}

func TestShmemValidation(t *testing.T) {
	m := newMachine(t, 1)
	if _, err := collections.NewShmem(m.Prog, kvmsr.LaneSet{First: 0, Count: 64}, 0); err == nil {
		t.Error("zero-word block accepted")
	}
	if _, err := collections.NewShmem(m.Prog, kvmsr.LaneSet{}, 4); err == nil {
		t.Error("empty lane set accepted")
	}
}
