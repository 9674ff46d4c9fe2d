package kvmsr_test

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"updown"
	"updown/internal/kvmsr"
	"updown/internal/udweave"
)

// TestBlockBindingPartitionsExactly: Block ranges tile [0, numKeys) with no
// gaps or overlaps for any lane count.
func TestBlockBindingPartitionsExactly(t *testing.T) {
	f := func(lanes8 uint8, keys16 uint16) bool {
		lanes := int(lanes8%200) + 1
		keys := uint64(keys16)
		covered := make(map[uint64]int)
		prevEnd := uint64(0)
		for i := 0; i < lanes; i++ {
			s, e := kvmsr.InitialRangeForTest(kvmsr.Block{}, i, lanes, keys)
			if s > e || e > keys {
				return false
			}
			if s < prevEnd {
				return false // overlap
			}
			for k := s; k < e; k++ {
				covered[k]++
			}
			if e > prevEnd {
				prevEnd = e
			}
		}
		if uint64(len(covered)) != keys {
			return false
		}
		for _, n := range covered {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPBMWInitialPlusPoolCoversAll(t *testing.T) {
	f := func(lanes8 uint8, keys16 uint16, denom8 uint8) bool {
		lanes := int(lanes8%100) + 1
		keys := uint64(keys16)
		b := kvmsr.PBMW{InitialDenom: int(denom8%4) + 1, ChunkSize: 16}
		covered := uint64(0)
		var maxEnd uint64
		for i := 0; i < lanes; i++ {
			s, e := kvmsr.InitialRangeForTest(b, i, lanes, keys)
			if s > e || e > keys {
				return false
			}
			covered += e - s
			if e > maxEnd {
				maxEnd = e
			}
		}
		pool := kvmsr.PoolStartForTest(b, lanes, keys)
		// Statically assigned keys and pool must cover all keys with no
		// gap between them.
		return pool <= keys && maxEnd <= pool && covered == pool
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStrideBinding(t *testing.T) {
	// Step 4 over 16 lanes, 4 keys: key k on lane 4k only.
	for idx := 0; idx < 16; idx++ {
		s, e := kvmsr.InitialRangeForTest(kvmsr.Stride{Step: 4}, idx, 16, 4)
		if idx%4 == 0 && idx/4 < 4 {
			if s != uint64(idx/4) || e != s+1 {
				t.Fatalf("lane %d got [%d,%d)", idx, s, e)
			}
		} else if s != e {
			t.Fatalf("lane %d unexpectedly got keys [%d,%d)", idx, s, e)
		}
	}
}

// doAll over N keys must run every key exactly once and deliver the
// completion continuation.
func TestDoAllRunsEveryKeyOnce(t *testing.T) {
	m, err := updown.New(updown.Config{Nodes: 2, Shards: 1, MaxTime: 1 << 34})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	seen := make([]int32, n)
	var inv *kvmsr.Invocation
	body := m.Prog.Define("body", func(c *updown.Ctx) {
		atomic.AddInt32(&seen[c.Op(0)], 1)
		c.Cycles(20)
		inv.Return(c, c.Cont())
		c.YieldTerminate()
	})
	var completed atomic.Bool
	done := m.Prog.Define("done", func(c *updown.Ctx) {
		completed.Store(true)
		c.YieldTerminate()
	})
	inv = kvmsr.MustNew(m.Prog, kvmsr.Spec{
		Name: "doall", NumKeys: n, MapEvent: body,
		Lanes: kvmsr.AllLanes(m.Arch),
	})
	m.StartWithCont(inv.LaunchEvw(), updown.EvwNew(m.Arch.LaneID(0, 0, 0), done), n)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !completed.Load() {
		t.Fatal("completion continuation never fired")
	}
	for k := range seen {
		if seen[k] != 1 {
			t.Fatalf("key %d ran %d times", k, seen[k])
		}
	}
}

// Full map-shuffle-reduce: every map emits per-key tuples, reduces
// accumulate into global memory via fetch-add, and the completion reports
// the emit count.
func TestMapReduceEndToEnd(t *testing.T) {
	m, err := updown.New(updown.Config{Nodes: 2, Shards: 1, MaxTime: 1 << 34})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	const emitsPerKey = 3
	counterVA, err := m.GAS.DRAMmalloc(4096, 0, 1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var inv *kvmsr.Invocation
	mapEv := m.Prog.Define("kv_map", func(c *updown.Ctx) {
		key := c.Op(0)
		c.Cycles(10)
		for i := uint64(0); i < emitsPerKey; i++ {
			inv.Emit(c, key*emitsPerKey+i, key)
		}
		inv.Return(c, c.Cont())
		c.YieldTerminate()
	})
	var reduceAck udweave.Label
	reduceEv := m.Prog.Define("kv_reduce", func(c *updown.Ctx) {
		// key = c.Op(0), carried value = c.Op(1); verify the value
		// relationship then count the tuple in global memory.
		if c.Op(0)/emitsPerKey != c.Op(1) {
			t.Errorf("tuple mismatch: key %d value %d", c.Op(0), c.Op(1))
		}
		c.Cycles(8)
		c.DRAMFetchAdd(counterVA, 1, c.ContinueTo(reduceAck))
	})
	reduceAck = m.Prog.Define("kv_reduce_ack", func(c *updown.Ctx) {
		inv.ReduceDone(c)
		c.YieldTerminate()
	})
	var delta, cumulative uint64
	done := m.Prog.Define("done", func(c *updown.Ctx) {
		delta, cumulative = c.Op(0), c.Op(1)
		c.YieldTerminate()
	})
	inv = kvmsr.MustNew(m.Prog, kvmsr.Spec{
		Name: "mr", MapEvent: mapEv, ReduceEvent: reduceEv,
		Lanes: kvmsr.AllLanes(m.Arch),
	})
	m.StartWithCont(inv.LaunchEvw(), updown.EvwNew(m.Arch.LaneID(0, 0, 0), done), n)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if delta != n*emitsPerKey || cumulative != n*emitsPerKey {
		t.Fatalf("completion reported delta=%d cumulative=%d, want %d", delta, cumulative, n*emitsPerKey)
	}
	if got := m.GAS.ReadU64(counterVA); got != n*emitsPerKey {
		t.Fatalf("reduce counter = %d, want %d", got, n*emitsPerKey)
	}
}

// Relaunching the same invocation must work and report per-launch deltas
// (BFS launches one invocation per round).
func TestRelaunchReportsDeltas(t *testing.T) {
	m, err := updown.New(updown.Config{Nodes: 1, Shards: 1, MaxTime: 1 << 34})
	if err != nil {
		t.Fatal(err)
	}
	var inv *kvmsr.Invocation
	mapEv := m.Prog.Define("kv_map", func(c *updown.Ctx) {
		inv.Emit(c, c.Op(0))
		inv.Return(c, c.Cont())
		c.YieldTerminate()
	})
	reduceEv := m.Prog.Define("kv_reduce", func(c *updown.Ctx) {
		inv.ReduceDone(c)
		c.YieldTerminate()
	})
	var deltas []uint64
	rounds := []uint64{100, 50, 200}
	var done udweave.Label
	done = m.Prog.Define("done", func(c *updown.Ctx) {
		deltas = append(deltas, c.Op(0))
		if len(deltas) < len(rounds) {
			// Chain the next round back into this same thread.
			inv.Launch(c, rounds[len(deltas)], c.ContinueTo(done))
			return
		}
		c.YieldTerminate()
	})
	inv = kvmsr.MustNew(m.Prog, kvmsr.Spec{
		Name: "rounds", MapEvent: mapEv, ReduceEvent: reduceEv,
		Lanes: kvmsr.LaneSet{First: 0, Count: 256},
	})
	m.StartWithCont(inv.LaunchEvw(), updown.EvwNew(m.Arch.LaneID(0, 0, 0), done), rounds[0])
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 3 || deltas[0] != 100 || deltas[1] != 50 || deltas[2] != 200 {
		t.Fatalf("deltas = %v, want %v", deltas, rounds)
	}
}

// The Hash binding must spread reduce tasks evenly over lanes.
func TestHashBindingBalance(t *testing.T) {
	ls := kvmsr.LaneSet{First: 0, Count: 64}
	counts := make([]int, 64)
	var h kvmsr.Hash
	const keys = 64 * 1000
	for k := uint64(0); k < keys; k++ {
		counts[ls.Index(h.Lane(k, ls))]++
	}
	for lane, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("lane %d received %d of %d keys (want ~1000)", lane, c, keys)
		}
	}
}

// PBMW must complete all keys despite heavy skew, and beat Block on a
// workload whose expensive keys cluster in one lane's block.
func TestPBMWSkewToleranceAndCoverage(t *testing.T) {
	run := func(binding kvmsr.MapBinding) (updown.Cycles, []int32) {
		m, err := updown.New(updown.Config{Nodes: 1, Shards: 1, MaxTime: 1 << 36})
		if err != nil {
			t.Fatal(err)
		}
		const n = 4096
		seen := make([]int32, n)
		var inv *kvmsr.Invocation
		mapEv := m.Prog.Define("kv_map", func(c *updown.Ctx) {
			key := c.Op(0)
			atomic.AddInt32(&seen[key], 1)
			// Keys in the first 1/16 of the space are 400x more
			// expensive: under Block they all land on the first
			// lanes.
			if key < n/16 {
				c.Cycles(20000)
			} else {
				c.Cycles(50)
			}
			inv.Return(c, c.Cont())
			c.YieldTerminate()
		})
		inv = kvmsr.MustNew(m.Prog, kvmsr.Spec{
			Name: "skew", MapEvent: mapEv, MapBinding: binding,
			Lanes: kvmsr.LaneSet{First: 0, Count: 512},
		})
		m.Start(inv.LaunchEvw(), n)
		stats, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return stats.FinalTime, seen
	}
	blockTime, blockSeen := run(kvmsr.Block{})
	pbmwTime, pbmwSeen := run(kvmsr.PBMW{ChunkSize: 8})
	for k := range blockSeen {
		if blockSeen[k] != 1 || pbmwSeen[k] != 1 {
			t.Fatalf("key %d: block %d pbmw %d executions", k, blockSeen[k], pbmwSeen[k])
		}
	}
	if pbmwTime >= blockTime {
		t.Fatalf("PBMW (%d cycles) did not beat Block (%d cycles) on skewed work", pbmwTime, blockTime)
	}
}

// A map task spanning several events (split-phase DRAM access between
// them) must still be tracked correctly.
func TestMultiEventMapTask(t *testing.T) {
	m, err := updown.New(updown.Config{Nodes: 1, Shards: 1, MaxTime: 1 << 34})
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	dataVA, _ := m.GAS.DRAMmalloc(n*8, 0, 1, 4096)
	for i := uint64(0); i < n; i++ {
		m.GAS.WriteU64(dataVA+i*8, i*7)
	}
	type mapState struct{ mapCont uint64 }
	var inv *kvmsr.Invocation
	var phase2 udweave.Label
	mapEv := m.Prog.Define("kv_map", func(c *updown.Ctx) {
		c.SetState(&mapState{mapCont: c.Cont()})
		c.DRAMRead(dataVA+c.Op(0)*8, 1, c.ContinueTo(phase2))
	})
	phase2 = m.Prog.Define("kv_map_phase2", func(c *updown.Ctx) {
		s := c.State().(*mapState)
		inv.Emit(c, c.Op(0)) // emit the loaded value as the key
		inv.Return(c, s.mapCont)
		c.YieldTerminate()
	})
	var sum atomic.Uint64
	reduceEv := m.Prog.Define("kv_reduce", func(c *updown.Ctx) {
		sum.Add(c.Op(0))
		inv.ReduceDone(c)
		c.YieldTerminate()
	})
	inv = kvmsr.MustNew(m.Prog, kvmsr.Spec{
		Name: "multi", MapEvent: mapEv, ReduceEvent: reduceEv,
		Lanes: kvmsr.LaneSet{First: 0, Count: 128},
	})
	m.Start(inv.LaunchEvw(), n)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	want := uint64(7 * n * (n - 1) / 2)
	if sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}

// The parallel simulator must produce the identical completion time as the
// sequential reference for a full map-shuffle-reduce (only simulated state
// is shared, so any shard count is safe).
func TestParallelEngineDeterminism(t *testing.T) {
	run := func(shards int) (updown.Cycles, uint64) {
		m, err := updown.New(updown.Config{Nodes: 4, Shards: shards, MaxTime: 1 << 34})
		if err != nil {
			t.Fatal(err)
		}
		counterVA, _ := m.GAS.DRAMmalloc(4096, 0, 1, 4096)
		var inv *kvmsr.Invocation
		var ack udweave.Label
		mapEv := m.Prog.Define("kv_map", func(c *updown.Ctx) {
			c.Cycles(int(c.Op(0)%37) + 5)
			inv.Emit(c, c.Op(0)*2654435761, c.Op(0))
			inv.Return(c, c.Cont())
			c.YieldTerminate()
		})
		reduceEv := m.Prog.Define("kv_reduce", func(c *updown.Ctx) {
			c.Cycles(12)
			c.DRAMFetchAdd(counterVA, c.Op(1), c.ContinueTo(ack))
		})
		ack = m.Prog.Define("ack", func(c *updown.Ctx) {
			inv.ReduceDone(c)
			c.YieldTerminate()
		})
		inv = kvmsr.MustNew(m.Prog, kvmsr.Spec{
			Name: "det", MapEvent: mapEv, ReduceEvent: reduceEv,
			Lanes: kvmsr.AllLanes(m.Arch),
		})
		const n = 3000
		m.Start(inv.LaunchEvw(), n)
		stats, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return stats.FinalTime, m.GAS.ReadU64(counterVA)
	}
	seqTime, seqSum := run(1)
	parTime, parSum := run(4)
	if seqTime != parTime || seqSum != parSum {
		t.Fatalf("parallel (time %d, sum %d) != sequential (time %d, sum %d)",
			parTime, parSum, seqTime, seqSum)
	}
	if seqSum != 3000*2999/2 {
		t.Fatalf("sum = %d, want %d", seqSum, 3000*2999/2)
	}
}

func TestZeroKeysCompletes(t *testing.T) {
	m, err := updown.New(updown.Config{Nodes: 1, Shards: 1, MaxTime: 1 << 32})
	if err != nil {
		t.Fatal(err)
	}
	var inv *kvmsr.Invocation
	mapEv := m.Prog.Define("kv_map", func(c *updown.Ctx) {
		t.Error("map ran with zero keys")
		inv.Return(c, c.Cont())
		c.YieldTerminate()
	})
	reduceEv := m.Prog.Define("kv_reduce", func(c *updown.Ctx) {
		inv.ReduceDone(c)
		c.YieldTerminate()
	})
	var fired atomic.Bool
	done := m.Prog.Define("done", func(c *updown.Ctx) {
		fired.Store(true)
		c.YieldTerminate()
	})
	inv = kvmsr.MustNew(m.Prog, kvmsr.Spec{
		Name: "zero", MapEvent: mapEv, ReduceEvent: reduceEv,
		Lanes: kvmsr.AllLanes(m.Arch),
	})
	m.StartWithCont(inv.LaunchEvw(), updown.EvwNew(0, done), 0)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired.Load() {
		t.Fatal("completion never fired for zero keys")
	}
}

func TestSpecValidation(t *testing.T) {
	m, _ := updown.New(updown.Config{Nodes: 1, Shards: 1})
	if _, err := kvmsr.New(m.Prog, kvmsr.Spec{Name: "x", Lanes: kvmsr.AllLanes(m.Arch)}); err == nil {
		t.Error("missing MapEvent accepted")
	}
	ev := m.Prog.Define("e", func(c *updown.Ctx) {})
	for _, tc := range []struct {
		what  string
		lanes kvmsr.LaneSet
	}{
		{"empty", kvmsr.LaneSet{First: 0, Count: 0}},
		{"oversized", kvmsr.LaneSet{First: 0, Count: 1 << 30}},
		// Counts whose end wraps in a 32-bit NetworkID: to [0,64), and
		// negative.
		{"wrapping", kvmsr.LaneSet{First: 0, Count: 1<<32 + 64}},
		{"negative-end", kvmsr.LaneSet{First: 10, Count: math.MaxInt32}},
	} {
		if _, err := kvmsr.New(m.Prog, kvmsr.Spec{Name: "x", MapEvent: ev, Lanes: tc.lanes}); err == nil {
			t.Errorf("%s LaneSet %+v accepted", tc.what, tc.lanes)
		}
	}
}

// Invocations of different programs may be built concurrently (parallel
// sweep points, t.Parallel tests): New touches only its own program. Run
// under -race; a package-level launch counter used to make this a race.
func TestNewOnConcurrentPrograms(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := updown.New(updown.Config{Nodes: 1, Shards: 1})
			if err != nil {
				t.Error(err)
				return
			}
			ev := m.Prog.Define("e", func(c *updown.Ctx) {})
			if _, err := kvmsr.New(m.Prog, kvmsr.Spec{Name: "x", MapEvent: ev, ReduceEvent: ev, Lanes: kvmsr.AllLanes(m.Arch)}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// Small subsets of lanes (down to a single lane, where one lane plays all
// four tree roles) must work.
func TestSmallLaneSets(t *testing.T) {
	for _, lanes := range []int{1, 3, 64, 65, 100} {
		m, err := updown.New(updown.Config{Nodes: 1, Shards: 1, MaxTime: 1 << 34})
		if err != nil {
			t.Fatal(err)
		}
		const n = 200
		var ran atomic.Int64
		var inv *kvmsr.Invocation
		mapEv := m.Prog.Define("kv_map", func(c *updown.Ctx) {
			ran.Add(1)
			inv.Emit(c, c.Op(0))
			inv.Return(c, c.Cont())
			c.YieldTerminate()
		})
		reduceEv := m.Prog.Define("kv_reduce", func(c *updown.Ctx) {
			inv.ReduceDone(c)
			c.YieldTerminate()
		})
		inv = kvmsr.MustNew(m.Prog, kvmsr.Spec{
			Name: "small", MapEvent: mapEv, ReduceEvent: reduceEv,
			Lanes: kvmsr.LaneSet{First: 5, Count: lanes},
		})
		m.Start(inv.LaunchEvw(), n)
		if _, err := m.Run(); err != nil {
			t.Fatalf("lanes=%d: %v", lanes, err)
		}
		if ran.Load() != n {
			t.Fatalf("lanes=%d: ran %d maps, want %d", lanes, ran.Load(), n)
		}
	}
}

// TestAnyLanePacksSpreadByKey: under Coalesce a ReduceAnyLane distributor
// runs every tuple of a pack in place, so a pack goes to the distributor
// its first key hashes to. One map task emitting many keys to another node
// then has its reduces run on many of that node's lanes; picked by the
// sender's lane, every pack of the task landed on one.
func TestAnyLanePacksSpreadByKey(t *testing.T) {
	m, err := updown.New(updown.Config{Nodes: 2, Shards: 1, MaxTime: 1 << 34, Coalesce: &kvmsr.Coalesce{}})
	if err != nil {
		t.Fatal(err)
	}
	const emits = 600
	var inv *kvmsr.Invocation
	mapEv := m.Prog.Define("kv_map", func(c *updown.Ctx) {
		for k := uint64(0); k < emits; k++ {
			inv.Emit(c, k, k)
		}
		inv.Return(c, c.Cont())
		c.YieldTerminate()
	})
	remote := map[updown.NetworkID]bool{}
	reduceEv := m.Prog.Define("kv_reduce", func(c *updown.Ctx) {
		if m.Arch.NodeOf(c.NetworkID()) == 1 {
			remote[c.NetworkID()] = true
		}
		inv.ReduceDone(c)
		c.YieldTerminate()
	})
	done := m.Prog.Define("done", func(c *updown.Ctx) { c.YieldTerminate() })
	inv = kvmsr.MustNew(m.Prog, kvmsr.Spec{
		Name: "anylane", MapEvent: mapEv, ReduceEvent: reduceEv, ReduceAnyLane: true,
		Lanes: kvmsr.AllLanes(m.Arch), Coalesce: m.Coalesce,
	})
	m.StartWithCont(inv.LaunchEvw(), updown.EvwNew(m.Arch.LaneID(0, 0, 0), done), 1)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(remote) < 32 {
		t.Fatalf("the map task's remote reduces ran on %d lanes of node 1, want at least 32", len(remote))
	}
}
