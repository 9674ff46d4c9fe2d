package udweave_test

import (
	"testing"
	"testing/quick"

	"updown/internal/arch"
	"updown/internal/dram"
	"updown/internal/gasmem"
	"updown/internal/sim"
	"updown/internal/udweave"
)

// rig assembles a minimal machine for runtime tests.
type rig struct {
	m    arch.Machine
	eng  *sim.Engine
	gas  *gasmem.GAS
	prog *udweave.Program
}

func newRig(t *testing.T, nodes int) *rig {
	t.Helper()
	m := arch.DefaultMachine(nodes)
	gas := gasmem.New(m.Nodes, m.DRAMBytesPerNode)
	prog := udweave.NewProgram(m, gas)
	eng, err := sim.NewEngine(m, sim.Options{Shards: 1, MaxTime: 1 << 40, LaneFactory: prog.NewLane})
	if err != nil {
		t.Fatal(err)
	}
	dram.Install(eng, gas)
	return &rig{m: m, eng: eng, gas: gas, prog: prog}
}

func (r *rig) start(evw uint64, ops ...uint64) {
	r.eng.Post(0, udweave.EvwNetworkID(evw), arch.KindEvent, evw, udweave.IGNRCONT, ops...)
}

func (r *rig) run(t *testing.T) sim.Stats {
	t.Helper()
	stats, err := r.eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func TestEventWordRoundTrip(t *testing.T) {
	f := func(nid uint32, tid uint16, label uint16) bool {
		l := udweave.Label(label & 0xFFF)
		evw := udweave.EvwExisting(arch.NetworkID(int32(nid)), tid, l)
		return udweave.EvwNetworkID(evw) == arch.NetworkID(int32(nid)) &&
			udweave.EvwTID(evw) == tid &&
			udweave.EvwLabel(evw) == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEvwUpdateEventPreservesThread(t *testing.T) {
	f := func(nid uint32, tid uint16, l1, l2 uint16) bool {
		evw := udweave.EvwExisting(arch.NetworkID(int32(nid)), tid, udweave.Label(l1&0xFFF))
		up := udweave.EvwUpdateEvent(evw, udweave.Label(l2&0xFFF))
		return udweave.EvwNetworkID(up) == udweave.EvwNetworkID(evw) &&
			udweave.EvwTID(up) == udweave.EvwTID(evw) &&
			udweave.EvwLabel(up) == udweave.Label(l2&0xFFF)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEvwNewRequestsFreshThread(t *testing.T) {
	evw := udweave.EvwNew(42, 7)
	if udweave.EvwTID(evw) != udweave.NewThreadTID {
		t.Fatal("EvwNew did not set the new-thread sentinel")
	}
	if udweave.EvwNetworkID(evw) != 42 || udweave.EvwLabel(evw) != 7 {
		t.Fatal("EvwNew mangled fields")
	}
}

// TestCallReturnComposition reproduces the paper's Listing 2: e1 creates a
// new thread on the next lane running e2, passing a continuation back into
// its own thread at e3.
func TestCallReturnComposition(t *testing.T) {
	r := newRig(t, 1)
	var trace []string
	var e2, e3 udweave.Label
	e1 := r.prog.Define("e1", func(c *udweave.Ctx) {
		trace = append(trace, "e1")
		evw := udweave.EvwNew(c.NetworkID()+1, e2)
		ctW := c.ContinueTo(e3)
		c.SendEvent(evw, ctW, 0, 1)
	})
	e2 = r.prog.Define("e2", func(c *udweave.Ctx) {
		if c.Op(0) != 0 || c.Op(1) != 1 {
			t.Errorf("e2 received %d,%d, want 0,1", c.Op(0), c.Op(1))
		}
		trace = append(trace, "e2")
		c.Reply(c.Cont())
		c.YieldTerminate()
	})
	e3 = r.prog.Define("e3", func(c *udweave.Ctx) {
		trace = append(trace, "e3")
		c.YieldTerminate()
	})
	r.start(udweave.EvwNew(r.m.LaneID(0, 0, 0), e1))
	r.run(t)
	want := []string{"e1", "e2", "e3"}
	if len(trace) != 3 || trace[0] != want[0] || trace[1] != want[1] || trace[2] != want[2] {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

// TestThreadStatePersistsAcrossEvents mirrors Listing 1: thread variables
// survive yields and accumulate across events of one thread.
func TestThreadStatePersistsAcrossEvents(t *testing.T) {
	r := newRig(t, 1)
	type state struct{ sum uint64 }
	var result uint64
	var accum udweave.Label
	accum = r.prog.Define("accum", func(c *udweave.Ctx) {
		if c.State() == nil {
			c.SetState(&state{})
		}
		s := c.State().(*state)
		s.sum += c.Op(0)
		if c.Op(0) == 0 {
			result = s.sum
			c.YieldTerminate()
			return
		}
		// Re-enter the same thread with the next value.
		c.SendEvent(c.EventWord(), udweave.IGNRCONT, c.Op(0)-1)
	})
	r.start(udweave.EvwNew(r.m.LaneID(0, 0, 0), accum), 10)
	r.run(t)
	if result != 55 {
		t.Fatalf("sum = %d, want 55", result)
	}
}

func TestThreadsAreIsolated(t *testing.T) {
	// Two threads on one lane must have separate state.
	r := newRig(t, 1)
	got := map[uint64]uint64{}
	var ev udweave.Label
	ev = r.prog.Define("tally", func(c *udweave.Ctx) {
		if c.State() == nil {
			c.SetState(c.Op(0))
			c.SendEvent(c.EventWord(), udweave.IGNRCONT, c.Op(0))
			return
		}
		got[c.State().(uint64)] = c.Op(0)
		c.YieldTerminate()
	})
	lane := r.m.LaneID(0, 0, 0)
	r.start(udweave.EvwNew(lane, ev), 100)
	r.start(udweave.EvwNew(lane, ev), 200)
	r.run(t)
	if got[100] != 100 || got[200] != 200 {
		t.Fatalf("states mixed: %v", got)
	}
}

func TestThreadContextsRecycled(t *testing.T) {
	r := newRig(t, 1)
	done := 0
	ev := r.prog.Define("short", func(c *udweave.Ctx) {
		done++
		c.YieldTerminate()
	})
	lane := r.m.LaneID(0, 0, 0)
	for i := 0; i < 100; i++ {
		r.start(udweave.EvwNew(lane, ev))
	}
	r.run(t)
	if done != 100 {
		t.Fatalf("ran %d events, want 100", done)
	}
	la := r.eng.Actor(lane).(*udweave.Lane)
	if la.LiveThreads() != 0 {
		t.Fatalf("%d threads leaked", la.LiveThreads())
	}
}

// TestDRAMReadWriteRoundTrip checks split-phase memory access end to end:
// write then read back through the controller, observing latency.
func TestDRAMReadWriteRoundTrip(t *testing.T) {
	r := newRig(t, 2)
	va, err := r.gas.DRAMmalloc(1<<16, 0, 2, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	var gotTime arch.Cycles
	var read, recv udweave.Label
	write := r.prog.Define("write", func(c *udweave.Ctx) {
		c.DRAMWrite(va, c.ContinueTo(read), 11, 22, 33)
	})
	read = r.prog.Define("read", func(c *udweave.Ctx) {
		c.DRAMRead(va, 3, c.ContinueTo(recv))
	})
	recv = r.prog.Define("recv", func(c *udweave.Ctx) {
		got = append(got, c.Ops()...)
		gotTime = c.Now()
		c.YieldTerminate()
	})
	r.start(udweave.EvwNew(r.m.LaneID(0, 0, 0), write))
	stats := r.run(t)
	if len(got) != 3 || got[0] != 11 || got[1] != 22 || got[2] != 33 {
		t.Fatalf("read back %v", got)
	}
	// Two round trips to the local controller: each at least
	// 2*LatSameNode + DRAMLatency.
	minT := 2 * (2*r.m.LatSameNode + r.m.DRAMLatency)
	if gotTime < minT {
		t.Fatalf("round trip took %d cycles, want >= %d", gotTime, minT)
	}
	if stats.DRAMReads != 1 || stats.DRAMWrites != 1 {
		t.Fatalf("stats: %d reads, %d writes", stats.DRAMReads, stats.DRAMWrites)
	}
}

func TestDRAMReadRoutesToOwningNode(t *testing.T) {
	r := newRig(t, 4)
	// One contiguous chunk per node: address in chunk i lives on node i.
	const size = 1 << 20
	va, err := r.gas.DRAMmalloc(size, 0, 4, size/4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		addr := va + uint64(i)*size/4
		r.gas.WriteU64(addr, uint64(1000+i))
	}
	var got []uint64
	var recv udweave.Label
	start := r.prog.Define("start", func(c *udweave.Ctx) {
		for i := 0; i < 4; i++ {
			c.DRAMRead(va+uint64(i)*size/4, 1, c.ContinueTo(recv))
		}
	})
	recv = r.prog.Define("recv", func(c *udweave.Ctx) {
		got = append(got, c.Op(0))
		if len(got) == 4 {
			c.YieldTerminate()
		}
	})
	r.start(udweave.EvwNew(r.m.LaneID(0, 0, 0), start))
	r.run(t)
	if len(got) != 4 {
		t.Fatalf("got %d replies", len(got))
	}
	sum := uint64(0)
	for _, v := range got {
		sum += v
	}
	if sum != 1000+1001+1002+1003 {
		t.Fatalf("values %v", got)
	}
}

func TestDRAMFetchAddAtomicity(t *testing.T) {
	r := newRig(t, 2)
	va, _ := r.gas.DRAMmalloc(4096, 0, 1, 4096)
	var olds []uint64
	var recv udweave.Label
	start := r.prog.Define("faa", func(c *udweave.Ctx) {
		c.DRAMFetchAdd(va, 1, c.ContinueTo(recv))
	})
	recv = r.prog.Define("recvOld", func(c *udweave.Ctx) {
		olds = append(olds, c.Op(0))
		c.YieldTerminate()
	})
	// Many lanes increment concurrently.
	const n = 64
	for i := 0; i < n; i++ {
		r.start(udweave.EvwNew(r.m.LaneID(0, i/8, i%8), start))
	}
	r.run(t)
	if got := r.gas.ReadU64(va); got != n {
		t.Fatalf("counter = %d, want %d", got, n)
	}
	// All prior values must be distinct (atomicity).
	seen := map[uint64]bool{}
	for _, o := range olds {
		if seen[o] {
			t.Fatalf("duplicate prior value %d", o)
		}
		seen[o] = true
	}
}

func TestRemoteDRAMSlowdown(t *testing.T) {
	// Accessing another node's memory must cost more than local: the
	// paper cites a ~7:1 latency ratio.
	measure := func(sameNode bool) arch.Cycles {
		r := newRig(t, 2)
		// Region on node 1 only.
		va, _ := r.gas.DRAMmalloc(1<<16, 1, 1, 4096)
		var done arch.Cycles
		var recv udweave.Label
		start := r.prog.Define("start", func(c *udweave.Ctx) {
			c.DRAMRead(va, 1, c.ContinueTo(recv))
		})
		recv = r.prog.Define("recv", func(c *udweave.Ctx) {
			done = c.Now()
			c.YieldTerminate()
		})
		node := 0
		if sameNode {
			node = 1
		}
		r.start(udweave.EvwNew(r.m.LaneID(node, 0, 0), start))
		r.run(t)
		return done
	}
	local := measure(true)
	remote := measure(false)
	if ratio := float64(remote) / float64(local); ratio < 4 {
		t.Fatalf("remote/local = %d/%d = %.1f, want a substantial penalty", remote, local, ratio)
	}
}

func TestUndefinedEventPanics(t *testing.T) {
	r := newRig(t, 1)
	r.start(udweave.EvwNew(r.m.LaneID(0, 0, 0), 99))
	defer func() {
		if recover() == nil {
			t.Fatal("undefined label did not panic")
		}
	}()
	r.eng.Run() //nolint:errcheck
}

func TestSendEventToIgnoredContinuationIsNoop(t *testing.T) {
	r := newRig(t, 1)
	ev := r.prog.Define("noop", func(c *udweave.Ctx) {
		c.Reply(udweave.IGNRCONT, 1, 2, 3)
		c.YieldTerminate()
	})
	r.start(udweave.EvwNew(r.m.LaneID(0, 0, 0), ev))
	stats := r.run(t)
	if stats.Events != 1 {
		t.Fatalf("Events = %d, want 1 (reply to IGNRCONT must not send)", stats.Events)
	}
}

// Fine-grained tasks of 10-100 instructions must complete in comparable
// simulated cycles: the machine supports them "with high efficiency".
func TestFineGrainedTaskCost(t *testing.T) {
	r := newRig(t, 1)
	ev := r.prog.Define("tiny", func(c *udweave.Ctx) {
		c.Cycles(50)
		c.YieldTerminate()
	})
	r.start(udweave.EvwNew(r.m.LaneID(0, 0, 0), ev))
	stats := r.run(t)
	// Overhead beyond the 50 charged instructions must be tiny: create 0
	// + dispatch 2 + dealloc 1.
	if stats.BusyCycles < 50 || stats.BusyCycles > 60 {
		t.Fatalf("50-instruction task occupied %d cycles", stats.BusyCycles)
	}
}
