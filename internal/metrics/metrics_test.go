package metrics_test

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"updown/internal/arch"
	"updown/internal/dram"
	"updown/internal/gasmem"
	"updown/internal/metrics"
	"updown/internal/sim"
	"updown/internal/udweave"
)

// TestBucketAttribution pins the bucketing rule: observations land in the
// bucket containing their start cycle, and charges are not split across
// bucket boundaries.
func TestBucketAttribution(t *testing.T) {
	r := metrics.New(2, metrics.Options{Interval: 100})
	v := r.Shard(0)
	v.Event(0, -1, arch.KindEvent, 0, 10, 0)
	v.Event(0, -1, arch.KindEvent, 99, 10, 3) // same bucket, crosses boundary
	v.Event(0, -1, arch.KindEvent, 100, 5, 1) // next bucket
	v.Event(1, -1, arch.KindEvent, 250, 7, 0) // other node, third bucket
	v.Send(0, true, 128, 99)                  // cross-node: injection backlog
	v.Send(0, false, 0, 99)                   // intra-node: no port
	v.DRAM(1, 64, 640, 250)
	r.ObserveTotals(metrics.Totals{FinalTime: 257})

	p := r.Profile()
	n0, n1 := &p.Nodes[0], &p.Nodes[1]
	if len(n0.Samples) != 2 || len(n1.Samples) != 3 {
		t.Fatalf("sample counts: node0=%d node1=%d", len(n0.Samples), len(n1.Samples))
	}
	b0 := n0.Samples[0]
	if b0.Events != 2 || b0.Busy != 20 || b0.MaxWaitq != 3 {
		t.Errorf("node0 bucket0 = %+v", b0)
	}
	if b0.Sends != 2 || b0.XSends != 1 || b0.InjBacklog64 != 128 {
		t.Errorf("node0 bucket0 sends = %+v", b0)
	}
	if n0.Samples[1].Events != 1 || n0.Samples[1].Busy != 5 {
		t.Errorf("node0 bucket1 = %+v", n0.Samples[1])
	}
	b2 := n1.Samples[2]
	if b2.DRAMBytes != 64 || b2.DRAMBacklog64 != 640 {
		t.Errorf("node1 bucket2 = %+v", b2)
	}
	if p.Kinds[arch.KindEvent].Count != 4 || p.Kinds[arch.KindEvent].Cycles != 32 {
		t.Errorf("kind table = %+v", p.Kinds[arch.KindEvent])
	}
	if p.FinalTime != 257 {
		t.Errorf("final time = %d", p.FinalTime)
	}
}

// TestSummarize checks the utilization formulas on a hand-built profile.
func TestSummarize(t *testing.T) {
	m := arch.DefaultMachine(2)
	r := metrics.New(2, metrics.Options{Interval: 100})
	v := r.Shard(0)
	// Node 0: 300 busy cycles, node 1: 100 — imbalance 300/200 = 1.5.
	v.Event(0, -1, arch.KindEvent, 0, 300, 0)
	v.Event(1, -1, arch.KindEvent, 0, 100, 0)
	// Node 1 serves 470000 bytes in a 1000-cycle run at 4700 B/cycle:
	// 10% of its bandwidth.
	v.DRAM(1, 470000, 0, 50)
	// Node 0 injects 1000 cross-node messages; at 64 B per message and
	// 2000 B/cycle each occupies 64/2000 of a cycle (xfer64 = 2048/2000
	// = 1 unit after integer truncation... see engine's injXfer64).
	for i := 0; i < 1000; i++ {
		v.Send(0, true, 0, 60)
	}
	r.ObserveTotals(metrics.Totals{FinalTime: 1000})

	s := r.Profile().Summarize(m)
	if s.NodesTouched != 2 {
		t.Fatalf("nodes touched = %d", s.NodesTouched)
	}
	if s.Imbalance != 1.5 {
		t.Errorf("imbalance = %v, want 1.5", s.Imbalance)
	}
	if s.PeakBusyNode != 0 {
		t.Errorf("peak node = %d", s.PeakBusyNode)
	}
	if s.DRAMUtil != 0.1 {
		t.Errorf("DRAM util = %v, want 0.1", s.DRAMUtil)
	}
	// xfer64 = 64*64/2000 = 2 units = 1/32 cycle per message; 1000
	// messages over 1000 cycles = 1/32 port utilization.
	if s.InjUtil != 1.0/32 {
		t.Errorf("inj util = %v, want %v", s.InjUtil, 1.0/32)
	}
}

// obsActor is a deterministic fanout workload for the determinism test:
// hash-derived charges, cross-node sends and DRAM traffic of every kind.
type obsActor struct {
	m   *arch.Machine
	gas *gasmem.GAS
	va  uint64
	n   uint64 // words in the DRAM region
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (a *obsActor) OnMessage(env *sim.Env, msg *sim.Message) {
	if msg.Kind != arch.KindEvent {
		return
	}
	h := splitmix64(msg.Event ^ uint64(env.Self())<<17)
	env.Charge(arch.Cycles(1 + h%19))
	ttl := msg.Ops[0]
	if ttl == 0 {
		return
	}
	// Fan out to 1-2 hash-derived lanes.
	for k := 0; k < 1+int(h%2); k++ {
		h = splitmix64(h)
		dst := a.m.LaneID(int(h%uint64(a.m.Nodes)),
			int((h>>16)%uint64(a.m.AccelsPerNode)),
			int((h>>32)%uint64(a.m.LanesPerAccel)))
		env.Send(dst, arch.KindEvent, h, udweave.IGNRCONT, ttl-1)
	}
	// Issue a DRAM request of a hash-derived kind against a hash-derived
	// word; responses return here as events with TTL 0.
	addr := a.va + (h%a.n)*8
	ctrl := a.m.MemCtrlID(a.gas.NodeOf(addr))
	cont := udweave.EvwExisting(env.Self(), 0, 1)
	switch h % 3 {
	case 0:
		env.Send(ctrl, arch.KindDRAMRead, 0, cont, addr, 1+h%4)
	case 1:
		env.Send(ctrl, arch.KindDRAMWrite, 0, udweave.IGNRCONT, addr, h, h>>7)
	default:
		env.Send(ctrl, arch.KindDRAMFetchAdd, 0, cont, addr, 3)
	}
}

// obsRun executes the workload at the given shard count and returns the
// profile text report and the exported trace bytes.
func obsRun(t *testing.T, shards int) (string, []byte) {
	t.Helper()
	m := arch.DefaultMachine(4)
	gas := gasmem.New(m.Nodes, m.DRAMBytesPerNode)
	rec := metrics.New(m.Nodes, metrics.Options{Interval: 512})
	const words = 1 << 12
	va, err := gas.DRAMmalloc(words*8, 0, m.Nodes, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var eng *sim.Engine
	eng, err = sim.NewEngine(m, sim.Options{
		Shards:  shards,
		Metrics: rec,
		LaneFactory: func(id arch.NetworkID) sim.Actor {
			return &obsActor{m: &m, gas: gas, va: va, n: words}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	dram.Install(eng, gas)
	for r := uint64(0); r < 6; r++ {
		h := splitmix64(r)
		id := m.LaneID(int(h%uint64(m.Nodes)), 0, int(h>>8)%m.LanesPerAccel)
		eng.Post(arch.Cycles(h%900), id, arch.KindEvent, h, udweave.IGNRCONT, 5)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	p := rec.Profile()
	var trace bytes.Buffer
	if err := metrics.WriteTraceFile(&trace, m, p, nil); err != nil {
		t.Fatal(err)
	}
	return p.String(), trace.Bytes()
}

// TestRecorderDeterminism: the recorder's merged output must be
// byte-identical at every shard count — per-node series are computed from
// per-node event streams that the engine executes in the same order
// regardless of host parallelism, per-kind tables merge by integer sums,
// and the busiest lane is a maximum over per-lane sums with ties to the
// lowest ID.
func TestRecorderDeterminism(t *testing.T) {
	refText, refTrace := obsRun(t, 1)
	if !strings.Contains(refText, "dram-fadd") || !strings.Contains(refText, "busiest lane: ") {
		t.Fatalf("workload did not exercise fetch-adds or report a busiest lane:\n%s", refText)
	}
	for _, shards := range []int{2, 3, 7, runtime.GOMAXPROCS(0)} {
		text, trace := obsRun(t, shards)
		if text != refText {
			t.Errorf("shards=%d: profile text diverges\n--- shards=1\n%s\n--- shards=%d\n%s",
				shards, refText, shards, text)
		}
		if !bytes.Equal(trace, refTrace) {
			t.Errorf("shards=%d: trace bytes diverge (%d vs %d bytes)",
				shards, len(trace), len(refTrace))
		}
	}
}

// TestBusiestLane: the busiest lane is the largest per-lane busy total over
// every shard view, ties going to the lowest lane ID; memory controllers
// and other non-lane actors do not count.
func TestBusiestLane(t *testing.T) {
	r := metrics.New(4, metrics.Options{Interval: 100})
	a, b := r.Shard(0), r.Shard(1)
	a.Event(0, 9, arch.KindEvent, 0, 30, 0)
	a.Event(0, 4, arch.KindEvent, 10, 20, 0)
	b.Event(3, 200, arch.KindEvent, 0, 25, 0)
	b.Event(3, 200, arch.KindEvent, 40, 5, 0)    // lane 200: 30, ties lane 9
	b.Event(3, 130, arch.KindEvent, 0, 10, 0)    // below the view's first lane
	b.Event(3, -1, arch.KindDRAMRead, 0, 500, 0) // a controller: not a lane
	a.Event(0, 4, arch.KindEvent, 20, 10, 0)     // lane 4: 30, ties too
	r.ObserveTotals(metrics.Totals{FinalTime: 120})
	p := r.Profile()
	if want := (metrics.LaneBusy{Lane: 4, Node: 0, Busy: 30}); p.BusiestLane != want {
		t.Fatalf("busiest lane %+v, want %+v", p.BusiestLane, want)
	}
	if !strings.Contains(p.String(), "busiest lane: 4 (node 0) 30 cycles = 25.0% of makespan\n") {
		t.Errorf("report lacks the busiest-lane line:\n%s", p.String())
	}
	if p := metrics.New(1, metrics.Options{}).Profile(); strings.Contains(p.String(), "busiest") {
		t.Errorf("an empty run reports a busiest lane:\n%s", p.String())
	}
}

// TestRecorderAccumulatesAcrossRuns: multi-phase drivers (Post, Run, Post,
// Run) accumulate into one profile.
func TestRecorderAccumulatesAcrossRuns(t *testing.T) {
	m := arch.DefaultMachine(1)
	rec := metrics.New(1, metrics.Options{})
	eng, err := sim.NewEngine(m, sim.Options{Shards: 1, Metrics: rec,
		LaneFactory: func(id arch.NetworkID) sim.Actor {
			return actorFunc(func(env *sim.Env, msg *sim.Message) { env.Charge(10) })
		}})
	if err != nil {
		t.Fatal(err)
	}
	lane := m.LaneID(0, 0, 0)
	eng.Post(0, lane, arch.KindEvent, 0, udweave.IGNRCONT)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	eng.Post(50, lane, arch.KindEvent, 0, udweave.IGNRCONT)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	p := rec.Profile()
	if got := p.Kinds[arch.KindEvent].Count; got != 2 {
		t.Fatalf("events across runs = %d, want 2", got)
	}
	if got := p.Nodes[0].Totals().Busy; got != 20 {
		t.Fatalf("busy across runs = %d, want 20", got)
	}
}

// TestKindTableSplitsLocalFromCrossNode: the per-kind table counts, next to
// every delivery, the ones whose sender sits on another node — for DRAM
// kinds the accesses a lane makes to another node's memory.
func TestKindTableSplitsLocalFromCrossNode(t *testing.T) {
	m := arch.DefaultMachine(2)
	gas := gasmem.New(m.Nodes, m.DRAMBytesPerNode)
	va, err := gas.DRAMmalloc(2*4096, 0, 2, 4096) // block 0 on node 0, block 1 on node 1
	if err != nil {
		t.Fatal(err)
	}
	rec := metrics.New(m.Nodes, metrics.Options{})
	eng, err := sim.NewEngine(m, sim.Options{Shards: 2, Metrics: rec,
		LaneFactory: func(id arch.NetworkID) sim.Actor {
			return actorFunc(func(env *sim.Env, msg *sim.Message) {
				env.Charge(1)
				if msg.Event != 0 {
					return // a DRAM response
				}
				// Two reads and a write of node 0's block, one read of node 1's.
				cont := udweave.EvwExisting(env.Self(), 0, 1)
				env.Send(m.MemCtrlID(0), arch.KindDRAMRead, 0, cont, va, 1)
				env.Send(m.MemCtrlID(0), arch.KindDRAMRead, 0, cont, va+8, 1)
				env.Send(m.MemCtrlID(0), arch.KindDRAMWrite, 0, udweave.IGNRCONT, va+16, 7)
				env.Send(m.MemCtrlID(1), arch.KindDRAMRead, 0, cont, va+4096, 1)
			})
		}})
	if err != nil {
		t.Fatal(err)
	}
	dram.Install(eng, gas)
	eng.Post(0, m.LaneID(0, 0, 0), arch.KindEvent, 0, udweave.IGNRCONT, 1)
	eng.Post(0, m.LaneID(1, 3, 5), arch.KindEvent, 0, udweave.IGNRCONT, 1)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	p := rec.Profile()
	// Per lane 3 reads + 1 write; the lane on node 0 crosses with 1 read, the
	// lane on node 1 with 2 reads and the write. Events: 2 posts (from the
	// host interface on node 0, so node 1's crosses) + 6 read responses, 3 of
	// them from the other node.
	for _, want := range []struct {
		kind uint8
		stat metrics.KindStat
	}{
		{arch.KindDRAMRead, metrics.KindStat{Count: 6, Cross: 3}},
		{arch.KindDRAMWrite, metrics.KindStat{Count: 2, Cross: 1}},
		{arch.KindEvent, metrics.KindStat{Count: 8, Cross: 4}},
	} {
		got := p.Kinds[want.kind]
		got.Cycles = 0
		if got != want.stat {
			t.Errorf("%s: %+v, want %+v", metrics.KindName(int(want.kind)), got, want.stat)
		}
	}
	if !strings.Contains(p.String(), "dram-read               6              0            3 (50.0%)") {
		t.Errorf("report lacks the cross-node column:\n%s", p.String())
	}
}

// TestKindNames: every message kind below arch.NumKinds has a row name of
// its own, not the overflow row's kind-N.
func TestKindNames(t *testing.T) {
	seen := map[string]bool{}
	for k := 0; k < int(arch.NumKinds); k++ {
		name := metrics.KindName(k)
		if strings.HasPrefix(name, "kind-") || seen[name] {
			t.Errorf("kind %d is named %q", k, name)
		}
		seen[name] = true
	}
}

type actorFunc func(*sim.Env, *sim.Message)

func (f actorFunc) OnMessage(env *sim.Env, m *sim.Message) { f(env, m) }

// TestNodeCountMismatch: installing a recorder sized for the wrong machine
// must fail loudly at engine construction.
func TestNodeCountMismatch(t *testing.T) {
	m := arch.DefaultMachine(2)
	_, err := sim.NewEngine(m, sim.Options{Shards: 1, Metrics: metrics.New(3, metrics.Options{})})
	if err == nil {
		t.Fatal("mismatched recorder accepted")
	}
	if !strings.Contains(err.Error(), "metrics") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func ExampleProfile_String() {
	r := metrics.New(1, metrics.Options{Interval: 100})
	r.Shard(0).Event(0, 5, arch.KindEvent, 0, 42, 0)
	r.ObserveTotals(metrics.Totals{FinalTime: 100})
	fmt.Print(r.Profile().String())
	// Output:
	// profile: interval=100 cycles, final=100 cycles
	// kind                count         cycles   cross-node
	// event                   1             42            0 (0.0%)
	// busiest lane: 5 (node 0) 42 cycles = 42.0% of makespan
	// node           busy     events      sends     xsends     dram-bytes    backlog    waitq
	// 0                42          1          0          0              0          0        0
}
