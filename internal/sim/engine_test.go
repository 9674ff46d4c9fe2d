package sim

import (
	"errors"
	"testing"

	"updown/internal/arch"
)

// echoActor replies to every message with a recorded payload, charging a
// configurable cost.
type echoActor struct {
	cost     arch.Cycles
	replyTo  arch.NetworkID
	received []Message
	times    []arch.Cycles
}

func (a *echoActor) OnMessage(env *Env, m *Message) {
	a.received = append(a.received, *m)
	a.times = append(a.times, env.Start())
	env.Charge(a.cost)
	if a.replyTo >= 0 {
		env.Send(a.replyTo, arch.KindEvent, m.Event+1, m.Cont, m.Ops[0])
	}
}

type sinkActor struct {
	got   []uint64
	times []arch.Cycles
}

func (a *sinkActor) OnMessage(env *Env, m *Message) {
	a.got = append(a.got, m.Ops[0])
	a.times = append(a.times, env.Start())
	env.Charge(1)
}

func newTestEngine(t *testing.T, nodes, shards int) *Engine {
	t.Helper()
	e, err := NewEngine(arch.DefaultMachine(nodes), Options{Shards: shards, MaxTime: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSingleMessageDelivery(t *testing.T) {
	e := newTestEngine(t, 1, 1)
	sink := &sinkActor{}
	id := e.AddActor(sink)
	e.Post(0, id, arch.KindEvent, 0, 0, 99)
	stats, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.got) != 1 || sink.got[0] != 99 {
		t.Fatalf("sink got %v, want [99]", sink.got)
	}
	if stats.Events != 1 {
		t.Fatalf("Events = %d, want 1", stats.Events)
	}
}

func TestDeterministicOrderSameTime(t *testing.T) {
	// Two messages with the same delivery time must be processed in
	// (Src, Seq) order regardless of post order.
	e := newTestEngine(t, 1, 1)
	sink := &sinkActor{}
	id := e.AddActor(sink)
	e.Post(5, id, arch.KindEvent, 0, 0, 1) // seq 0
	e.Post(5, id, arch.KindEvent, 0, 0, 2) // seq 1
	e.Post(3, id, arch.KindEvent, 0, 0, 0) // earlier time wins
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []uint64{0, 1, 2}
	for i, w := range want {
		if sink.got[i] != w {
			t.Fatalf("order %v, want %v", sink.got, want)
		}
	}
}

func TestBusyActorSerializes(t *testing.T) {
	e := newTestEngine(t, 1, 1)
	a := &echoActor{cost: 100, replyTo: -1}
	id := e.AddActor(a)
	for i := 0; i < 4; i++ {
		e.Post(0, id, arch.KindEvent, uint64(i), 0)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, start := range a.times {
		if want := arch.Cycles(i * 100); start != want {
			t.Fatalf("message %d started at %d, want %d", i, start, want)
		}
	}
}

func TestLatencyApplied(t *testing.T) {
	m := arch.DefaultMachine(2)
	e, err := NewEngine(m, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A lane on node 0 forwards to a sink placed as memory controller of
	// node 1 (so it has a cross-node NetworkID).
	sink := &sinkActor{}
	e.SetActor(m.MemCtrlID(1), sink)
	fwd := &struct{ Actor }{}
	fwdActor := actorFunc(func(env *Env, msg *Message) {
		env.Charge(10)
		env.Send(m.MemCtrlID(1), arch.KindEvent, 0, 0, 7)
	})
	_ = fwd
	e.SetActor(m.LaneID(0, 0, 0), fwdActor)
	e.Post(0, m.LaneID(0, 0, 0), arch.KindEvent, 0, 0)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sink.times) != 1 {
		t.Fatalf("sink received %d messages", len(sink.times))
	}
	// Send happens at cycle 10 (charged) + send cost, then crosses the
	// network: arrival must be at least LatCrossNode later.
	if sink.times[0] < 10+m.LatCrossNode {
		t.Fatalf("cross-node delivery at %d, want >= %d", sink.times[0], 10+m.LatCrossNode)
	}
	if sink.times[0] > 20+m.LatCrossNode {
		t.Fatalf("cross-node delivery at %d, unexpectedly late", sink.times[0])
	}
}

type actorFunc func(env *Env, m *Message)

func (f actorFunc) OnMessage(env *Env, m *Message) { f(env, m) }

// pingPong bounces a counter between two actors until it reaches a limit.
type pingPong struct {
	peer  arch.NetworkID
	limit uint64
	last  arch.Cycles
}

func (p *pingPong) OnMessage(env *Env, m *Message) {
	env.Charge(5)
	p.last = env.Start()
	if m.Ops[0] < p.limit {
		env.Send(p.peer, arch.KindEvent, 0, 0, m.Ops[0]+1)
	}
}

func TestPingPongTiming(t *testing.T) {
	m := arch.DefaultMachine(2)
	e, err := NewEngine(m, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	l0, l1 := m.LaneID(0, 0, 0), m.LaneID(1, 0, 0)
	a := &pingPong{peer: l1, limit: 10}
	b := &pingPong{peer: l0, limit: 10}
	e.SetActor(l0, a)
	e.SetActor(l1, b)
	e.Post(0, l0, arch.KindEvent, 0, 0, 0)
	stats, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != 11 {
		t.Fatalf("Events = %d, want 11", stats.Events)
	}
	// Each hop costs >= 5 charged cycles + cross-node latency.
	minTime := arch.Cycles(10 * (5 + m.LatCrossNode))
	if stats.FinalTime < minTime {
		t.Fatalf("FinalTime = %d, want >= %d", stats.FinalTime, minTime)
	}
}

// fanActor spreads work across lanes and collects replies; used to compare
// sequential and parallel engines on a nontrivial communication pattern.
func buildFanWorkload(e *Engine, nodes int) *sinkActor {
	m := e.M
	sink := &sinkActor{}
	sinkID := e.AddActor(sink)
	// Each lane replies with a value derived from its ID after charging
	// a pseudo-random cost (deterministic in the lane ID).
	for n := 0; n < nodes; n++ {
		for a := 0; a < 4; a++ {
			id := m.LaneID(n, a, 0)
			lane := id
			e.SetActor(id, actorFunc(func(env *Env, msg *Message) {
				env.Charge(arch.Cycles(uint64(lane)%97 + 1))
				env.Send(sinkID, arch.KindEvent, 0, 0, uint64(lane)*3+msg.Ops[0])
			}))
			e.Post(arch.Cycles(int(lane)%13), id, arch.KindEvent, 0, 0, uint64(n))
		}
	}
	return sink
}

func TestParallelMatchesSequential(t *testing.T) {
	const nodes = 8
	run := func(shards int) ([]uint64, []arch.Cycles, Stats) {
		e, err := NewEngine(arch.DefaultMachine(nodes), Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		sink := buildFanWorkload(e, nodes)
		stats, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return sink.got, sink.times, stats
	}
	seqGot, seqTimes, seqStats := run(1)
	for _, shards := range []int{2, 4, 8} {
		got, times, stats := run(shards)
		if len(got) != len(seqGot) {
			t.Fatalf("shards=%d: %d messages, want %d", shards, len(got), len(seqGot))
		}
		for i := range got {
			if got[i] != seqGot[i] || times[i] != seqTimes[i] {
				t.Fatalf("shards=%d: message %d = (%d@%d), sequential (%d@%d)",
					shards, i, got[i], times[i], seqGot[i], seqTimes[i])
			}
		}
		if stats.FinalTime != seqStats.FinalTime || stats.Events != seqStats.Events || stats.Sends != seqStats.Sends {
			t.Fatalf("shards=%d: stats %+v != sequential %+v", shards, stats, seqStats)
		}
	}
}

func TestTimeout(t *testing.T) {
	e, err := NewEngine(arch.DefaultMachine(1), Options{Shards: 1, MaxTime: 10000})
	if err != nil {
		t.Fatal(err)
	}
	m := e.M
	id := m.LaneID(0, 0, 0)
	// Livelock: an actor that forever re-sends to itself.
	e.SetActor(id, actorFunc(func(env *Env, msg *Message) {
		env.Charge(1)
		env.Send(id, arch.KindEvent, 0, 0)
	}))
	e.Post(0, id, arch.KindEvent, 0, 0)
	_, err = e.Run()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestInjectionBandwidthSerializes(t *testing.T) {
	// A burst of cross-node messages from one node must take at least
	// bytes/bandwidth cycles to inject.
	m := arch.DefaultMachine(2)
	m.InjectBytesPerCycle = 64 // 1 message per cycle
	e, err := NewEngine(m, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	sink := &sinkActor{}
	e.SetActor(m.MemCtrlID(1), sink)
	src := m.LaneID(0, 0, 0)
	const burst = 100
	e.SetActor(src, actorFunc(func(env *Env, msg *Message) {
		for i := 0; i < burst; i++ {
			env.Send(m.MemCtrlID(1), arch.KindEvent, 0, 0, uint64(i))
		}
	}))
	e.Post(0, src, arch.KindEvent, 0, 0)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sink.times) != burst {
		t.Fatalf("received %d, want %d", len(sink.times), burst)
	}
	spread := sink.times[burst-1] - sink.times[0]
	if spread < burst-5 {
		t.Fatalf("injection spread %d cycles for %d messages at 1 msg/cycle", spread, burst)
	}
}

func TestRunTwicePhases(t *testing.T) {
	// Posting more work after Run continues simulated time monotonically.
	e := newTestEngine(t, 1, 1)
	sink := &sinkActor{}
	id := e.AddActor(sink)
	e.Post(0, id, arch.KindEvent, 0, 0, 1)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Post(0, id, arch.KindEvent, 0, 0, 2)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sink.got) != 2 {
		t.Fatalf("got %v", sink.got)
	}
	// The second message cannot start before the first completed.
	if sink.times[1] < sink.times[0] {
		t.Fatalf("times went backwards: %v", sink.times)
	}
}

func TestStatsUtilization(t *testing.T) {
	var s Stats
	if s.Utilization() != 0 {
		t.Error("empty stats utilization should be 0")
	}
	s = Stats{FinalTime: 100, BusyCycles: 50, LanesTouched: 1}
	if u := s.Utilization(); u < 0.49 || u > 0.51 {
		t.Errorf("utilization = %v, want 0.5", u)
	}
}
