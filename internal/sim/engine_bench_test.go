package sim

// Engine microbenchmarks measuring host event throughput (host-Mev/s:
// millions of simulated events executed per wall-clock second). Four
// workloads stress the distinct host-side costs of the window-parallel
// engine:
//
//   - PingPong: one event per lookahead window — pure per-window overhead
//     (barrier cost, window advance).
//   - AllToAllHotSpot: every lane targets one reduce hot-spot actor —
//     wait-queue pressure and heap churn.
//   - SparseLane: two active lanes on a 16-node machine with event gaps
//     wider than the lookahead — idle-shard and empty-gap handling.
//   - CrossNodeStorm: all traffic crosses shards every window — outbox
//     production and collection.
//
// DESIGN.md "Host performance" records these numbers before and after
// engine changes. Since the adaptive-lookahead table, the timed region is
// the Run call only: engine construction (32K actor-state slots on the
// SparseLane machine) was diluting the measured run-phase differences.

import (
	"fmt"
	"testing"
	"time"

	"updown/internal/arch"
	"updown/internal/prng"
)

// benchShards returns the shard counts to sweep for a machine with the
// given node count.
func benchShards(nodes int) []int {
	var out []int
	for _, s := range []int{1, 2, 4, 8} {
		if s <= nodes {
			out = append(out, s)
		}
	}
	return out
}

func reportMevS(b *testing.B, events int64, elapsed time.Duration) {
	b.ReportMetric(float64(events)/elapsed.Seconds()/1e6, "Mev/s")
	b.ReportMetric(0, "ns/op") // the per-op time is meaningless here
}

// BenchmarkEnginePingPong bounces a message between two lanes on different
// nodes. Every window contains exactly one event, so throughput is
// dominated by per-window host overhead.
func BenchmarkEnginePingPong(b *testing.B) {
	const hops = 20000
	for _, shards := range benchShards(2) {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var events int64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				m := arch.DefaultMachine(2)
				e, err := NewEngine(m, Options{Shards: shards})
				if err != nil {
					b.Fatal(err)
				}
				l0, l1 := m.LaneID(0, 0, 0), m.LaneID(1, 0, 0)
				e.SetActor(l0, &pingPong{peer: l1, limit: hops})
				e.SetActor(l1, &pingPong{peer: l0, limit: hops})
				e.Post(0, l0, arch.KindEvent, 0, 0, 0)
				start := time.Now()
				stats, err := e.Run()
				elapsed += time.Since(start)
				if err != nil {
					b.Fatal(err)
				}
				events += stats.Events
			}
			reportMevS(b, events, elapsed)
		})
	}
}

// hotSender drives one round per window-and-a-half: it fires a message at
// the shared hot-spot actor, then re-arms itself after a fixed delay.
type hotSender struct {
	hot    arch.NetworkID
	rounds uint64
}

func (s *hotSender) OnMessage(env *Env, m *Message) {
	env.Charge(5)
	env.Send(s.hot, arch.KindEvent, 0, 0, m.Ops[0])
	if m.Ops[0] < s.rounds {
		env.SendAfter(1500, env.Self(), arch.KindEvent, 0, 0, m.Ops[0]+1)
	}
}

// BenchmarkEngineAllToAllHotSpot has 128 lanes across 8 nodes all firing
// at one reduce hot-spot actor each round; the hot actor serializes them
// through its wait queue.
func BenchmarkEngineAllToAllHotSpot(b *testing.B) {
	const (
		nodes  = 8
		rounds = 100
	)
	for _, shards := range benchShards(nodes) {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var events int64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				m := arch.DefaultMachine(nodes)
				e, err := NewEngine(m, Options{Shards: shards})
				if err != nil {
					b.Fatal(err)
				}
				hot := m.LaneID(0, 0, 0)
				e.SetActor(hot, actorFunc(func(env *Env, msg *Message) {
					env.Charge(3)
				}))
				for n := 0; n < nodes; n++ {
					for a := 0; a < 4; a++ {
						for l := 0; l < 4; l++ {
							id := m.LaneID(n, a, l)
							if id == hot {
								continue
							}
							e.SetActor(id, &hotSender{hot: hot, rounds: rounds})
							e.Post(arch.Cycles(int(id)%17), id, arch.KindEvent, 0, 0, 0)
						}
					}
				}
				start := time.Now()
				stats, err := e.Run()
				elapsed += time.Since(start)
				if err != nil {
					b.Fatal(err)
				}
				events += stats.Events
			}
			reportMevS(b, events, elapsed)
		})
	}
}

// chainActor re-arms itself after a fixed delay until its counter expires.
type chainActor struct {
	gap    arch.Cycles
	rounds uint64
}

func (c *chainActor) OnMessage(env *Env, m *Message) {
	env.Charge(7)
	if m.Ops[0] < c.rounds {
		env.SendAfter(c.gap, env.Self(), arch.KindEvent, 0, 0, m.Ops[0]+1)
	}
}

// BenchmarkEngineSparseLane runs two active lanes on a 16-node machine
// with inter-event gaps wider than the lookahead window: almost every
// shard is idle in every window, and the engine must jump empty gaps.
func BenchmarkEngineSparseLane(b *testing.B) {
	for _, shards := range benchShards(16) {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var events int64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				n, d := sparseLaneRun(b, shards)
				events += n
				elapsed += d
			}
			reportMevS(b, events, elapsed)
		})
	}
}

// sparseLaneRun executes the SparseLane workload once and returns the
// wall-clock time it took.
func sparseLaneRun(tb testing.TB, shards int) (int64, time.Duration) {
	const (
		nodes  = 16
		rounds = 5000
	)
	m := arch.DefaultMachine(nodes)
	e, err := NewEngine(m, Options{Shards: shards})
	if err != nil {
		tb.Fatal(err)
	}
	for _, node := range []int{0, nodes - 1} {
		id := m.LaneID(node, 0, 0)
		e.SetActor(id, &chainActor{gap: 2500, rounds: rounds})
		e.Post(0, id, arch.KindEvent, 0, 0, 0)
	}
	start := time.Now()
	stats, err := e.Run()
	if err != nil {
		tb.Fatal(err)
	}
	return stats.Events, time.Since(start)
}

// stormActor forwards every message to a lane on the next node, so all
// traffic crosses shard boundaries.
type stormActor struct {
	m *arch.Machine
}

func (s *stormActor) OnMessage(env *Env, m *Message) {
	env.Charge(10)
	if m.Ops[0] == 0 {
		return
	}
	node := (s.m.NodeOf(env.Self()) + 1) % s.m.Nodes
	lane := (s.m.LaneOf(env.Self()) + 3) % 8
	env.Send(s.m.LaneID(node, 0, lane), arch.KindEvent, 0, 0, m.Ops[0]-1)
}

// BenchmarkEngineCrossNodeStorm keeps 64 lanes exchanging cross-node
// messages for 200 hops each: every window moves a full outbox exchange
// across all shards.
func BenchmarkEngineCrossNodeStorm(b *testing.B) {
	const (
		nodes = 8
		hops  = 200
	)
	for _, shards := range benchShards(nodes) {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var events int64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				m := arch.DefaultMachine(nodes)
				e, err := NewEngine(m, Options{Shards: shards})
				if err != nil {
					b.Fatal(err)
				}
				for n := 0; n < nodes; n++ {
					for l := 0; l < 8; l++ {
						id := m.LaneID(n, 0, l)
						e.SetActor(id, &stormActor{m: &e.M})
						e.Post(arch.Cycles(int(id)%13), id, arch.KindEvent, 0, 0, hops)
					}
				}
				start := time.Now()
				stats, err := e.Run()
				elapsed += time.Since(start)
				if err != nil {
					b.Fatal(err)
				}
				events += stats.Events
			}
			reportMevS(b, events, elapsed)
		})
	}
}

// BenchmarkQueue measures the shard event queue alone in the classic hold
// model: a preloaded queue, then one pop and one push per operation, the
// push landing a workload-specific distance after the popped cycle.
//
//   - dense: thousands of entries per cycle from 64 senders, short hops —
//     the within-cycle (Src, Seq) heap does the work (PageRank's shape).
//   - sparse: a few entries thousands of cycles apart — the occupancy
//     bitmap scan and single-entry loads (serving's shape).
//   - far-timers: one push in five is a timer far beyond the ring span —
//     the far heap and its migration as the cursor advances.
//
// ns/op is one pop+push pair; allocs/op must read 0 once the arena is warm.
func BenchmarkQueue(b *testing.B) {
	near := []arch.Cycles{2, 2, 10, 10, 30}
	for _, bc := range []struct {
		name    string
		preload int
		delay   func(rng *prng.Stream) arch.Cycles
	}{
		{"dense", 1 << 15, func(rng *prng.Stream) arch.Cycles { return near[rng.Intn(len(near))] }},
		{"sparse", 16, func(rng *prng.Stream) arch.Cycles { return 1000 + arch.Cycles(rng.Intn(2000)) }},
		{"far-timers", 1 << 10, func(rng *prng.Stream) arch.Cycles {
			if rng.Intn(5) == 0 {
				return 5*wheelSpan + arch.Cycles(rng.Intn(20*wheelSpan))
			}
			return near[rng.Intn(len(near))] + 200*arch.Cycles(rng.Intn(2))
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := prng.NewStream(1)
			var h msgHeap
			var seq [64]uint64
			push := func(now arch.Cycles) {
				src := rng.Intn(len(seq))
				m := Message{Deliver: now + bc.delay(rng), Src: arch.NetworkID(src), Seq: seq[src]}
				seq[src]++
				h.push(&m)
			}
			for i := 0; i < bc.preload; i++ {
				push(0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mi := h.popIdx()
				now := h.at(mi).Deliver
				h.release(mi)
				push(now)
			}
		})
	}
}
