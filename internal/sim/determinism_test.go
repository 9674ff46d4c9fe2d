package sim

// Randomized determinism fuzz: the same seeded workload must produce
// bit-identical results at every shard count, including counts that do
// not divide the node count (3, 7) and the host's GOMAXPROCS. This
// exercises the persistent pool, the barrier reduction, idle-shard
// skipping and empty-gap jumps with irregular, hash-driven traffic that
// fixed-topology tests (TestParallelMatchesSequential) cannot reach.

import (
	"fmt"
	"runtime"
	"testing"

	"updown/internal/arch"
)

// splitmix64 is a tiny deterministic hash used to derive all randomness
// in the fuzz workload from the message contents, so behavior is a pure
// function of the seed and independent of host scheduling.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fuzzActor charges a hash-derived cost and fans out to hash-derived
// destinations until the message TTL (Ops[0]) expires. Some sends are
// delayed past the lookahead window to force empty-gap jumps.
type fuzzActor struct {
	m    *arch.Machine
	seed uint64
}

func (a *fuzzActor) OnMessage(env *Env, msg *Message) {
	h := splitmix64(a.seed ^ msg.Event ^ uint64(env.Self())<<20)
	env.Charge(arch.Cycles(1 + h%23))
	ttl := msg.Ops[0]
	if ttl == 0 {
		return
	}
	fanout := 1 + int(h%3)
	for k := 0; k < fanout; k++ {
		h = splitmix64(h)
		node := int(h % uint64(a.m.Nodes))
		accel := int((h >> 16) % uint64(a.m.AccelsPerNode))
		lane := int((h >> 32) % uint64(a.m.LanesPerAccel))
		dst := a.m.LaneID(node, accel, lane)
		if h%5 == 0 {
			// Delay well past the lookahead window so whole windows
			// are empty and the engine must jump the gap.
			env.SendAfter(arch.Cycles(1500+h%6000), dst, arch.KindEvent, h, 0, ttl-1)
		} else {
			env.Send(dst, arch.KindEvent, h, 0, ttl-1)
		}
	}
}

// fuzzRun executes one seeded workload at the given shard count and
// returns the run stats plus the final freeAt/seq of every actor.
func fuzzRun(t *testing.T, seed uint64, shards int) (Stats, []arch.Cycles, []uint64) {
	t.Helper()
	m := arch.DefaultMachine(7)
	e, err := NewEngine(m, Options{
		Shards: shards,
		LaneFactory: func(id arch.NetworkID) Actor {
			return &fuzzActor{m: &m, seed: seed}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A handful of roots with staggered start times and modest TTLs;
	// fanout ≤ 3 and TTL 6 bound the event count per root.
	for r := uint64(0); r < 5; r++ {
		h := splitmix64(seed + r)
		node := int(h % uint64(m.Nodes))
		id := m.LaneID(node, 0, int(h>>8)%m.LanesPerAccel)
		e.Post(arch.Cycles(h%2500), id, arch.KindEvent, h, 0, 6)
	}
	stats, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	freeAt := make([]arch.Cycles, len(e.state))
	seq := make([]uint64, len(e.state))
	for i := range e.state {
		freeAt[i] = e.state[i].freeAt
		seq[i] = e.state[i].seq
	}
	return stats, freeAt, seq
}

// phaseActor alternates traffic locality by simulated time: during even
// 4000-cycle phases every send stays on the sender's node (provably
// local — the adaptive scheduler should widen windows), during odd
// phases sends fan out across nodes (the scheduler must fall back to the
// conservative cross-node bound the instant a cross-shard send is
// staged). Some sends are delayed far enough to land in the opposite
// phase, so local phases keep being re-entered after cross-node ones.
type phaseActor struct {
	m    *arch.Machine
	seed uint64
}

func (a *phaseActor) OnMessage(env *Env, msg *Message) {
	h := splitmix64(a.seed ^ msg.Event ^ uint64(env.Self())<<20)
	env.Charge(arch.Cycles(1 + h%17))
	ttl := msg.Ops[0]
	if ttl == 0 {
		return
	}
	selfNode := a.m.NodeOf(env.Self())
	cross := (uint64(env.Now())/4000)%2 == 1
	fanout := 1 + int(h%3)
	for k := 0; k < fanout; k++ {
		h = splitmix64(h)
		node := selfNode
		if cross {
			node = int(h % uint64(a.m.Nodes))
		}
		dst := a.m.LaneID(node, int((h>>16)%uint64(a.m.AccelsPerNode)), int((h>>32)%uint64(a.m.LanesPerAccel)))
		if h%4 == 0 {
			// Jump into (at least) the next phase.
			env.SendAfter(arch.Cycles(2000+h%8000), dst, arch.KindEvent, h, 0, ttl-1)
		} else {
			env.Send(dst, arch.KindEvent, h, 0, ttl-1)
		}
	}
}

// phaseRun executes the phase-alternating workload under one host
// configuration and returns stats plus per-actor final state.
func phaseRun(t *testing.T, seed uint64, shards int, host hostMode) (Stats, []arch.Cycles, []uint64) {
	t.Helper()
	m := arch.DefaultMachine(7)
	e, err := NewEngine(m, Options{
		Shards: shards,
		LaneFactory: func(id arch.NetworkID) Actor {
			return &phaseActor{m: &m, seed: seed}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.host = host
	for r := uint64(0); r < 4; r++ {
		h := splitmix64(seed ^ (r + 77))
		node := int(h % uint64(m.Nodes))
		id := m.LaneID(node, 0, int(h>>8)%m.LanesPerAccel)
		e.Post(arch.Cycles(h%3000), id, arch.KindEvent, h, 0, 7)
	}
	stats, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	freeAt := make([]arch.Cycles, len(e.state))
	seq := make([]uint64, len(e.state))
	for i := range e.state {
		freeAt[i] = e.state[i].freeAt
		seq[i] = e.state[i].seq
	}
	return stats, freeAt, seq
}

// TestDeterminismPhases: a workload alternating intra-node-only and
// cross-node phases is bit-identical across shard counts under both the
// worker pool and the cooperative multiplexer; the shards=1 sequential
// driver is the oracle.
func TestDeterminismPhases(t *testing.T) {
	shardCounts := []int{2, 3, 7, runtime.GOMAXPROCS(0)}
	for _, seed := range []uint64{3, 0xc0ffee} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			refStats, refFree, refSeq := phaseRun(t, seed, 1, hostAuto)
			if refStats.Events == 0 {
				t.Fatal("phase workload executed no events")
			}
			cfgs := []struct {
				name string
				host hostMode
			}{
				{"pool", hostPool},
				{"mux", hostInline},
			}
			for _, cfg := range cfgs {
				for _, shards := range shardCounts {
					stats, freeAt, seq := phaseRun(t, seed, shards, cfg.host)
					if stats != refStats {
						t.Errorf("%s shards=%d: stats diverge: got %+v want %+v",
							cfg.name, shards, stats, refStats)
					}
					for i := range refFree {
						if freeAt[i] != refFree[i] || seq[i] != refSeq[i] {
							t.Errorf("%s shards=%d: actor %d diverges: freeAt %d vs %d, seq %d vs %d",
								cfg.name, shards, i, freeAt[i], refFree[i], seq[i], refSeq[i])
							break
						}
					}
				}
			}
		})
	}
}

func TestDeterminismFuzz(t *testing.T) {
	shardCounts := []int{1, 2, 3, 7, runtime.GOMAXPROCS(0)}
	for _, seed := range []uint64{1, 0xdeadbeef, 42424242} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			refStats, refFree, refSeq := fuzzRun(t, seed, 1)
			if refStats.Events == 0 {
				t.Fatal("fuzz workload executed no events")
			}
			for _, shards := range shardCounts[1:] {
				stats, freeAt, seq := fuzzRun(t, seed, shards)
				if stats != refStats {
					t.Errorf("shards=%d: stats diverge: got %+v want %+v", shards, stats, refStats)
				}
				for i := range refFree {
					if freeAt[i] != refFree[i] || seq[i] != refSeq[i] {
						t.Errorf("shards=%d: actor %d state diverges: freeAt %d vs %d, seq %d vs %d",
							shards, i, freeAt[i], refFree[i], seq[i], refSeq[i])
						break
					}
				}
			}
		})
	}
}
