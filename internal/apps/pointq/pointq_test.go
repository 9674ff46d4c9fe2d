package pointq_test

import (
	"errors"
	"fmt"
	"testing"

	"updown"
	"updown/internal/apps/bfs"
	"updown/internal/apps/pagerank"
	"updown/internal/apps/pointq"
	"updown/internal/apps/pointq/pointqtest"
	"updown/internal/arch"
	"updown/internal/baseline"
	"updown/internal/fault"
	"updown/internal/graph"
	"updown/internal/kvmsr"
	"updown/internal/sim"
)

// slotGold is one slot's raw result word, the cycle it resolved at and
// the cycle its round chain ended.
type slotGold struct {
	result    uint64
	done, end updown.Cycles
}

// kernels lists every point kernel with the golden outcome of the four
// queries below posted together (2 nodes, 4 slots, coalescing on). The
// result words are the ones captured before the frame was extracted and
// have never moved; the cycles and counters were recaptured when slots
// became independent round chains and again when KVMSR termination went
// from polled to event-driven (every round's drain got shorter: BFS
// events 122,464 -> 72,759), and once more when neighbor lists moved to
// their vertex block's node (this graph's records fit one block, so node 0
// now serves every list read: BFS final time 139,075 -> 147,626, PPR
// 1,408,538 -> 1,431,979), and once more when each node began draining
// its own lanes and the tree's roles left the slices' first lanes (slots
// resolve sooner, a chain's trailing empty round costs a drain per node:
// BFS final time 147,626 -> 146,598 with events 72,764 -> 89,381, PPR
// 1,431,979 -> 1,417,918), and once more when a round's frontier pump
// began keeping several chunk reads and up to Window = 64 vertex tasks in
// flight, and a chain began ending on the round that resolves its query
// instead of one empty round later (PPR slot 0 done 395,255 -> 142,964;
// BFS final time 146,598 -> 58,291 with events 89,381 -> 72,819), and
// once more when reduces began spreading by emitting lane over the
// slice's lanes but its first, PPR's pusher began reading residual and
// record together, and a BFS chain began ending on the round whose
// reduces find the target (PPR slot 0 done 142,964 -> 120,791; BFS events
// 72,819 -> 60,344, three idle rounds fewer; BFS slot 3's unreachable
// query 56,951 -> 58,959 is that one query's placement: over 48 random
// BFS queries in slot 3 the median done stamp moves 0.1%). Any later
// refactor must leave the simulated timeline of both kernels exactly in
// place.
var kernels = []struct {
	name  string
	build func(m *updown.Machine, dg *graph.DeviceGraph, slots int) (*pointq.Engine, error)
	slots [4]slotGold
	stats sim.Stats
}{
	{
		name: "bfs",
		build: func(m *updown.Machine, dg *graph.DeviceGraph, slots int) (*pointq.Engine, error) {
			e, err := bfs.NewPoint(m, dg, bfs.PointConfig{Slots: slots})
			if err != nil {
				return nil, err
			}
			return e.Engine, nil
		},
		slots: [4]slotGold{{2, 1593, 2871}, {2, 1618, 2901}, {3, 14143, 17602}, {0, 58959, 60298}},
		stats: sim.Stats{Events: 60344, Sends: 60340, DRAMReads: 1709, DRAMWrites: 6679,
			DRAMBytes: 160504, BusyCycles: 538786, FinalTime: 60299},
	},
	{
		name: "ppr",
		build: func(m *updown.Machine, dg *graph.DeviceGraph, slots int) (*pointq.Engine, error) {
			e, err := pagerank.NewPoint(m, dg, pagerank.PointConfig{Slots: slots})
			if err != nil {
				return nil, err
			}
			return e.Engine, nil
		},
		slots: [4]slotGold{{29786887349, 120791, 121989}, {4055503735, 121168, 122366}, {7974059777, 442669, 443867}, {0, 459677, 460875}},
		stats: sim.Stats{Events: 1752942, Sends: 1752938, DRAMReads: 97531, DRAMWrites: 401380,
			DRAMBytes: 10280464, BusyCycles: 12934893, FinalTime: 460876},
	},
}

var (
	testGraph = graph.FromEdges(256, graph.DefaultRMAT(8, 12), graph.BuildOptions{
		Undirected: true, Dedup: true, DropSelfLoops: true, SortNeighbors: true})
	testQueries = [4]struct{ src, tgt uint32 }{{28, 0}, {3, 150}, {77, 12}, {0, 255}}
)

// runBatch seeds queries[i] into slot i of a fresh 4-slot engine, posts
// them together and runs until every chain has ended.
func runBatch(t *testing.T, build func(*updown.Machine, *graph.DeviceGraph, int) (*pointq.Engine, error),
	shards int, queries []struct{ src, tgt uint32 }) (*pointq.Engine, sim.Stats) {
	t.Helper()
	m, dg := pointqtest.Machine(t, testGraph, 2, shards)
	e, err := build(m, dg, len(testQueries))
	if err != nil {
		t.Fatal(err)
	}
	for s, q := range queries {
		e.Seed(s, q.src, q.tgt)
	}
	e.Post(1)
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return e, st
}

// The event stream of four co-posted queries per kernel is pinned to the
// cycle: results, per-slot done stamps and chain ends, and the engine's
// aggregate counters, at shards 1 and 3.
func TestGoldenBatch(t *testing.T) {
	for _, k := range kernels {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/shards=%d", k.name, shards), func(t *testing.T) {
				e, st := runBatch(t, k.build, shards, testQueries[:])
				for s, want := range k.slots {
					end, _ := e.SlotDone(s)
					if got := (slotGold{e.Result(s), e.DoneCycle(s), end}); got != want {
						t.Errorf("slot %d: got %+v, want %+v", s, got, want)
					}
				}
				got := sim.Stats{Events: st.Events, Sends: st.Sends, DRAMReads: st.DRAMReads,
					DRAMWrites: st.DRAMWrites, DRAMBytes: st.DRAMBytes, BusyCycles: st.BusyCycles,
					FinalTime: st.FinalTime}
				if got != k.stats {
					t.Errorf("stats:\n got %+v\nwant %+v", got, k.stats)
				}
			})
		}
	}
}

// Batching must not change any answer: every query of a shared batch is
// pinned to the result a solo run in slot 0 of an identically built
// machine produces. So is a query sharing its slice with another kind's:
// a BFS and a PPR engine on one machine cut the same lanes into the same
// slices, and once every slice is busy the server seeds a query beside
// another kind's.
func TestBatchEqualsSolo(t *testing.T) {
	solo := make([][len(testQueries)]uint64, len(kernels))
	for ki, k := range kernels {
		for s := range testQueries {
			e, _ := runBatch(t, k.build, 1, testQueries[s:s+1])
			solo[ki][s] = e.Result(0)
		}
	}
	for ki, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			e, _ := runBatch(t, k.build, 1, testQueries[:])
			for s, q := range testQueries {
				if b, so := e.Result(s), solo[ki][s]; b != so {
					t.Errorf("query %d->%d: batched %#x != solo %#x", q.src, q.tgt, b, so)
				}
			}
		})
	}
	t.Run("bfs+ppr in one slice", func(t *testing.T) {
		for s, q := range testQueries {
			m, dg := pointqtest.Machine(t, testGraph, 2, 1)
			engines := make([]*pointq.Engine, len(kernels))
			for ki, k := range kernels {
				e, err := k.build(m, dg, len(testQueries))
				if err != nil {
					t.Fatal(err)
				}
				e.Seed(0, q.src, q.tgt)
				engines[ki] = e
			}
			if a, b := engines[0].Slice(0), engines[1].Slice(0); a != b {
				t.Fatalf("slot 0 slices %+v and %+v differ", a, b)
			}
			for _, e := range engines {
				e.Post(1)
			}
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			for ki, e := range engines {
				if got, want := e.Result(0), solo[ki][s]; got != want {
					t.Errorf("%s %d->%d beside the other kind: %#x != solo %#x", kernels[ki].name, q.src, q.tgt, got, want)
				}
			}
		}
	})
}

// Slots are independent round chains: a short query co-posted with a long
// one ends, is read and recycled, and its slot serves a second query to
// the end, all while the long query is still running. (With one
// round-synchronous batch over all slots the short query was stamped only
// when the long one's last round drained.)
func TestNoHeadOfLineBlocking(t *testing.T) {
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			m, dg := pointqtest.Machine(t, testGraph, 2, 1)
			e, err := k.build(m, dg, len(testQueries))
			if err != nil {
				t.Fatal(err)
			}
			// Slot 3's query is the longest of the golden four, slot 0's
			// the shortest; pause halfway between their chain ends.
			const short, long = 0, 3
			e.Seed(short, testQueries[short].src, testQueries[short].tgt)
			e.Seed(long, testQueries[long].src, testQueries[long].tgt)
			e.Post(1)
			pause := (k.slots[short].end + k.slots[long].end) / 2
			if _, err := m.RunUntil(pause); err != nil {
				t.Fatal(err)
			}
			if end, ok := e.SlotDone(short); !ok || end >= pause {
				t.Fatalf("short query not done at %d: SlotDone = (%d,%v)", pause, end, ok)
			}
			if _, ok := e.SlotDone(long); ok {
				t.Fatalf("long query already done at %d; the pause proves nothing", pause)
			}
			if got, want := e.Result(short), k.slots[short].result; got != want {
				t.Fatalf("short query answered %#x, want %#x", got, want)
			}
			if e.Busy() != 1 {
				t.Fatalf("%d slots busy at the pause, want 1", e.Busy())
			}

			e.Recycle(short)
			e.Seed(short, testQueries[1].src, testQueries[1].tgt)
			e.Post(pause + 1)
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			reuseEnd, ok1 := e.SlotDone(short)
			longEnd, ok2 := e.SlotDone(long)
			if !ok1 || !ok2 || e.Busy() != 0 {
				t.Fatalf("chains did not end: reuse (%d,%v), long (%d,%v)", reuseEnd, ok1, longEnd, ok2)
			}
			if got, want := e.Result(short), k.slots[1].result; got != want {
				t.Errorf("reused slot answered %#x, want %#x", got, want)
			}
			if got, want := e.Result(long), k.slots[long].result; got != want {
				t.Errorf("long query answered %#x, want %#x", got, want)
			}
			if k.name == "bfs" && reuseEnd >= longEnd {
				t.Errorf("reused slot ended at %d, not before the long query's %d", reuseEnd, longEnd)
			}
		})
	}
}

// Every slot launches the engine's one KVMSR invocation on its own slice,
// so the labels an engine defines do not depend on its slot count, and the
// lanes are the only limit: an engine with one slot per lane answers in
// its first and last slot, and one more slot is refused with
// ErrTooManySlots before anything is defined or allocated.
func TestTooManySlots(t *testing.T) {
	a := arch.DefaultMachine(2)
	a.AccelsPerNode, a.LanesPerAccel = 4, 16
	machine := func(t *testing.T) (*updown.Machine, *graph.DeviceGraph) {
		m, err := updown.New(updown.Config{Arch: &a, Shards: 1, MaxTime: 1 << 42, Coalesce: &kvmsr.Coalesce{}})
		if err != nil {
			t.Fatal(err)
		}
		dg, err := graph.LoadToGAS(m.GAS, graph.Split(testGraph, 16), graph.DefaultPlacement(2))
		if err != nil {
			t.Fatal(err)
		}
		return m, dg
	}
	lanes := a.TotalLanes()
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			m, dg := machine(t)
			var defined [2]int
			for i, slots := range []int{1, 64} {
				free := m.Prog.FreeLabels()
				if _, err := k.build(m, dg, slots); err != nil {
					t.Fatal(err)
				}
				defined[i] = free - m.Prog.FreeLabels()
			}
			if defined[0] != defined[1] {
				t.Fatalf("labels defined: %d at 1 slot, %d at 64", defined[0], defined[1])
			}

			m, dg = machine(t)
			labels, mem := m.Prog.FreeLabels(), m.GAS.UsedBytes(0)+m.GAS.UsedBytes(1)
			if _, err := k.build(m, dg, lanes+1); !errors.Is(err, pointq.ErrTooManySlots) {
				t.Fatalf("%d slots over %d lanes: err = %v, want ErrTooManySlots", lanes+1, lanes, err)
			}
			if now := m.GAS.UsedBytes(0) + m.GAS.UsedBytes(1); m.Prog.FreeLabels() != labels || now != mem {
				t.Fatalf("refused build left labels %d -> %d, DRAM bytes %d -> %d", labels, m.Prog.FreeLabels(), mem, now)
			}
			e, err := k.build(m, dg, lanes)
			if err != nil {
				t.Fatalf("%d slots (one per lane): %v", lanes, err)
			}
			e.Seed(0, testQueries[0].src, testQueries[0].tgt)
			e.Seed(lanes-1, testQueries[1].src, testQueries[1].tgt)
			e.Post(1)
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if a, b := e.Result(0), e.Result(lanes-1); a != k.slots[0].result || b != k.slots[1].result {
				t.Errorf("answers %#x, %#x with one slot per lane, want %#x, %#x", a, b, k.slots[0].result, k.slots[1].result)
			}
		})
	}
}

// The worker hash (Lane) and the reduce binding place every event of a
// slot inside its slice and, when the slice has more than one lane, off
// its control lane, the first, where the driver, the master and the map
// task run. The binding spreads one vertex's tuples by the lane that sent
// them, and SplitKey ignores the spread bits over the whole key range.
func TestSliceGeometry(t *testing.T) {
	m, dg := pointqtest.Machine(t, testGraph, 2, 1)
	const slots = 4
	for _, size := range []int{1, 2, 16, 1024} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			b, err := bfs.NewPoint(m, dg, bfs.PointConfig{Lanes: kvmsr.LaneSet{Count: slots * size}, Slots: slots})
			if err != nil {
				t.Fatal(err)
			}
			e := b.Engine
			for s := uint64(0); s < slots; s++ {
				sl := e.Slice(int(s))
				check := func(what string, v uint64, id updown.NetworkID) {
					if !sl.Contains(id) || size > 1 && id == sl.First {
						t.Fatalf("slot %d vertex %d: %s lane %d, slice %+v", s, v, what, id, sl)
					}
				}
				for _, v := range []uint64{0, 1, 28, 255, 1<<32 - 1} {
					check("Lane", v, e.Lane(s, v))
					hit := map[updown.NetworkID]bool{}
					for i := 0; i < size; i++ {
						from := sl.First + updown.NetworkID(i)
						key := e.Key(s, v, from)
						if gs, gv := pointq.SplitKey(key); gs != s || gv != v {
							t.Fatalf("SplitKey(Key(%d, %d, %d)) = (%d, %d)", s, v, from, gs, gv)
						}
						id := e.ReduceLane(key)
						check("reduce", v, id)
						if i < 16 {
							hit[id] = true
						}
					}
					if size >= 16 && len(hit) < 2 {
						t.Errorf("slot %d vertex %d: tuples from 16 lanes all reduce on %v", s, v, hit)
					}
				}
			}
		})
	}
	for _, slot := range []uint64{slots - 1, 1<<(64-pointq.SlotShift) - 1} {
		for _, v := range []uint64{0, 1<<32 - 1} {
			for spread := uint64(0); spread < 1<<(pointq.SlotShift-pointq.SpreadShift); spread++ {
				key := slot<<pointq.SlotShift | spread<<pointq.SpreadShift | v
				if gs, gv := pointq.SplitKey(key); gs != slot || gv != v {
					t.Fatalf("SplitKey(%#x) = (%d, %d), want (%d, %d)", key, gs, gv, slot, v)
				}
			}
		}
	}
}

// Reordered delivery moves no answer: with 30% of event messages held
// back up to 2,000 cycles, so that messages overtake one another, every
// BFS and PPR answer of the four queries still equals the host oracle and
// every chain ends, with the classic and the coalescing shuffle, on the
// serving geometry (4 accelerators x 16 lanes per node).
func TestDelayedDelivery(t *testing.T) {
	a := arch.DefaultMachine(2)
	a.AccelsPerNode, a.LanesPerAccel = 4, 16
	for _, coalesce := range []bool{false, true} {
		for seed := uint64(1); seed <= 4; seed++ {
			for _, k := range kernels {
				t.Run(fmt.Sprintf("%s/coalesce=%v/seed=%d", k.name, coalesce, seed), func(t *testing.T) {
					cfg := updown.Config{Arch: &a, Shards: 1, MaxTime: 1 << 42, Fault: &fault.Plan{Seed: seed,
						Rules: []fault.MsgRule{{Kinds: 1<<arch.KindEvent | 1<<arch.KindEventU,
							SrcNode: fault.AnyNode, DstNode: fault.AnyNode, DelayProb: 0.3, DelayCycles: 2000}}}}
					if coalesce {
						cfg.Coalesce = &kvmsr.Coalesce{}
					}
					m, err := updown.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					dg, err := graph.LoadToGAS(m.GAS, graph.Split(testGraph, 16), graph.DefaultPlacement(2))
					if err != nil {
						t.Fatal(err)
					}
					e, err := k.build(m, dg, len(testQueries))
					if err != nil {
						t.Fatal(err)
					}
					for s, q := range testQueries {
						e.Seed(s, q.src, q.tgt)
					}
					e.Post(1)
					st, err := m.Run()
					if err != nil {
						t.Fatal(err)
					}
					if st.Faults.Delayed == 0 {
						t.Fatal("no message was delayed")
					}
					for s, q := range testQueries {
						if _, ok := e.SlotDone(s); !ok {
							t.Fatalf("slot %d: chain did not end", s)
						}
						var want uint64 // BFS: dist+1, 0 if unreached
						if k.name == "ppr" {
							want = pagerank.RefScores(testGraph, q.src, 0)[q.tgt]
						} else if d := baseline.BFS(testGraph, q.src)[q.tgt]; d != baseline.Unreached {
							want = uint64(d) + 1
						}
						if got := e.Result(s); got != want {
							t.Errorf("query %d->%d: %#x, want %#x", q.src, q.tgt, got, want)
						}
					}
				})
			}
		}
	}
}
