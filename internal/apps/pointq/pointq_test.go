package pointq_test

import (
	"fmt"
	"testing"

	"updown"
	"updown/internal/apps/bfs"
	"updown/internal/apps/pagerank"
	"updown/internal/apps/pointq"
	"updown/internal/apps/pointq/pointqtest"
	"updown/internal/graph"
	"updown/internal/sim"
)

// slotGold is one slot's raw result word and done cycle.
type slotGold struct {
	result uint64
	done   updown.Cycles
}

// kernels lists every point kernel with the golden outcome of the fixed
// batch below (2 nodes, 4 slots, coalescing on), captured at the commit
// before the frame was extracted: the refactor — and any later one — must
// leave the simulated timeline of both kernels exactly in place.
var kernels = []struct {
	name      string
	build     func(m *updown.Machine, dg *graph.DeviceGraph, slots int) (*pointq.Engine, error)
	slots     [4]slotGold
	batchDone updown.Cycles
	rounds    int
	stats     sim.Stats
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
		slots:     [4]slotGold{{2, 2253}, {2, 2267}, {3, 21946}, {0, 156465}},
		batchDone: 166935, rounds: 6,
		stats: sim.Stats{Events: 130734, Sends: 130733, DRAMReads: 1724, DRAMWrites: 6679,
			DRAMBytes: 161224, BusyCycles: 1261333, FinalTime: 166936},
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
		slots:     [4]slotGold{{29786887349, 1521074}, {4055503735, 1521043}, {7974059777, 1522074}, {0, 1522043}},
		batchDone: 1526397, rounds: 23,
		stats: sim.Stats{Events: 1751955, Sends: 1751954, DRAMReads: 97531, DRAMWrites: 401380,
			DRAMBytes: 10280464, BusyCycles: 12887998, FinalTime: 1526398},
	},
}

var (
	testGraph = graph.FromEdges(256, graph.DefaultRMAT(8, 12), graph.BuildOptions{
		Undirected: true, Dedup: true, DropSelfLoops: true, SortNeighbors: true})
	testQueries = [4]struct{ src, tgt uint32 }{{28, 0}, {3, 150}, {77, 12}, {0, 255}}
)

// runBatch seeds queries[i] into slot i of a fresh 4-slot engine and runs
// the batch to completion.
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

// The event stream of one fixed batch per kernel is pinned to the cycle:
// results, per-slot done stamps, batch completion, round count and the
// engine's aggregate counters, at shards 1 and 3.
func TestGoldenBatch(t *testing.T) {
	for _, k := range kernels {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/shards=%d", k.name, shards), func(t *testing.T) {
				e, st := runBatch(t, k.build, shards, testQueries[:])
				for s, want := range k.slots {
					if got := (slotGold{e.Result(s), e.DoneCycle(s)}); got != want {
						t.Errorf("slot %d: got %+v, want %+v", s, got, want)
					}
				}
				if bd, ok := e.BatchDone(); !ok || bd != k.batchDone {
					t.Errorf("BatchDone = (%d,%v), want %d", bd, ok, k.batchDone)
				}
				if e.Rounds != k.rounds {
					t.Errorf("Rounds = %d, want %d", e.Rounds, k.rounds)
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
// machine produces.
func TestBatchEqualsSolo(t *testing.T) {
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			e, _ := runBatch(t, k.build, 1, testQueries[:])
			for s, q := range testQueries {
				solo, _ := runBatch(t, k.build, 1, testQueries[s:s+1])
				if b, so := e.Result(s), solo.Result(0); b != so {
					t.Errorf("query %d->%d: batched %#x != solo %#x", q.src, q.tgt, b, so)
				}
			}
		})
	}
}
