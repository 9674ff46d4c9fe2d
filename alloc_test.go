package updown_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"updown"
	"updown/internal/apps/bfs"
	"updown/internal/apps/pagerank"
	"updown/internal/apps/pointq/pointqtest"
	"updown/internal/graph"
	"updown/internal/serve"
)

// The engine and the udweave lane keep the executing Message, Env and Ctx
// in long-lived storage (shard, lane) because all three reach handlers
// through interface or func values and would otherwise be heap-allocated
// per event. These guards fail if either escape comes back.

const (
	stormNodes = 8
	stormLanes = 8 // per node, on accelerator 0
	stormHops  = 1600
)

// runStorm posts one chain per lane and returns the machine's cumulative
// event count and the heap allocations made inside this Machine.Run.
func runStorm(t *testing.T, m *updown.Machine, hop updown.Label) (events int64, mallocs uint64) {
	t.Helper()
	for n := 0; n < stormNodes; n++ {
		for l := 0; l < stormLanes; l++ {
			id := m.Arch.LaneID(n, 0, l)
			m.StartAt(updown.Cycles(int(id)%13), updown.EvwNew(id, hop), stormHops)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stats, err := m.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return stats.Events, after.Mallocs - before.Mallocs
}

// checkAllocFree runs the storm twice on one machine — the first pass
// grows the arena, thread pools and nested frames to their steady size —
// and requires the second pass to allocate nothing per event. The bound
// leaves room for the handful of per-Run allocations (and the runtime's
// own), not for one allocation every thousand events.
func checkAllocFree(t *testing.T, m *updown.Machine, hop updown.Label) {
	t.Helper()
	warm, _ := runStorm(t, m, hop)
	events, mallocs := runStorm(t, m, hop)
	events -= warm
	if want := int64(stormNodes * stormLanes * (stormHops + 1)); events != want || events < 100000 {
		t.Fatalf("%d events in the measured pass, want %d", events, want)
	}
	if mallocs*1000 > uint64(events) {
		t.Fatalf("%d allocations over %d events (%.3f per event), want 0 per event",
			mallocs, events, float64(mallocs)/float64(events))
	}
}

func nextLane(m *updown.Machine, self updown.NetworkID) updown.NetworkID {
	return m.Arch.LaneID((m.Arch.NodeOf(self)+1)%stormNodes, 0, (m.Arch.LaneOf(self)+3)%stormLanes)
}

func TestDispatchAllocFreeSendEvent(t *testing.T) {
	m, err := updown.New(updown.Config{Nodes: stormNodes, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	var hop updown.Label
	hop = m.Prog.Define("hop", func(c *updown.Ctx) {
		if n := c.Op(0); n > 0 {
			c.SendEvent(updown.EvwNew(nextLane(m, c.NetworkID()), hop), updown.IGNRCONT, n-1)
		}
		c.YieldTerminate()
	})
	checkAllocFree(t, m, hop)
}

func TestDispatchAllocFreeInvokeLocal(t *testing.T) {
	m, err := updown.New(updown.Config{Nodes: stormNodes, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	var leaves, sum uint64
	leaf := m.Prog.Define("leaf", func(c *updown.Ctx) {
		leaves++
		sum += c.Op(0) + c.Op(1)
		c.YieldTerminate()
	})
	// mid dispatches again from inside a local dispatch: the second nesting
	// level of the lane's frame stack.
	mid := m.Prog.Define("mid", func(c *updown.Ctx) {
		c.InvokeLocal(c.Src(), leaf, c.Op(0), 1)
		c.InvokeLocal(c.Src(), leaf, c.Op(0), 2)
		if c.Op(0) != 7 { // the nested frames must not have clobbered this one
			t.Errorf("mid operand %d after nested dispatch, want 7", c.Op(0))
		}
		c.YieldTerminate()
	})
	var hop updown.Label
	hop = m.Prog.Define("hop", func(c *updown.Ctx) {
		n := c.Op(0)
		c.InvokeLocal(c.Src(), mid, 7)
		c.InvokeLocal(c.NetworkID(), leaf, n, 3)
		if n > 0 {
			c.SendEvent(updown.EvwNew(nextLane(m, c.NetworkID()), hop), updown.IGNRCONT, n-1)
		}
		c.YieldTerminate()
	})
	checkAllocFree(t, m, hop)
	if want := uint64(2 * 3 * stormNodes * stormLanes * (stormHops + 1)); leaves != want {
		t.Fatalf("%d local dispatches, want %d", leaves, want)
	}
	if sum == 0 {
		t.Fatal("local dispatches saw no operands")
	}
}

// The serving loop's host pass — harvest, recycle, admit, re-seed, launch
// — runs at every quantum boundary of a long-lived server, so once its
// lists have grown it must not allocate per query. The simulation between
// boundaries does (thread states), so the pass is measured alone.
func TestServeSteadyStateAllocFree(t *testing.T) {
	const (
		queries = 96
		warm    = 32 // served before measuring starts
		quantum = 4096
	)
	g := graph.FromEdges(256, graph.DefaultRMAT(8, 15), graph.BuildOptions{
		Undirected: true, Dedup: true, DropSelfLoops: true, SortNeighbors: true})
	m, dg := pointqtest.Machine(t, g, 2, 1)
	pb, err := bfs.NewPoint(m, dg, bfs.PointConfig{Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	pp, err := pagerank.NewPoint(m, dg, pagerank.PointConfig{Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(m, serve.Config{BFS: pb, PPR: pp, Quantum: quantum, QueueCap: queries})
	if err != nil {
		t.Fatal(err)
	}
	// One burst: every boundary after the first harvests whatever
	// finished and reseeds the freed slots from the waiting room.
	qs := make([]serve.Query, queries)
	for i := range qs {
		qs[i] = serve.Query{Kind: serve.Kind(i % 2), Src: uint32(5 * i % 256), Tgt: uint32(255 - i), Arrive: 1}
	}
	if err := srv.Begin(qs); err != nil {
		t.Fatal(err)
	}
	// MemStats counts every goroutine's allocations, and the runtime's
	// unique-handle cleanup allocates on its own goroutine after each GC
	// cycle: a cycle ending inside a measured pass used to add one, failing
	// about one run in ten. So the collector runs only between passes, and
	// the cleanup it wakes runs before the next pass is measured.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	var mallocs uint64
	measured, passes := 0, 0
	for now := updown.Cycles(0); ; now += quantum {
		if now%(16*quantum) == 0 {
			runtime.GC()
			runtime.Gosched()
		}
		served := srv.Stats().Served
		runtime.ReadMemStats(&before)
		_, done := srv.Step(now)
		runtime.ReadMemStats(&after)
		if served[0]+served[1] >= warm {
			st := srv.Stats().Served
			measured += st[0] + st[1] - served[0] - served[1]
			mallocs += after.Mallocs - before.Mallocs
			passes++
		}
		if done {
			break
		}
		if _, err := m.RunUntil(now + quantum); err != nil {
			t.Fatal(err)
		}
	}
	for i := range qs {
		if qs[i].State != serve.Resolved {
			t.Fatalf("query %d in state %d", i, qs[i].State)
		}
	}
	if measured < queries-warm-8 {
		t.Fatalf("only %d queries harvested in the measured passes", measured)
	}
	if mallocs*10 > uint64(measured) {
		t.Fatalf("%d allocations over %d passes serving %d queries (%.2f per query), want 0 per query",
			mallocs, passes, measured, float64(mallocs)/float64(measured))
	}
}
