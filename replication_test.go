package updown_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"updown"
	"updown/internal/apps/bfs"
	"updown/internal/arch"
	"updown/internal/fault"
	"updown/internal/graph"
	"updown/internal/kvmsr"
	"updown/internal/metrics"
	"updown/internal/telemetry"
	"updown/internal/udweave"
)

// TestDRAMAccountingReplicated pins down the byte-accounting contract
// under k-way replication: every physical replica write is counted
// exactly once, at the controller that served it — not k times on the
// primary's row. One lane issues a fixed mix of writes, fetch-adds and
// reads against a single block, so the expected per-node service bytes
// are exact.
func TestDRAMAccountingReplicated(t *testing.T) {
	const (
		writes = 4 // one word each: 8 bytes served per copy
		fadds  = 3 // read-modify-write: 16 bytes served per copy
		reads  = 2 // one word each, served by the primary only
	)
	perCopyBytes := int64(writes*8 + fadds*16)
	wantValue := uint64(7 + fadds*5) // last write's value plus the adds

	for _, k := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			m, err := updown.New(updown.Config{
				Nodes: 4, Shards: 1, Replication: k,
				Metrics: &metrics.Options{},
			})
			if err != nil {
				t.Fatal(err)
			}
			// One block per node: block 1 is homed on node 1, its
			// replica stripes (k > 1) on nodes 2, 3.
			va, err := m.GAS.DRAMmalloc(4*4096, 0, 4, 4096)
			if err != nil {
				t.Fatal(err)
			}
			target := va + 4096 // homed on node 1
			sink := m.Prog.Define("acct.sink", func(c *updown.Ctx) { c.YieldTerminate() })
			ret := updown.EvwNew(m.Arch.LaneID(0, 0, 0), sink)
			driver := m.Prog.Define("acct.driver", func(c *updown.Ctx) {
				for i := 0; i < writes; i++ {
					c.DRAMWrite(target, updown.IGNRCONT, uint64(4+i))
				}
				for i := 0; i < fadds; i++ {
					c.DRAMFetchAdd(target, 5, ret)
				}
				for i := 0; i < reads; i++ {
					c.DRAMRead(target, 1, ret)
				}
				c.YieldTerminate()
			})
			m.Start(updown.EvwNew(m.Arch.LaneID(0, 0, 0), driver))
			stats, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			if want := int64((writes + fadds) * k); stats.DRAMWrites != want {
				t.Errorf("Stats.DRAMWrites = %d, want %d (%d ops x %d copies)",
					stats.DRAMWrites, want, writes+fadds, k)
			}
			if stats.DRAMReads != reads {
				t.Errorf("Stats.DRAMReads = %d, want %d (quorum-of-one, never fanned out)", stats.DRAMReads, reads)
			}
			if got := m.GAS.ReadU64(target); got != wantValue {
				t.Errorf("final value = %d, want %d", got, wantValue)
			}
			prof := m.Metrics.Profile()
			for node := 0; node < 4; node++ {
				got := prof.Nodes[node].Totals().DRAMBytes
				var want int64
				switch {
				case node == 1:
					// The primary serves one copy of each write plus
					// the reads — identical at every k.
					want = perCopyBytes + reads*8
				case node >= 2 && node < 1+k:
					want = perCopyBytes
				}
				if got != want {
					t.Errorf("node %d DRAMBytes = %d, want %d", node, got, want)
				}
			}
			wr := prof.Kinds[arch.KindDRAMWrite]
			if wr.Count != int64(writes*k) {
				t.Errorf("kind dram-write count = %d, want %d", wr.Count, writes*k)
			}
		})
	}
}

// TestCheckpointNotQuiescent is the regression for mid-job checkpoints:
// a machine paused while KVMSR invocations are live holds closures in
// lane state that gob cannot encode, and Checkpoint must fail with the
// typed ErrNotQuiescent sentinel naming the lane — not an opaque gob
// error — while a checkpoint taken at the warm-start boundary succeeds.
func TestCheckpointNotQuiescent(t *testing.T) {
	build := func() (*updown.Machine, *bfs.App) {
		m, err := updown.New(updown.Config{Nodes: 2, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		p, err := graph.PresetByName("rmat")
		if err != nil {
			t.Fatal(err)
		}
		g := graph.FromEdges(1<<8, p.Build(8, 42), graph.BuildOptions{
			Dedup: true, DropSelfLoops: true, SortNeighbors: true,
		})
		dg, err := graph.LoadToGAS(m.GAS, graph.Split(g, 256), graph.DefaultPlacement(2))
		if err != nil {
			t.Fatal(err)
		}
		app, err := bfs.New(m, dg, bfs.Config{Root: 28, Lanes: kvmsr.AllLanes(m.Arch)})
		if err != nil {
			t.Fatal(err)
		}
		app.InitValues()
		return m, app
	}

	// A warm-start checkpoint (graph loaded, job not yet posted) must
	// succeed; then run the reference to completion to pick a mid-job
	// pause point.
	m, app := build()
	var buf bytes.Buffer
	if err := m.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint at the warm-start boundary: %v", err)
	}
	if _, err := app.Run(); err != nil {
		t.Fatal(err)
	}
	mid := app.Elapsed() / 2
	if mid == 0 {
		t.Fatal("run too short to pause mid-job")
	}

	m2, app2 := build()
	app2.Post()
	if _, err := m2.RunUntil(mid); err != nil {
		t.Fatal(err)
	}
	err := m2.Checkpoint(&bytes.Buffer{})
	if err == nil {
		t.Fatal("mid-job checkpoint succeeded; expected ErrNotQuiescent")
	}
	if !errors.Is(err, updown.ErrNotQuiescent) {
		t.Fatalf("mid-job checkpoint error is not ErrNotQuiescent: %v", err)
	}
	var nq *udweave.NotQuiescentError
	if !errors.As(err, &nq) {
		t.Fatalf("error does not carry NotQuiescentError detail: %v", err)
	}
	if !strings.Contains(err.Error(), "lane") {
		t.Errorf("error does not name the lane: %v", err)
	}
}

// TestReplFoldedByRunUntil drives a replicated BFS through a data node's
// fail-stop with Machine.RunUntil in 4,096-cycle steps, once observed by
// a telemetry publisher and once not. The machine folds the replication
// counters itself at every step, so the profile's repl numbers must not
// depend on the observer and must equal the controllers' sum.
func TestReplFoldedByRunUntil(t *testing.T) {
	g := graph.FromEdges(1<<10, graph.DefaultRMAT(10, 42), graph.BuildOptions{
		Dedup: true, DropSelfLoops: true, SortNeighbors: true})
	run := func(pub *telemetry.Publisher) (metrics.ReplCounts, int64) {
		ar := arch.DefaultMachine(5)
		m, err := updown.New(updown.Config{Arch: &ar, Shards: 2, MaxTime: 1 << 40, Replication: 2,
			Fault:      &fault.Plan{Seed: 1, FailStops: []fault.FailStop{{Node: 3, At: 20000}}},
			Resilience: &kvmsr.Resilience{}, Metrics: &metrics.Options{}, Telemetry: pub})
		if err != nil {
			t.Fatal(err)
		}
		dg, err := graph.LoadToGAS(m.GAS, graph.Split(g, 256), graph.Placement{NRNodes: 4, BlockBytes: 4 << 10})
		if err != nil {
			t.Fatal(err)
		}
		app, err := bfs.New(m, dg, bfs.Config{Root: 28, Lanes: kvmsr.LaneSet{Count: 2 * ar.LanesPerNode()}})
		if err != nil {
			t.Fatal(err)
		}
		app.InitValues()
		app.Post()
		for at := updown.Cycles(4096); m.Engine.Pending() > 0; at += 4096 {
			if _, err := m.RunUntil(at); err != nil {
				t.Fatal(err)
			}
		}
		if _, done := app.Finished(); !done {
			t.Fatal("BFS did not finish")
		}
		var fallback int64
		for _, c := range m.Ctrls {
			fallback += c.FallbackReads
		}
		return m.Metrics.Profile().Repl, fallback
	}
	plain, sum := run(nil)
	observed, _ := run(&telemetry.Publisher{MinPeriod: time.Nanosecond})
	if plain != observed {
		t.Errorf("Profile().Repl = %+v without telemetry, %+v with it", plain, observed)
	}
	if sum == 0 || plain.FallbackReads != sum {
		t.Errorf("Profile().Repl.FallbackReads = %d, controllers served %d (want equal, > 0)", plain.FallbackReads, sum)
	}
}
