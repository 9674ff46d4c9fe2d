package serve_test

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"updown"
	"updown/internal/apps/bfs"
	"updown/internal/apps/pagerank"
	"updown/internal/apps/pointq/pointqtest"
	"updown/internal/baseline"
	"updown/internal/graph"
	"updown/internal/kvmsr"
	"updown/internal/prng"
	"updown/internal/serve"
	"updown/internal/telemetry"
)

func testGraph() *graph.Graph {
	return graph.FromEdges(256, graph.DefaultRMAT(8, 15), graph.BuildOptions{
		Undirected: true, Dedup: true, DropSelfLoops: true, SortNeighbors: true})
}

// warmEngines builds the resident machine and fills cfg's two engines.
func warmEngines(t *testing.T, g *graph.Graph, shards int, cfg serve.Config) (*updown.Machine, serve.Config) {
	t.Helper()
	m, dg := pointqtest.Machine(t, g, 2, shards)
	var err error
	if cfg.BFS, err = bfs.NewPoint(m, dg, bfs.PointConfig{Slots: 4}); err != nil {
		t.Fatal(err)
	}
	if cfg.PPR, err = pagerank.NewPoint(m, dg, pagerank.PointConfig{Slots: 4}); err != nil {
		t.Fatal(err)
	}
	return m, cfg
}

func warmServer(t *testing.T, g *graph.Graph, shards int, cfg serve.Config) (*updown.Machine, *serve.Server) {
	t.Helper()
	m, cfg := warmEngines(t, g, shards, cfg)
	srv, err := serve.New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, srv
}

// poissonSchedule generates a mixed open-loop schedule, the same way the
// figserve harness does.
func poissonSchedule(n int, gap int64, seed uint64) []serve.Query {
	rng := prng.NewStream(seed ^ uint64(gap))
	qs := make([]serve.Query, n)
	arrive := updown.Cycles(1)
	for i := range qs {
		qs[i] = serve.Query{
			Kind:   serve.Kind(rng.Intn(2)),
			Src:    uint32(rng.Next() % 256),
			Tgt:    uint32(rng.Next() % 256),
			Arrive: arrive,
		}
		u := rng.Float64()
		if u <= 0 {
			u = 1e-12
		}
		arrive += updown.Cycles(-math.Log(u) * float64(gap))
	}
	return qs
}

// checkAnswer fails t unless resolved query i answers what the host
// reference does: the baseline BFS distance or the fixed-point
// forward-push score.
func checkAnswer(t *testing.T, g *graph.Graph, i int, q *serve.Query) {
	t.Helper()
	if q.State != serve.Resolved {
		t.Fatalf("query %d not resolved: state %d", i, q.State)
	}
	if q.Kind == serve.KindPPR {
		if want := pagerank.RefScores(g, q.Src, 0)[q.Tgt]; q.Result != want {
			t.Fatalf("query %d (ppr %d->%d): got %#x, want %#x", i, q.Src, q.Tgt, q.Result, want)
		}
		return
	}
	want := baseline.BFS(g, q.Src)[q.Tgt]
	if q.Reached != (want != baseline.Unreached) || q.Reached && q.Result != uint64(want)+1 {
		t.Fatalf("query %d (bfs %d->%d): got (%d,%v), want dist %d", i, q.Src, q.Tgt, q.Result, q.Reached, want)
	}
}

// Every answer a shared open-loop stream produces must equal the host
// reference. This pins batched, interleaved serving to solo ground truth.
func TestServeMatchesHostReference(t *testing.T) {
	g := testGraph()
	_, srv := warmServer(t, g, 1, serve.Config{FuseWindow: 2048})
	qs := poissonSchedule(32, 3000, 7)
	if err := srv.Run(qs); err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		q := &qs[i]
		checkAnswer(t, g, i, q)
		if q.Done <= q.Arrive {
			t.Fatalf("query %d: done %d <= arrive %d", i, q.Done, q.Arrive)
		}
	}
	st := srv.Stats()
	if st.Served[0]+st.Served[1] != len(qs) {
		t.Fatalf("served %v of %d", st.Served, len(qs))
	}
}

// The BFS and PPR engines cut the same lanes into the same slices, so a
// query seeded beside another kind's waits behind its events. A query goes
// to the free slot whose slice the fewest in-flight queries of the other
// kind share, the lowest on a tie: with a PPR query running in slot 0 the
// next BFS queries take slots 1 and 2, also when MaxBatch 1 admits one
// query per kind at a time; once every slice holds a PPR query, BFS falls
// back to its lowest free slots.
func TestServeSeparatesKinds(t *testing.T) {
	g := testGraph()
	for _, c := range []struct {
		name          string
		maxBatch, ppr int
		bfsSlots      []int
	}{
		{"one PPR", 0, 1, []int{1, 2}},
		{"MaxBatch 1", 1, 1, []int{1, 1}},
		{"every slice busy", 0, 4, []int{0, 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, srv := warmServer(t, g, 1, serve.Config{Quantum: 4096, MaxBatch: c.maxBatch})
			var qs []serve.Query
			for i := range c.ppr {
				qs = append(qs, serve.Query{Kind: serve.KindPPR, Src: uint32(28 + i), Tgt: 0, Arrive: 1})
			}
			// The BFS queries arrive once the PPR queries are running.
			for i := range c.bfsSlots {
				qs = append(qs, serve.Query{Kind: serve.KindBFS, Src: uint32(3 * i), Tgt: 200, Arrive: 5000})
			}
			if err := srv.Run(qs); err != nil {
				t.Fatal(err)
			}
			pprQ, bfsQ := qs[:c.ppr], qs[c.ppr:]
			for i := range qs {
				checkAnswer(t, g, i, &qs[i])
			}
			for i := range pprQ {
				if pprQ[i].Slot != i {
					t.Errorf("PPR query %d ran in slot %d, want %d", i, pprQ[i].Slot, i)
				}
			}
			for i := range bfsQ {
				b := &bfsQ[i]
				for j := range pprQ {
					if pprQ[j].Done <= b.Start {
						t.Fatalf("PPR query %d resolved at %d, before BFS query %d was posted at %d", j, pprQ[j].Done, i, b.Start)
					}
				}
				if b.Slot != c.bfsSlots[i] {
					t.Errorf("BFS query %d ran in slot %d, want %d", i, b.Slot, c.bfsSlots[i])
				}
			}
		})
	}
}

// The full serving timeline — every answer, start, done cycle, slot and
// batch assignment — must be identical at any host shard count.
func TestServeDeterministicAcrossShards(t *testing.T) {
	g := testGraph()
	shardCounts := []int{1, 2, 7, runtime.GOMAXPROCS(0)}
	var ref []serve.Query
	for _, sh := range shardCounts {
		_, srv := warmServer(t, g, sh, serve.Config{FuseWindow: 2048})
		qs := poissonSchedule(24, 2000, 11)
		if err := srv.Run(qs); err != nil {
			t.Fatalf("shards=%d: %v", sh, err)
		}
		if ref == nil {
			ref = qs
			continue
		}
		for i := range qs {
			if qs[i] != ref[i] {
				t.Fatalf("shards=%d query %d diverged:\n got %+v\nwant %+v", sh, i, qs[i], ref[i])
			}
		}
	}
}

// Restoring the warm checkpoint and serving the same stream again must
// reproduce every query outcome and the aggregate stats: the engines'
// host-side per-slot state carries nothing over from the first run.
func TestServeSameAfterRestore(t *testing.T) {
	m, cfg := warmEngines(t, testGraph(), 3, serve.Config{FuseWindow: 2048})
	var snap bytes.Buffer
	if err := m.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	serveOnce := func() ([]serve.Query, serve.Stats) {
		srv, err := serve.New(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		qs := poissonSchedule(24, 2000, 11)
		if err := srv.Run(qs); err != nil {
			t.Fatal(err)
		}
		return qs, srv.Stats()
	}
	first, firstStats := serveOnce()
	if err := m.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	second, secondStats := serveOnce()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("timeline changed across restore:\n first %+v\nsecond %+v", first, second)
	}
	if firstStats != secondStats {
		t.Fatalf("stats changed across restore:\n first %+v\nsecond %+v", firstStats, secondStats)
	}
}

// A full waiting room sheds instead of queuing unboundedly, and the
// server still terminates with every non-shed query resolved.
func TestServeShedsOnOverload(t *testing.T) {
	g := testGraph()
	_, srv := warmServer(t, g, 1, serve.Config{QueueCap: 2, MaxBatch: 1})
	qs := make([]serve.Query, 16)
	for i := range qs {
		qs[i] = serve.Query{Kind: serve.KindBFS, Src: uint32(i), Tgt: uint32(255 - i), Arrive: 1}
	}
	if err := srv.Run(qs); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.ShedN[serve.KindBFS] == 0 {
		t.Fatal("no queries shed with QueueCap=2 under a burst of 16")
	}
	for i := range qs {
		if qs[i].State != serve.Resolved && qs[i].State != serve.Shed {
			t.Fatalf("query %d in state %d", i, qs[i].State)
		}
	}
	if st.Served[serve.KindBFS]+st.ShedN[serve.KindBFS] != len(qs) {
		t.Fatalf("served %d + shed %d != %d", st.Served[serve.KindBFS], st.ShedN[serve.KindBFS], len(qs))
	}
}

// Admission is continuous: a burst of 8 over 4 slots fills the slots
// once, and from then on every slot is reseeded on its own at the first
// quantum boundary after its query's round chain ends — while queries it
// was launched with are still running. MaxBatch 1 keeps the strict
// one-at-a-time baseline. Either way every answer equals the host BFS and
// the whole timeline is the same at any shard count.
func TestServeContinuousAdmission(t *testing.T) {
	g := testGraph()
	const quantum = 4096
	burst := func() []serve.Query {
		qs := make([]serve.Query, 8) // query 1 is unreachable (long), query 0 two hops (short)
		for i := range qs {
			qs[i] = serve.Query{Kind: serve.KindBFS, Src: uint32(3 * i), Tgt: uint32(200 - i), Arrive: 1}
		}
		return qs
	}
	for _, c := range []struct {
		name               string
		maxBatch, inflight int
		// Launch groups: two would be batch-synchronous serving, eight is
		// every query launched alone.
		minGroups, maxGroups int
	}{
		{"all slots", 0, 4, 3, 8},
		{"MaxBatch 1", 1, 1, 8, 8},
	} {
		t.Run(c.name, func(t *testing.T) {
			var ref []serve.Query
			for _, sh := range []int{1, 3, runtime.GOMAXPROCS(0)} {
				_, srv := warmServer(t, g, sh, serve.Config{Quantum: quantum, MaxBatch: c.maxBatch})
				qs := burst()
				if err := srv.Run(qs); err != nil {
					t.Fatalf("shards=%d: %v", sh, err)
				}
				if ref != nil {
					if !reflect.DeepEqual(qs, ref) {
						t.Fatalf("shards=%d timeline diverged:\n got %+v\nwant %+v", sh, qs, ref)
					}
					continue
				}
				ref = qs
				if got := srv.Stats().Batches[serve.KindBFS]; got < c.minGroups || got > c.maxGroups {
					t.Errorf("%d launch groups, want %d..%d", got, c.minGroups, c.maxGroups)
				}
			}

			lastInSlot := map[int]*serve.Query{}
			var firstGroupEnd, earliestReseed updown.Cycles
			for i := range ref {
				q := &ref[i]
				want := baseline.BFS(g, q.Src)[q.Tgt]
				if q.State != serve.Resolved || q.Reached != (want != baseline.Unreached) ||
					q.Reached && q.Result != uint64(want)+1 {
					t.Errorf("query %d (%d->%d): got (%d,%v) state %d, want dist %d", i, q.Src, q.Tgt, q.Result, q.Reached, q.State, want)
				}
				if q.Slot < 0 || q.Slot >= c.inflight {
					t.Errorf("query %d ran in slot %d with %d allowed in flight", i, q.Slot, c.inflight)
				}
				if q.Start%quantum != 1 {
					t.Errorf("query %d posted at %d, not one past a quantum boundary", i, q.Start)
				}
				// One query per slot at a time: with c.inflight slots in
				// use, never more than that many in flight.
				if prev := lastInSlot[q.Slot]; prev != nil && q.Start <= prev.Done {
					t.Errorf("query %d posted into slot %d at %d, before its previous query resolved at %d", i, q.Slot, q.Start, prev.Done)
				}
				lastInSlot[q.Slot] = q
				if i < c.inflight {
					if q.Batch != 0 {
						t.Errorf("query %d rode launch group %d, want 0", i, q.Batch)
					}
					firstGroupEnd = max(firstGroupEnd, q.Done)
				} else if earliestReseed == 0 || q.Start < earliestReseed {
					earliestReseed = q.Start
				}
			}
			if c.maxBatch == 0 && earliestReseed >= firstGroupEnd {
				t.Errorf("first reseed at %d waited for the whole first group (last done %d)", earliestReseed, firstGroupEnd)
			}
		})
	}
}

// The per-kind telemetry rows report slot occupancy read from the engines'
// in-simulation chain-end stamps at quiesced points: never more slots busy
// than queries in flight, never more in flight than slots — and observing
// changes no query's outcome.
func TestServeTelemetrySlots(t *testing.T) {
	g := testGraph()
	var rows []telemetry.QueryStat
	run := func(pub *telemetry.Publisher) []serve.Query {
		m, err := updown.New(updown.Config{Nodes: 2, Shards: 3, MaxTime: 1 << 42,
			Coalesce: &kvmsr.Coalesce{}, Telemetry: pub})
		if err != nil {
			t.Fatal(err)
		}
		dg, err := graph.LoadToGAS(m.GAS, graph.Split(g, 16), graph.DefaultPlacement(2))
		if err != nil {
			t.Fatal(err)
		}
		pb, err := bfs.NewPoint(m, dg, bfs.PointConfig{Slots: 4})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.New(m, serve.Config{BFS: pb})
		if err != nil {
			t.Fatal(err)
		}
		if pub != nil {
			pub.OnPublish(func(s *telemetry.Snapshot) { rows = append(rows, s.Queries...) })
		}
		qs := make([]serve.Query, 12)
		for i := range qs {
			qs[i] = serve.Query{Kind: serve.KindBFS, Src: uint32(3 * i), Tgt: uint32(200 - i), Arrive: 1}
		}
		if err := srv.Run(qs); err != nil {
			t.Fatal(err)
		}
		return qs
	}

	observed := run(&telemetry.Publisher{MinPeriod: time.Nanosecond})
	if !reflect.DeepEqual(observed, run(nil)) {
		t.Fatal("serving with telemetry on changed the timeline")
	}
	sawBusy := false
	for _, r := range rows {
		if r.Kind != "bfs" || r.Slots != 4 || r.SlotsBusy < 0 || r.SlotsBusy > r.Inflight || r.Inflight > r.Slots {
			t.Fatalf("snapshot row %+v: want 0 <= slots_busy <= inflight <= slots = 4", r)
		}
		sawBusy = sawBusy || r.SlotsBusy > 0
	}
	if !sawBusy {
		t.Fatalf("no snapshot of %d saw a busy slot", len(rows))
	}
	// The last snapshot is taken when the machine drains, before the final
	// harvest: the last queries are finished (no slot busy) but still in
	// flight.
	if last := rows[len(rows)-1]; last.SlotsBusy != 0 || last.Inflight == 0 || last.Served+int64(last.Inflight) != 12 {
		t.Fatalf("final snapshot %+v: want no slot busy and served + in flight = 12", last)
	}
}

// Outside input must not panic: a schedule with an unknown or unconfigured
// kind, or a vertex outside the graph, is refused up front with
// ErrBadQuery naming the entry — before any query is admitted, so the
// schedule is untouched and the server stays usable.
func TestRunRejectsBadQueries(t *testing.T) {
	m, dg := pointqtest.Machine(t, testGraph(), 2, 1)
	pb, err := bfs.NewPoint(m, dg, bfs.PointConfig{Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(m, serve.Config{BFS: pb})
	if err != nil {
		t.Fatal(err)
	}
	good := serve.Query{Kind: serve.KindBFS, Src: 28, Tgt: 0, Arrive: 1}
	for _, c := range []struct {
		name string
		bad  serve.Query
	}{
		{"unknown kind", serve.Query{Kind: 5, Src: 1, Tgt: 2}},
		{"first kind past the table", serve.Query{Kind: 2, Src: 1, Tgt: 2}},
		{"kind without an engine", serve.Query{Kind: serve.KindPPR, Src: 1, Tgt: 2}},
		{"source out of range", serve.Query{Kind: serve.KindBFS, Src: 100000, Tgt: 2}},
		{"target one past the end", serve.Query{Kind: serve.KindBFS, Src: 1, Tgt: 256}},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.bad.Arrive = 2
			qs := []serve.Query{good, c.bad}
			want := append([]serve.Query(nil), qs...)
			err := srv.Run(qs)
			if !errors.Is(err, serve.ErrBadQuery) || !strings.Contains(err.Error(), "query 1:") {
				t.Fatalf("Run = %v, want ErrBadQuery naming query 1", err)
			}
			if !reflect.DeepEqual(qs, want) {
				t.Fatalf("rejected schedule was mutated:\n got %+v\nwant %+v", qs, want)
			}
		})
	}
	qs := []serve.Query{good}
	if err := srv.Run(qs); err != nil || qs[0].State != serve.Resolved {
		t.Fatalf("server unusable after rejections: err %v, state %v", err, qs[0].State)
	}
}
