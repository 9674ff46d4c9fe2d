package harness

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"updown"
	"updown/internal/apps/bfs"
	"updown/internal/apps/pagerank"
	"updown/internal/apps/pointq"
	"updown/internal/arch"
	"updown/internal/graph"
	"updown/internal/prng"
	"updown/internal/serve"
)

// FigServeOptions configures the interactive serving sweep: an open-loop
// Poisson stream of mixed point queries (BFS reachability, personalized
// PageRank) against one warm resident machine, swept over arrival rate,
// in both fused (every slot in use) and unfused (one query in flight per
// kind) modes.
type FigServeOptions struct {
	// Nodes is the machine size (default 2).
	Nodes int
	// AccelsPerNode/LanesPerAccel shrink the per-node geometry so the
	// sweep finishes at workstation scale (defaults 4 and 16).
	AccelsPerNode, LanesPerAccel int
	// Scale is log2 of the resident graph's vertex count (default 8).
	Scale int
	// Queries is the stream length per sweep point (default 48).
	Queries int
	// Gaps are the offered loads as mean Poisson interarrival gaps in
	// cycles, sparse to saturating (default {32000, 16000, 8000, 4000,
	// 2000}).
	Gaps []int64
	// Seed drives arrivals and the query mix.
	Seed uint64
	// Quantum is the serving reconcile grid (default sched quantum).
	Quantum updown.Cycles
	// FuseWindow is the launch hold-off (default 2048 cycles).
	FuseWindow updown.Cycles
	// Slots is each point engine's concurrent-query capacity (0 = engine
	// default: one slot per accelerator's worth of lanes). More slots than
	// lanes (128 on the default machine) is ErrBadOption.
	Slots int
	// QueueCap bounds each kind's waiting room (default 64).
	QueueCap int
	// Shards and Progress are the shared sweep options (see sweep).
	// Every number reported is simulated-time only, so the payload is
	// byte-identical at any shard count; progress is one line per sweep
	// point.
	Shards   int
	Progress io.Writer
}

// ServeRow is one sweep point; latency keys end in _ms.
type ServeRow struct {
	// MeanGapCycles is the offered-load knob: mean Poisson interarrival.
	MeanGapCycles int64 `json:"mean_gap_cycles"`
	// OfferedQPS is the arrival rate in simulated queries/second.
	OfferedQPS float64 `json:"offered_qps"`
	Queries    int     `json:"queries"`
	Served     int     `json:"served"`
	Shed       int     `json:"shed"`
	// QPS is resolution throughput over the makespan (first arrival to
	// last resolution).
	QPS float64 `json:"queries_per_sec"`
	// P50Ms/P99Ms/P999Ms are sojourn-latency percentiles (arrival to
	// in-sim resolution) in simulated milliseconds.
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	// LaneUtilPct integrates lane-busy cycles over the makespan against
	// the whole machine's lane-time.
	LaneUtilPct float64 `json:"lane_util_pct"`
	// Batches is the number of launch groups (boundaries at which a kind
	// posted queries); FusedPerBatch = Served/Batches is the mean number
	// of queries per group.
	Batches        int     `json:"batches"`
	FusedPerBatch  float64 `json:"fused_per_batch"`
	MakespanCycles int64   `json:"makespan_cycles"`
}

// ServeMode is one serving policy's sweep (fused or unfused).
type ServeMode struct {
	Rows []ServeRow `json:"rows"`
}

// ServeComparison records what admitting into every slot wins over one
// query in flight per kind at the saturating sweep point (smallest gap):
// the acceptance bar is higher fused qps at equal or better p99.
type ServeComparison struct {
	SaturationQPS   map[string]float64 `json:"saturation_qps"`
	SaturationP99Ms map[string]float64 `json:"saturation_p99_ms"`
	QPSGainPct      float64            `json:"qps_gain_pct"`
}

// FigServeResult is the sweep output (cmd/fig/testdata/serve.json).
type FigServeResult struct {
	Nodes            int             `json:"nodes"`
	LanesPerNode     int             `json:"lanes_per_node"`
	Scale            int             `json:"scale"`
	Queries          int             `json:"queries"`
	Slots            int             `json:"slots"`
	Seed             uint64          `json:"seed"`
	QuantumCycles    int64           `json:"quantum_cycles"`
	FuseWindowCycles int64           `json:"fuse_window_cycles"`
	Fused            ServeMode       `json:"fused"`
	Unfused          ServeMode       `json:"unfused"`
	Comparison       ServeComparison `json:"comparison"`
}

// Format renders the sweep as the aligned text tables cmd/fig prints.
func (r *FigServeResult) Format() string {
	cols := []column[ServeRow]{
		{"gap(cyc)", "", 10, "d", func(r *ServeRow) any { return r.MeanGapCycles }},
		{"offered/s", "", 10, ".1f", func(r *ServeRow) any { return r.OfferedQPS }},
		{"q/s", "", 8, ".1f", func(r *ServeRow) any { return r.QPS }},
		{"done", "", 5, "d", func(r *ServeRow) any { return r.Served }},
		{"shed", "", 5, "d", func(r *ServeRow) any { return r.Shed }},
		{"p50(ms)", "", 10, ".4f", func(r *ServeRow) any { return r.P50Ms }},
		{"p99(ms)", "", 10, ".4f", func(r *ServeRow) any { return r.P99Ms }},
		{"p999(ms)", "", 10, ".4f", func(r *ServeRow) any { return r.P999Ms }},
		{"util%", "", 7, ".2f", func(r *ServeRow) any { return r.LaneUtilPct }},
		{"x/batch", "", 7, ".2f", func(r *ServeRow) any { return r.FusedPerBatch }},
	}
	c := r.Comparison
	return fmt.Sprintf("figserve: %d nodes x %d lanes, %d queries/point, scale %d, %d slots, seed %d\n",
		r.Nodes, r.LanesPerNode, r.Queries, r.Scale, r.Slots, r.Seed) +
		render(false, "fused:", r.Fused.Rows, cols, nil) +
		render(false, "unfused:", r.Unfused.Rows, cols, nil) +
		fmt.Sprintf("saturation: fused %.1f q/s vs unfused %.1f q/s (%+.1f%%), p99 %.4f vs %.4f ms\n",
			c.SaturationQPS["fused"], c.SaturationQPS["unfused"], c.QPSGainPct,
			c.SaturationP99Ms["fused"], c.SaturationP99Ms["unfused"])
}

// serveSchedule generates the (seed, gap)-deterministic query stream:
// the same mix is offered to both serving modes so they compare
// apples-to-apples at each load point.
func serveSchedule(n int, gap int64, seed uint64, verts uint64) []serve.Query {
	rng := prng.NewStream(seed ^ uint64(gap))
	qs := make([]serve.Query, n)
	arrive := updown.Cycles(1)
	for i := range qs {
		qs[i] = serve.Query{
			Kind:   serve.Kind(rng.Intn(2)),
			Src:    uint32(rng.Next() % verts),
			Tgt:    uint32(rng.Next() % verts),
			Arrive: arrive,
		}
		arrive += poissonGap(rng, gap)
	}
	return qs
}

// FigServe runs the serving sweep: the machine is built and the graph
// loaded exactly once, a quiescent warm checkpoint is taken, and every
// sweep point restores that snapshot — the per-point cost is serving,
// never rebuild.
func FigServe(opt FigServeOptions) (*FigServeResult, error) {
	orDefault(&opt.Nodes, 2)
	orDefault(&opt.AccelsPerNode, 4)
	orDefault(&opt.LanesPerAccel, 16)
	orDefault(&opt.Scale, 8)
	orDefault(&opt.Queries, 48)
	orDefaultList(&opt.Gaps, 32000, 16000, 8000, 4000, 2000)
	orDefault(&opt.Seed, 42)
	orDefault(&opt.Quantum, 4096)
	orDefault(&opt.FuseWindow, 2048)
	orDefault(&opt.QueueCap, 64)
	ar := arch.DefaultMachine(opt.Nodes)
	ar.AccelsPerNode = opt.AccelsPerNode
	ar.LanesPerAccel = opt.LanesPerAccel
	if err := Validate(opt.Scale, 0, Positive("nodes", opt.Nodes), Positive("accels", opt.AccelsPerNode),
		Positive("lanes", opt.LanesPerAccel), Addressable(ar, opt.Nodes), Positive("queries", opt.Queries), Positive("gaps", opt.Gaps...)); err != nil {
		return nil, err
	}

	g := graph.FromEdges(1<<opt.Scale, graph.DefaultRMAT(opt.Scale, opt.Seed), graph.BuildOptions{
		Undirected: true, Dedup: true, DropSelfLoops: true, SortNeighbors: true})

	m, err := updown.New(sweep{Shards: opt.Shards, Profile: true}.config(updown.Config{Arch: &ar}))
	if err != nil {
		return nil, err
	}
	dg, err := graph.LoadToGAS(m.GAS, graph.Split(g, 16), graph.DefaultPlacement(opt.Nodes))
	if err != nil {
		return nil, err
	}
	pb, err := bfs.NewPoint(m, dg, bfs.PointConfig{Slots: opt.Slots})
	var pp *pagerank.PointPPR
	if err == nil {
		pp, err = pagerank.NewPoint(m, dg, pagerank.PointConfig{Slots: opt.Slots})
	}
	if errors.Is(err, pointq.ErrTooManySlots) {
		return nil, fmt.Errorf("%w: slots %d: %v", ErrBadOption, opt.Slots, err)
	}
	if err != nil {
		return nil, err
	}

	// The warm-start snapshot: graph resident, both engines' slot arenas
	// installed, nothing ever run. Restoring into the same machine is the
	// per-sweep-point reset.
	var snap bytes.Buffer
	if err := m.Checkpoint(&snap); err != nil {
		return nil, fmt.Errorf("figserve: warm checkpoint: %w", err)
	}

	res := &FigServeResult{Nodes: opt.Nodes, LanesPerNode: ar.LanesPerNode(),
		Scale: opt.Scale, Queries: opt.Queries, Slots: pb.Slots(), Seed: opt.Seed,
		QuantumCycles: int64(opt.Quantum), FuseWindowCycles: int64(opt.FuseWindow)}

	run := func(gap int64, maxBatch int) (ServeRow, error) {
		if err := m.Restore(bytes.NewReader(snap.Bytes())); err != nil {
			return ServeRow{}, fmt.Errorf("figserve: restore: %w", err)
		}
		srv, err := serve.New(m, serve.Config{BFS: pb, PPR: pp,
			Quantum: opt.Quantum, FuseWindow: opt.FuseWindow,
			MaxBatch: maxBatch, QueueCap: opt.QueueCap})
		if err != nil {
			return ServeRow{}, err
		}
		qs := serveSchedule(opt.Queries, gap, opt.Seed, uint64(g.N))
		if err := srv.Run(qs); err != nil {
			return ServeRow{}, err
		}
		return buildServeRow(m, srv, qs, gap), nil
	}

	for _, gap := range opt.Gaps {
		fr, err := run(gap, 0)
		if err != nil {
			return nil, fmt.Errorf("figserve gap=%d fused: %w", gap, err)
		}
		res.Fused.Rows = append(res.Fused.Rows, fr)
		ur, err := run(gap, 1)
		if err != nil {
			return nil, fmt.Errorf("figserve gap=%d unfused: %w", gap, err)
		}
		res.Unfused.Rows = append(res.Unfused.Rows, ur)
		progressf(opt.Progress, "figserve gap=%d: fused %.1f q/s p99 %.4f ms (x%.1f/batch), unfused %.1f q/s p99 %.4f ms",
			gap, fr.QPS, fr.P99Ms, fr.FusedPerBatch, ur.QPS, ur.P99Ms)
	}

	satF := res.Fused.Rows[len(res.Fused.Rows)-1]
	satU := res.Unfused.Rows[len(res.Unfused.Rows)-1]
	res.Comparison = ServeComparison{
		SaturationQPS:   map[string]float64{"fused": satF.QPS, "unfused": satU.QPS},
		SaturationP99Ms: map[string]float64{"fused": satF.P99Ms, "unfused": satU.P99Ms},
	}
	if satU.QPS > 0 {
		res.Comparison.QPSGainPct = 100 * (satF.QPS/satU.QPS - 1)
	}
	return res, nil
}

// buildServeRow derives a sweep point's row from the resolved schedule.
func buildServeRow(m *updown.Machine, srv *serve.Server, qs []serve.Query, gap int64) ServeRow {
	st := srv.Stats()
	row := ServeRow{MeanGapCycles: gap,
		OfferedQPS: 1 / m.Seconds(updown.Cycles(gap)),
		Queries:    len(qs),
		Served:     st.Served[0] + st.Served[1],
		Shed:       st.ShedN[0] + st.ShedN[1],
		Batches:    st.Batches[0] + st.Batches[1]}
	var lat []updown.Cycles
	for i := range qs {
		if qs[i].State == serve.Resolved {
			lat = append(lat, qs[i].Latency())
		}
	}
	pick := latencyMs(m, lat)
	row.P50Ms, row.P99Ms, row.P999Ms = pick(50, 100), pick(99, 100), pick(999, 1000)
	if st.Last > st.First {
		row.MakespanCycles = int64(st.Last - st.First)
		sec := m.Seconds(st.Last - st.First)
		row.QPS = float64(row.Served) / sec
		row.LaneUtilPct = 100 * float64(st.Sim.BusyCycles) /
			(float64(row.MakespanCycles) * float64(m.Arch.TotalLanes()))
	}
	if row.Batches > 0 {
		row.FusedPerBatch = float64(row.Served) / float64(row.Batches)
	}
	return row
}
