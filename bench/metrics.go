package main

// The metric registry: every number the benchmark prints is declared here
// once, with its unit, clock and direction. BENCHMARK.json is generated
// from it (`bench manifest`) and the smoke test fails when the two drift.

// Workload names, in run order.
const (
	wPR    = "pr_batch"
	wBFS   = "bfs_batch"
	wServe = "serve_open"
	wSched = "sched_mix"
)

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Clock  string // "host", "sim" or "-" (a count or ratio of no clock)
	// E2E marks the eight end-to-end metrics `bench compare` judges.
	E2E bool
	// Bound > 0 lists the metric under end_to_end in BENCHMARK.json with
	// that bound: the share of the parent's median by which the median over
	// runs of different seeds may worsen. It is sized at three times the
	// seed-to-seed, run-to-run spread measured on the reference box (see
	// baseline.json), capped at the contract's 0.25. The contract
	// wants end-to-end metrics that are never 0, so fail_frac and
	// slo_miss_frac — 0 on a healthy tree — are end-to-end for `bench
	// compare` but travel in BENCHMARK.json's per_layer list; the driver
	// sees failures through the result line's failed/attempted instead.
	Bound float64
	// Rel and Abs are `bench compare`'s same-seed bounds: B is worse than
	// A only when it is worse by more than Rel of A's median and by more
	// than Abs in the metric's unit.
	Rel, Abs float64
	// On lists the workloads that measure the metric; nil means all. The
	// others emit 0 so every run prints every name.
	On []string
	// Moves says which end-to-end metric, on which workload, a change in
	// this per-layer metric should move.
	Moves string
	Def   string
}

var metricDefs = []metricDef{
	// ---- end to end ------------------------------------------------------
	{Name: "setup_s", Unit: "s", Better: "lower", Clock: "host", E2E: true, Bound: 0.25, Rel: 0.15, Abs: 0.15,
		Def: "cold set-up before the timed region: graph generate+build+split, oracle reference, updown.New, graph.LoadToGAS, app/engine construction, warm checkpoint (serve_open); median over the run's set-ups"},
	{Name: "run_wall_s", Unit: "s", Better: "lower", Clock: "host", E2E: true, Bound: 0.25, Rel: 0.10,
		Def: "host wall seconds of the timed region (App.Run / Restore+Server.Run at both rates / Submit+Scheduler.Run) at Shards 1; median over the run's repetitions"},
	{Name: "sim_cycles", Unit: "cycles", Better: "lower", Clock: "sim", E2E: true, Bound: 0.15, Rel: 0.01,
		Def: "simulated makespan of the timed region (App.Elapsed; serve_open at sat and sched_mix: first arrival to last resolution)"},
	{Name: "sim_throughput", Unit: "1/s", Better: "higher", Clock: "sim", E2E: true, Bound: 0.15, Rel: 0.01,
		Def: "completed work per simulated second: pr_batch edge updates (GUPS x 1e9), bfs_batch traversed edges (GTEPS x 1e9), serve_open queries at sat, sched_mix jobs"},
	{Name: "sim_p50_ms", Unit: "ms", Better: "lower", Clock: "sim", E2E: true, Bound: 0.25, Rel: 0.01,
		Def: "median simulated sojourn latency, arrival-due cycle to in-sim resolution (serve_open at lo, sched_mix); batch workloads have one job, so it equals the makespan (n=1)"},
	{Name: "sim_p95_ms", Unit: "ms", Better: "lower", Clock: "sim", E2E: true, Bound: 0.25, Rel: 0.01,
		Def: "p95 of the same latency: the highest percentile with at least 10 samples beyond it at n=200; n=1 on batch workloads"},
	{Name: "slo_miss_frac", Unit: "frac", Better: "lower", Clock: "sim", E2E: true, Abs: 0.01, On: []string{wServe},
		Def: "serve_open at lo: queries shed, wrong, unresolved or slower than 1.0 simulated ms, over queries offered (the limit is p95 <= 1.0 ms, i.e. a miss fraction <= 0.05)"},
	{Name: "fail_frac", Unit: "frac", Better: "lower", Clock: "-", E2E: true,
		Def: "operations failed over attempted: oracle mismatches (vertices, queries, job outputs), shed queries, rejected or failed jobs, errors"},

	// ---- graph -----------------------------------------------------------
	{Name: "graph.gen_s", Unit: "s", Better: "lower", Clock: "host", Moves: "setup_s on every workload (most of batch set-up)",
		Def: "edge generation + graph.FromEdges"},
	{Name: "graph.split_s", Unit: "s", Better: "lower", Clock: "host", Moves: "setup_s on every workload", Def: "graph.Split / SplitWith"},
	{Name: "graph.edges", Unit: "count", Better: "lower", Clock: "-", Moves: "none: input size, stated so rates have a base", Def: "directed edges of the built graph(s)"},

	// ---- updown: machine assembly and checkpoint.go -------------------------
	{Name: "updown.new_s", Unit: "s", Better: "lower", Clock: "host", Moves: "setup_s everywhere; run_wall_s on sched_mix only through job builds", Def: "updown.New"},
	{Name: "updown.checkpoint_s", Unit: "s", Better: "lower", Clock: "host", On: []string{wServe}, Moves: "setup_s on serve_open", Def: "Machine.Checkpoint of the warm machine"},
	{Name: "updown.restore_s", Unit: "s", Better: "lower", Clock: "host", On: []string{wServe}, Moves: "run_wall_s on serve_open (one Restore per rate)", Def: "Machine.Restore, mean per call"},
	{Name: "updown.snapshot_mb", Unit: "MB", Better: "lower", Clock: "-", On: []string{wServe}, Moves: "updown.checkpoint_s, updown.restore_s", Def: "warm snapshot size"},
	{Name: "updown.checkpoint_mb_per_s", Unit: "MB/s", Better: "higher", Clock: "host", On: []string{wServe}, Moves: "setup_s on serve_open", Def: "snapshot size over checkpoint time"},
	{Name: "updown.restore_mb_per_s", Unit: "MB/s", Better: "higher", Clock: "host", On: []string{wServe}, Moves: "run_wall_s on serve_open", Def: "snapshot size over restore time"},

	// ---- gasmem ------------------------------------------------------------
	{Name: "gasmem.load_s", Unit: "s", Better: "lower", Clock: "host", Moves: "setup_s everywhere; run_wall_s on sched_mix (one load per job)", Def: "graph.LoadToGAS, summed over calls"},
	{Name: "gasmem.load_mb_per_s", Unit: "MB/s", Better: "higher", Clock: "host", Moves: "as gasmem.load_s", Def: "bytes allocated by the loads over gasmem.load_s"},
	{Name: "gasmem.used_mb", Unit: "MB", Better: "lower", Clock: "-", Moves: "host.peak_rss_mb", Def: "GAS.UsedBytes summed over nodes after set-up (sched_mix: its peak over the job builds; finished jobs hand memory back)"},
	{Name: "gasmem.probe_translate_ns", Unit: "ns", Better: "lower", Clock: "host", Moves: "run_wall_s wherever DRAM traffic is dense (pr_batch)", Def: "probe: timed GAS.Translate over seeded random VAs in 16 striped regions"},
	{Name: "gasmem.leak_bytes", Unit: "bytes", Better: "lower", Clock: "-", On: []string{wSched}, Moves: "fail_frac on sched_mix (a leak ends in allocation failures); must be 0", Def: "live bytes (UsedBytes - FreeBytes over nodes) after the run minus before"},

	// ---- sim ---------------------------------------------------------------
	{Name: "sim.events", Unit: "count", Better: "lower", Clock: "sim", Moves: "run_wall_s everywhere (wall = events x per-event cost)", Def: "sim.Stats.Events of the timed region"},
	{Name: "sim.sends", Unit: "count", Better: "lower", Clock: "sim", Moves: "as sim.events", Def: "sim.Stats.Sends"},
	{Name: "sim.busy_cycles", Unit: "cycles", Better: "lower", Clock: "sim", Moves: "sim_cycles on batch workloads", Def: "sim.Stats.BusyCycles"},
	{Name: "sim.lanes_touched", Unit: "count", Better: "higher", Clock: "sim", Moves: "sim_cycles on batch workloads", Def: "sim.Stats.LanesTouched"},
	{Name: "sim.lane_util_pct", Unit: "%", Better: "higher", Clock: "sim", Moves: "sim_cycles, sim_throughput on batch workloads", Def: "busy cycles over makespan x all lanes"},
	{Name: "sim.mev_per_s", Unit: "Mev/s", Better: "higher", Clock: "host", Moves: "run_wall_s everywhere; not end-to-end because flattening event chains lowers it while the user wins", Def: "events per host second of the timed region, whole stack"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower", Clock: "host", Moves: "run_wall_s everywhere", Def: "timed-region wall over events, whole stack"},
	{Name: "sim.probe_ns_per_event", Unit: "ns", Better: "lower", Clock: "host", Moves: "run_wall_s on pr_batch (engine share about a fifth) and serve_open; no sim_* metric", Def: "probe: bare sim.Actor cross-node storm, no udweave, shards 1"},
	{Name: "sim.probe_par_speedup", Unit: "x", Better: "higher", Clock: "host", Moves: "sim.par_speedup", Def: "probe: storm wall at shards 1 over wall at shards nproc"},
	{Name: "sim.par_speedup", Unit: "x", Better: "higher", Clock: "host", On: []string{wBFS}, Moves: "wall of sweeps run at shards > 1; run_wall_s itself is pinned to shards 1", Def: "bfs_batch App.Run wall at shards 1 over shards nproc; fingerprints must match"},
	{Name: "sim.imbalance", Unit: "x", Better: "lower", Clock: "sim", Moves: "sim_cycles on batch workloads", Def: "peak-node busy cycles over mean, from Machine.Metrics.Profile().Summarize (recorder on)"},

	// ---- udweave -----------------------------------------------------------
	{Name: "udweave.probe_ns_per_event", Unit: "ns", Better: "lower", Clock: "host", Moves: "run_wall_s on pr_batch and serve_open; no sim_* metric", Def: "probe: the same storm as SendEvent hops through updown.New, minus sim.probe_ns_per_event"},
	{Name: "udweave.probe_cycles_per_event", Unit: "cycles", Better: "lower", Clock: "sim", Moves: "sim_cycles everywhere (model change)", Def: "probe: simulated cycles per minimal event on one lane (paper Table 2: about 10)"},

	// ---- kvmsr -------------------------------------------------------------
	{Name: "kvmsr.shuffle_tuples", Unit: "count", Better: "lower", Clock: "sim", Moves: "sim.events", Def: "sim.Stats.ShuffleTuples"},
	{Name: "kvmsr.shuffle_msgs", Unit: "count", Better: "lower", Clock: "sim", Moves: "sim_cycles on batch workloads (injection ports)", Def: "sim.Stats.ShuffleMsgs"},
	{Name: "kvmsr.tuples_per_msg", Unit: "x", Better: "higher", Clock: "sim", Moves: "sim_cycles, sim_throughput on batch workloads", Def: "tuples over messages"},
	{Name: "kvmsr.probe_ns_per_tuple_classic", Unit: "ns", Better: "lower", Clock: "host", Moves: "run_wall_s on pr_batch; little on bfs_batch", Def: "probe: map-emit-one-tuple / trivial reduce over 4 nodes, no DRAM, one message per tuple"},
	{Name: "kvmsr.probe_ns_per_tuple_coalesced", Unit: "ns", Better: "lower", Clock: "host", Moves: "run_wall_s on bfs_batch; little on pr_batch", Def: "the same probe under Config.Coalesce"},
	{Name: "kvmsr.probe_events_per_tuple", Unit: "x", Better: "lower", Clock: "sim", Moves: "sim.events on pr_batch", Def: "probe: events per key, classic"},
	{Name: "kvmsr.probe_cycles_classic", Unit: "cycles", Better: "lower", Clock: "sim", Moves: "sim_cycles on pr_batch", Def: "probe makespan, classic"},
	{Name: "kvmsr.probe_cycles_coalesced", Unit: "cycles", Better: "lower", Clock: "sim", Moves: "sim_cycles on bfs_batch", Def: "probe makespan, coalesced"},
	{Name: "kvmsr.launch_overhead_cycles", Unit: "cycles", Better: "lower", Clock: "sim", Moves: "sim_cycles on bfs_batch (one launch per round) and serve_open", Def: "probe: empty doAll over 4 nodes, as BenchmarkKVMSROverhead"},

	// ---- dram --------------------------------------------------------------
	{Name: "dram.reads", Unit: "count", Better: "lower", Clock: "sim", Moves: "sim.events", Def: "sim.Stats.DRAMReads"},
	{Name: "dram.writes", Unit: "count", Better: "lower", Clock: "sim", Moves: "sim.events", Def: "sim.Stats.DRAMWrites"},
	{Name: "dram.bytes", Unit: "bytes", Better: "lower", Clock: "sim", Moves: "sim_cycles, sim_throughput on batch workloads", Def: "sim.Stats.DRAMBytes"},
	{Name: "dram.bytes_per_event", Unit: "bytes", Better: "lower", Clock: "sim", Moves: "as dram.bytes", Def: "DRAM bytes over events"},
	{Name: "dram.util_pct", Unit: "%", Better: "higher", Clock: "sim", Moves: "sim_cycles on batch workloads", Def: "peak per-node DRAM bandwidth utilization (recorder on)"},

	// ---- apps and oracle -----------------------------------------------------
	{Name: "apps.new_s", Unit: "s", Better: "lower", Clock: "host", Moves: "setup_s; run_wall_s on sched_mix (one build per job)", Def: "app / point-engine construction + InitValues, summed over calls"},
	{Name: "apps.run_s", Unit: "s", Better: "lower", Clock: "host", Moves: "run_wall_s", Def: "the timed region in the traced repetition (recorder on)"},
	{Name: "apps.validate_s", Unit: "s", Better: "lower", Clock: "host", Moves: "none: outside both timed regions", Def: "read-back and comparison against the oracle"},
	{Name: "baseline.ref_s", Unit: "s", Better: "lower", Clock: "host", Moves: "setup_s", Def: "host oracle: baseline.PageRank / baseline.BFS / pagerank.RefScores"},

	// ---- serve ---------------------------------------------------------------
	{Name: "serve.run_s_lo", Unit: "s", Better: "lower", Clock: "host", On: []string{wServe}, Moves: "run_wall_s on serve_open", Def: "Server.Run wall at lo"},
	{Name: "serve.run_s_sat", Unit: "s", Better: "lower", Clock: "host", On: []string{wServe}, Moves: "run_wall_s on serve_open", Def: "Server.Run wall at sat"},
	{Name: "serve.host_ms_per_query", Unit: "ms", Better: "lower", Clock: "host", On: []string{wServe}, Moves: "run_wall_s on serve_open", Def: "Server.Run wall over queries, both rates"},
	{Name: "serve.events_per_query", Unit: "count", Better: "lower", Clock: "sim", On: []string{wServe}, Moves: "run_wall_s on serve_open", Def: "events over queries, both rates"},
	{Name: "serve.batches", Unit: "count", Better: "lower", Clock: "sim", On: []string{wServe}, Moves: "sim_throughput on serve_open", Def: "engine map/drain cycles at sat"},
	{Name: "serve.fused_per_batch", Unit: "x", Better: "higher", Clock: "sim", On: []string{wServe}, Moves: "sim_p95_ms, slo_miss_frac at lo and sim_throughput at sat", Def: "served over batches at sat"},
	{Name: "serve.shed", Unit: "count", Better: "lower", Clock: "sim", On: []string{wServe}, Moves: "fail_frac, slo_miss_frac on serve_open", Def: "queries shed, both rates"},
	{Name: "serve.lane_util_pct", Unit: "%", Better: "higher", Clock: "sim", On: []string{wServe}, Moves: "sim_throughput at sat on serve_open", Def: "busy cycles over makespan x all lanes at sat"},
	{Name: "serve.wait_p50_ms", Unit: "ms", Better: "lower", Clock: "sim", On: []string{wServe}, Moves: "sim_p50_ms on serve_open", Def: "Query.Start - Query.Arrive at lo (queue + fuse wait)"},
	{Name: "serve.wait_p95_ms", Unit: "ms", Better: "lower", Clock: "sim", On: []string{wServe}, Moves: "sim_p95_ms, slo_miss_frac on serve_open", Def: "p95 of the same"},
	{Name: "serve.service_p50_ms", Unit: "ms", Better: "lower", Clock: "sim", On: []string{wServe}, Moves: "sim_p50_ms on serve_open", Def: "Query.Done - Query.Start at lo"},
	{Name: "serve.service_p95_ms", Unit: "ms", Better: "lower", Clock: "sim", On: []string{wServe}, Moves: "sim_p95_ms, slo_miss_frac on serve_open", Def: "p95 of the same"},

	// ---- sched ---------------------------------------------------------------
	{Name: "sched.submit_s", Unit: "s", Better: "lower", Clock: "host", On: []string{wSched}, Moves: "run_wall_s on sched_mix", Def: "all Scheduler.Submit calls"},
	{Name: "sched.run_s", Unit: "s", Better: "lower", Clock: "host", On: []string{wSched}, Moves: "run_wall_s on sched_mix", Def: "Scheduler.Run"},
	{Name: "sched.host_ms_per_job", Unit: "ms", Better: "lower", Clock: "host", On: []string{wSched}, Moves: "run_wall_s on sched_mix", Def: "Scheduler.Run wall over jobs"},
	{Name: "sched.done", Unit: "count", Better: "higher", Clock: "sim", On: []string{wSched}, Moves: "sim_throughput, fail_frac on sched_mix", Def: "jobs completed"},
	{Name: "sched.rejected", Unit: "count", Better: "lower", Clock: "sim", On: []string{wSched}, Moves: "fail_frac on sched_mix", Def: "jobs rejected or failed"},
	{Name: "sched.max_concurrent", Unit: "count", Better: "higher", Clock: "sim", On: []string{wSched}, Moves: "sim_throughput on sched_mix", Def: "peak jobs placed at once"},
	{Name: "sched.lane_util_pct", Unit: "%", Better: "higher", Clock: "sim", On: []string{wSched}, Moves: "sim_throughput, sim_p95_ms on sched_mix", Def: "lanes held x cycles held over makespan x all lanes"},
	{Name: "sched.wait_p95_ms", Unit: "ms", Better: "lower", Clock: "sim", On: []string{wSched}, Moves: "sim_p95_ms on sched_mix", Def: "p95 of PostedAt - Arrive"},
	{Name: "sched.service_p95_ms", Unit: "ms", Better: "lower", Clock: "sim", On: []string{wSched}, Moves: "sim_p95_ms on sched_mix", Def: "p95 of DoneAt - PostedAt"},

	// ---- metrics: observability overhead --------------------------------------
	{Name: "metrics.recorder_overhead_pct", Unit: "%", Better: "lower", Clock: "host", Moves: "apps.run_s (traced pass only)", Def: "side probe (PageRank, 4 nodes): wall with Config.Metrics over wall without, minus 1"},
	{Name: "metrics.causal_overhead_pct", Unit: "%", Better: "lower", Clock: "host", Moves: "none of the gated metrics: causal tracing stays in the side probe", Def: "side probe: wall with Config.Trace{Causal} over wall without, minus 1"},
	{Name: "metrics.crit_pct", Unit: "%", Better: "lower", Clock: "sim", Moves: "sim_cycles on pr_batch", Def: "side probe: critical-path length over makespan"},
	{Name: "metrics.trace_overhead_pct", Unit: "%", Better: "lower", Clock: "host", Moves: "bounds how far layer self times may miss run_wall_s", Def: "traced repetition's timed region over the untraced one, minus 1"},

	// ---- host: Go runtime around the timed region ------------------------------
	{Name: "host.alloc_mb", Unit: "MB", Better: "lower", Clock: "host", Moves: "run_wall_s everywhere", Def: "MemStats.TotalAlloc growth"},
	{Name: "host.allocs_per_kev", Unit: "count", Better: "lower", Clock: "host", Moves: "run_wall_s on pr_batch and serve_open", Def: "MemStats.Mallocs growth per 1000 events"},
	{Name: "host.gc_cycles", Unit: "count", Better: "lower", Clock: "host", Moves: "run_wall_s everywhere", Def: "MemStats.NumGC growth"},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower", Clock: "host", Moves: "run_wall_s everywhere", Def: "MemStats.PauseTotalNs growth"},
	{Name: "host.peak_rss_mb", Unit: "MB", Better: "lower", Clock: "host", Moves: "none: bounds experiment scale; +-15% run to run", Def: "VmHWM of the per-workload process after the timed region"},
	{Name: "host.user_cpu_s", Unit: "s", Better: "lower", Clock: "host", Moves: "run_wall_s everywhere", Def: "getrusage user time growth"},
}

func defByName(name string) *metricDef {
	for i := range metricDefs {
		if metricDefs[i].Name == name {
			return &metricDefs[i]
		}
	}
	return nil
}

// gated reports whether the metric is listed under end_to_end in
// BENCHMARK.json; every other metric is listed under per_layer.
func (d *metricDef) gated() bool { return d.Bound > 0 }

// manifest is BENCHMARK.json, generated from the registry.
func manifest() map[string]any {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var ws []wl
	for _, w := range workloads {
		ws = append(ws, wl{w.Name, w.Why})
	}
	var es []e2e
	var ls []layer
	for _, d := range metricDefs {
		if d.gated() {
			es = append(es, e2e{d.Name, d.Unit, d.Better, d.Bound})
		} else {
			ls = append(ls, layer{d.Name, d.Unit, d.Better})
		}
	}
	return map[string]any{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": runSeconds,
		"workloads":   ws,
		"end_to_end":  es,
		"per_layer":   ls,
	}
}
