// Command updown-sim runs one application once on a simulated UpDown
// machine and reports timing and machine statistics — the equivalent of
// the artifact's per-application executables (pagerankMSRdramalloc,
// bfs_udweave, three_clique_count_mm_global, ...).
//
//	updown-sim -app pr  -graph rmat -scale 14 -nodes 16
//	updown-sim -app bfs -graph soc-livej -scale 14 -nodes 4 -root 28
//	updown-sim -app tc  -graph com-orkut -scale 11 -nodes 8
//	updown-sim -app ingest -records 10000 -nodes 4
//	updown-sim -app match  -records 2000 -nodes 2
//
// The graph applications (pr, bfs, tc) are built and run through the
// harness's one application table. Alternatively, -gv/-nl load a
// preprocessed binary graph produced by cmd/preprocess.
//
// Observability: -profile prints the per-node utilization report and
// per-kind breakdown (with each kind's cross-node share) after the run, for
// the graph apps one "termination:" line with the KVMSR termination
// protocol's counters (launches, master probes, node drains, pushed
// deltas), for pr one "phases:" line per iteration (its map+reduce
// cycles), for bfs one "rounds:" line (each round's cycles from
// launch to completion, its tuples and its newly visited vertices), and
// one "scratchpad:" line naming the lane whose slots hold the most bytes;
// -trace out.json exports a Chrome trace_event file loadable in Perfetto
// (ui.perfetto.dev), one process per node with counter tracks for lane
// occupancy, DRAM traffic/backlog and injection backlog. -spans adds named
// span tracks (event executions, thread lifetimes, KVMSR phases, application
// phases) to the trace file; -critpath prints the causal critical-path
// report and latency histograms; -flows prints the node-to-node message
// flow matrix:
//
//	updown-sim -app pr -nodes 16 -profile -trace pr.json -spans -critpath -flows
//
// Fault injection: -fault-spec installs a deterministic fault plan (see
// internal/fault for the grammar) seeded by -fault-seed; -resilient
// switches KVMSR shuffles to the acked, idempotent resilient protocol so
// application results survive drops and duplicates; -checksum prints a
// deterministic application-result checksum for comparing faulty runs
// against fault-free ones:
//
//	updown-sim -app bfs -nodes 4 -fault-spec drop=0.05,dup=0.02 -fault-seed 7 -resilient -checksum
//
// Checkpointing: for the graph applications (pr, bfs, tc), -checkpoint
// writes a warm-start checkpoint right after the graph is generated,
// split and loaded into the global address space — the expensive,
// deterministic preamble — and then runs normally. -restore rebuilds the
// machine from the same flags, loads that checkpoint instead of
// regenerating the graph, and runs; the run is bit-identical to the
// checkpointing run. The machine flags (-nodes, -accel, -spare) must
// match the checkpointing invocation; mismatches are rejected before any
// state changes:
//
//	updown-sim -app pr -nodes 4 -scale 14 -checkpoint pr.ckpt
//	updown-sim -app pr -nodes 4 -restore pr.ckpt     # skips generation+load
//
// Replication: -rep k places every DRAMmalloc on k consecutive ring
// nodes; writes fan out to all copies and reads fall over past
// fail-stopped nodes. -victim CYCLE fail-stops the last data node
// mid-run (it requires -rep >= 2 and -spare, and keeps application
// lanes off that node), so a -checksum comparison against the fault-free
// run demonstrates zero data loss:
//
//	updown-sim -app bfs -nodes 4 -rep 2 -spare -victim 40000 -checksum
//
// Exit status: 0, 1 when the run failed, 2 for a rejected flag value
// (before anything is built), 3 after a simulated-time timeout and 130
// after an interrupt (see runPartial).
package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"updown"
	"updown/internal/apps/ingest"
	"updown/internal/apps/match"
	"updown/internal/arch"
	"updown/internal/fault"
	"updown/internal/gasmem"
	"updown/internal/graph"
	"updown/internal/harness"
	"updown/internal/kvmsr"
	"updown/internal/metrics"
	"updown/internal/sim"
	"updown/internal/snap"
	"updown/internal/telemetry"
	"updown/internal/tform"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, runs the application and writes its report to stdout,
// returning the exit status.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("updown-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "pr", "application: pr | bfs | tc | ingest | match")
	preset := fs.String("graph", "rmat", "workload preset (see graph.Presets)")
	scale := fs.Int("scale", 14, "log2 vertex count")
	gvPath := fs.String("gv", "", "preprocessed vertex array (with -nl, overrides -graph)")
	nlPath := fs.String("nl", "", "preprocessed neighbor list")
	nodes := fs.Int("nodes", 4, "UpDown node count")
	accels := fs.Int("accel", 32, "accelerators per node")
	memNodes := fs.Int("mem", 0, "memory nodes for DRAMmalloc (0 = all; the artifact's <mem> argument)")
	maxDeg := fs.Int("m", 64, "vertex-splitting max degree (0 = none)")
	root := fs.Uint("root", 28, "BFS root vertex")
	iters := fs.Int("iters", 1, "PageRank iterations")
	records := fs.Int("records", 5000, "record count for ingest/match")
	seed := fs.Uint64("seed", 42, "generator seed")
	shards := fs.Int("shards", 0, "simulator host parallelism (0 = auto)")
	profile := fs.Bool("profile", false, "print the per-node utilization profile after the run")
	tracePath := fs.String("trace", "", "write a Perfetto/Chrome trace_event JSON file")
	spans := fs.Bool("spans", false, "record named spans (event executions, threads, KVMSR phases, app phases) into the -trace file")
	critpath := fs.Bool("critpath", false, "print the causal critical-path report and latency histograms after the run")
	flows := fs.Bool("flows", false, "print the node-to-node message flow matrix after the run")
	interval := fs.Int64("metrics-interval", int64(metrics.DefaultInterval), "profile sampling interval in cycles")
	faultSpec := fs.String("fault-spec", "", "fault-injection spec, e.g. drop=0.05,dup=0.02,failstop=3@20000 (see internal/fault)")
	faultSeed := fs.Uint64("fault-seed", 1, "seed for fault-injection verdicts (same seed+spec = bit-identical run)")
	resilient := fs.Bool("resilient", false, "use the resilient KVMSR shuffle (acked emits, retransmission, dedup)")
	coalesce := fs.Bool("coalesce", false, "use the coalescing KVMSR shuffle (multi-tuple packed messages)")
	spare := fs.Bool("spare", false, "add one machine node beyond -nodes that carries no lanes' work and no data: a safe fail-stop target")
	rep := fs.Int("rep", 0, "k-way replicated global-memory placement (0/1 = single copy): writes fan out to k nodes, reads fall over past fail-stops")
	victimAt := fs.Int64("victim", 0, "fail-stop the last data node at this cycle (0 = never); requires -rep >= 2 and -spare, and keeps lanes off the victim")
	checksum := fs.Bool("checksum", false, "print a deterministic application-result checksum")
	ckptPath := fs.String("checkpoint", "", "write a warm-start checkpoint (loaded graph + machine state) to FILE after graph load, then run (pr|bfs|tc)")
	restorePath := fs.String("restore", "", "restore a -checkpoint FILE instead of generating and loading the graph, then run")
	serveAddr := fs.String("serve", "", "serve live telemetry on ADDR (e.g. :9187): /metrics (Prometheus), /status (JSON), /profile (partial profile), /debug/pprof")
	watchdog := fs.Duration("watchdog", 0, "dump goroutine stacks + partial profile to -dump-dir when no window advances for this long (0 = off)")
	dumpDir := fs.String("dump-dir", ".", "directory for watchdog and SIGUSR1 partial-artifact dumps")
	switch err := fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 2
	}

	sf := simFlags{
		App: *app, Scale: *scale, Nodes: *nodes, Accels: *accels, Iters: *iters, Records: *records,
		Rep: *rep, Spare: *spare,
		CkptPath: *ckptPath, RestorePath: *restorePath, VictimAt: *victimAt,
	}
	fl := obsFlags{
		Profile: *profile, TracePath: *tracePath, Spans: *spans,
		CritPath: *critpath, Flows: *flows, Interval: *interval,
	}
	plan, err := fault.ParseSpec(*faultSpec)
	if err == nil {
		err = sf.validate()
	}
	if err == nil {
		err = fl.validate()
	}
	if err != nil {
		fmt.Fprintln(stderr, "updown-sim:", err)
		return 2
	}
	defer func() { // a must failure ends the run here
		if r := recover(); r != nil {
			f, ok := r.(failure)
			if !ok {
				panic(r)
			}
			fmt.Fprintln(stderr, "updown-sim:", f.err)
			code = 1
		}
	}()

	if plan != nil {
		plan.Seed = *faultSeed
	}
	var res *kvmsr.Resilience
	if *resilient {
		res = &kvmsr.Resilience{}
	}
	if plan != nil && len(plan.Rules) > 0 && res == nil {
		fmt.Fprintln(stderr, "updown-sim: warning: message faults without -resilient will lose shuffle tuples")
	}
	var coal *kvmsr.Coalesce
	if *coalesce {
		coal = &kvmsr.Coalesce{}
	}

	machNodes := *nodes
	if *spare {
		machNodes++
	}
	ar := arch.DefaultMachine(machNodes)
	ar.AccelsPerNode = *accels
	// With -spare, application lanes stay on the first -nodes nodes; the
	// extra node only relays protocol traffic and can be fail-stopped
	// without losing state. A zero LaneSet means "whole machine".
	var appLanes kvmsr.LaneSet
	if *spare {
		appLanes = kvmsr.LaneSet{First: 0, Count: *nodes * ar.LanesPerNode()}
	}
	if *victimAt > 0 {
		// The victim is the last data node: it serves replicated DRAM but
		// hosts no application lane, so fail-stopping it mid-run loses
		// nothing the surviving replicas cannot serve.
		victim := *nodes - 1
		appLanes = kvmsr.LaneSet{First: 0, Count: victim * ar.LanesPerNode()}
		if plan == nil {
			plan = &fault.Plan{Seed: *faultSeed}
		}
		plan.FailStops = append(plan.FailStops, fault.FailStop{
			Node: victim, At: updown.Cycles(*victimAt)})
	}
	var mopts *metrics.Options
	if *profile || *tracePath != "" {
		mopts = &metrics.Options{Interval: updown.Cycles(*interval)}
	}
	// The CLI always attaches the telemetry plane so signal-driven dumps
	// and orderly SIGINT stops work on every run; the per-window cost is a
	// nil-check plus one clock read, invisible next to a real workload.
	// HTTP exposition and the watchdog stay opt-in.
	pub := &telemetry.Publisher{Logf: func(format string, args ...any) {
		fmt.Fprintf(stderr, "updown-sim: "+format+"\n", args...)
	}}
	m, err := updown.New(updown.Config{
		Arch: &ar, Shards: *shards, MaxTime: 1 << 46,
		Metrics: mopts, Trace: fl.traceOptions(),
		Telemetry: pub,
		Fault:     plan, Resilience: res, Coalesce: coal,
		Replication: *rep,
	})
	must(err)
	pub.Dump = func(s *telemetry.Snapshot) error { return writeDump(stderr, *dumpDir, m, s) }
	defer installSignals(pub)()
	if *serveAddr != "" {
		srv, err := telemetry.Serve(*serveAddr, pub)
		must(err)
		defer srv.Close()
		fmt.Fprintf(stderr, "updown-sim: telemetry on http://%s (/metrics /status /profile /debug/pprof)\n", *serveAddr)
	}
	if *watchdog > 0 {
		wd := &telemetry.Watchdog{P: pub, Stall: *watchdog, Dir: *dumpDir, Logf: pub.Logf}
		wd.Start()
		defer wd.Stop()
	}

	// resTotals is filled by apps that ran a resilient shuffle and
	// termTotals by every graph app (-profile prints it); sum, when
	// non-nil, is the -checksum application-result digest's input
	// (bit-exact for the integer results; PageRank's float ranks are
	// bit-exact only between runs with identical delivery schedules — the
	// chaos harness epsilon-compares those instead).
	var resTotals kvmsr.ResilienceTotals
	var termTotals kvmsr.TerminationTotals
	var sum []uint64

	if a := harness.LookupApp(*app); a != nil {
		// The warm-start boundary: generation, splitting and LoadToGAS are
		// the deterministic preamble a checkpoint lets later runs skip.
		var dg *graph.DeviceGraph
		if *restorePath != "" {
			dg = mustRestoreWarmStart(m, *restorePath, sf)
		} else {
			g := loadGraph(*gvPath, *nlPath, *preset, *scale, *seed, *app == "tc")
			pl := graph.DefaultPlacement(*nodes)
			if *memNodes != 0 {
				pl.NRNodes = *memNodes
			}
			dg, err = graph.LoadToGAS(m.GAS, a.Split(g, *maxDeg), pl)
			must(err)
			if *ckptPath != "" {
				must(writeWarmStart(m, *ckptPath, sf, dg))
				fmt.Fprintf(stdout, "checkpoint written to %s\n", *ckptPath)
			}
		}
		j, err := a.Start(m, dg, harness.AppConfig{Lanes: appLanes, Root: uint32(*root), Iters: *iters})
		must(err)
		stats, err := j.Run()
		code = runPartial(stderr, err)
		report(stdout, m, stats, j.Elapsed(), j.TerminationTotals().Retired)
		if code == 0 {
			fmt.Fprintln(stdout, j.Summary())
			resTotals, termTotals = j.ResilienceTotals(), j.TerminationTotals()
			if *profile && j.Profile != nil {
				for _, line := range j.Profile() {
					fmt.Fprintln(stdout, line)
				}
			}
			if *checksum {
				sum = j.Checksum()
			}
		}
	} else if *app == "ingest" {
		data, _ := tform.GenCSV(*records, 1<<24, 8, *seed)
		a, err := ingest.New(m, data, ingest.Config{Lanes: appLanes})
		must(err)
		stats, err := a.Run()
		code = runPartial(stderr, err)
		report(stdout, m, stats, a.Elapsed(), 0)
		if code == 0 {
			fmt.Fprintf(stdout, "records: %d, phase1 %d cycles, phase2 %d cycles (%.2f MRec/s)\n",
				a.Records, a.Phase1(), a.Phase2(),
				float64(a.Records)/m.Seconds(a.Elapsed())/1e6)
			if *checksum {
				sum = []uint64{a.Records}
			}
		}
	} else { // match
		_, recs := tform.GenCSV(*records, 4096, 4, *seed)
		patterns := []match.Pattern{{Types: []uint64{0, 1}}, {Types: []uint64{2, 2}}}
		a, err := match.New(m, recs, patterns, match.Config{Interarrival: 40})
		must(err)
		stats, err := a.Run()
		code = runPartial(stderr, err)
		report(stdout, m, stats, 0, 0)
		if code == 0 {
			fmt.Fprintf(stdout, "processed: %d, matches: %d, avg latency %.0f cycles (%.2f us)\n",
				a.Processed(), a.Matches(), a.AvgLatency(), a.AvgLatency()/2e3)
		}
	}

	if resTotals != (kvmsr.ResilienceTotals{}) {
		fmt.Fprintf(stdout, "resilience: emits=%d retries=%d dup-drops=%d acks=%d rekicks=%d\n",
			resTotals.Emits, resTotals.Retries, resTotals.DupDrops, resTotals.Acks, resTotals.Rekicks)
	}
	if *profile && termTotals.Launches > 0 {
		fmt.Fprintf(stdout, "termination: launches=%d node-drains=%d at-map-done=%d delta-msgs=%d delta-reduces=%d lane-pushes=%d\n",
			termTotals.Launches, termTotals.NodeDrains, termTotals.AtMapDone,
			termTotals.DeltaMsgs, termTotals.DeltaReduces, termTotals.Pushes)
	}
	if sum != nil {
		fmt.Fprintf(stdout, "result-checksum: %016x\n", digest(sum...))
	}

	if m.Metrics != nil {
		p := m.Metrics.Profile()
		if *profile {
			fmt.Fprintln(stdout)
			must(p.WriteText(stdout))
			s := p.Summarize(m.Arch)
			fmt.Fprintf(stdout, "nodes touched: %d, imbalance %.2fx (peak node %d), DRAM util %.1f%%, inj util %.1f%%\n",
				s.NodesTouched, s.Imbalance, s.PeakBusyNode, 100*s.DRAMUtil, 100*s.InjUtil)
			if lane, held := m.Prog.FullestLane(); held > 0 {
				fmt.Fprintf(stdout, "scratchpad: fullest lane %d (node %d) holds %d of %d bytes\n",
					lane, m.Arch.NodeOf(lane), held, m.Arch.ScratchBytesPerLane)
			}
		}
		if *tracePath != "" {
			must(writeFileWith(*tracePath, func(w io.Writer) error { return metrics.WriteTraceFile(w, m.Arch, p, m.Trace) }))
			fmt.Fprintf(stdout, "trace written to %s (open in ui.perfetto.dev)\n", *tracePath)
		}
	}
	if m.Trace != nil && m.Trace.CausalOn() {
		if *critpath {
			fmt.Fprintln(stdout)
			must(m.Trace.CriticalPath().WriteText(stdout))
			fmt.Fprintln(stdout)
			must(m.Trace.Latencies().WriteText(stdout))
		}
		if *flows {
			fmt.Fprintln(stdout)
			must(m.Trace.Flows().WriteText(stdout, m.Arch))
		}
	}
	return code
}

// failure is what must panics with; run recovers it and exits 1.
type failure struct{ err error }

func must(err error) {
	if err != nil {
		panic(failure{err})
	}
}

// runPartial classifies an application Run error as the exit status: 0
// when the run completed, 3 after a simulated-time timeout, 130 after a
// requested (SIGINT) stop. A timed-out or stopped run is partial: the
// machine statistics and every recorded artifact (profile, trace, dumps)
// are still coherent — the engine stopped at a quiesced window boundary —
// so the caller reports them and skips only the application-level
// results, which never materialized. Any other error is fatal.
func runPartial(stderr io.Writer, err error) int {
	code := 0
	switch {
	case err == nil:
		return 0
	case errors.Is(err, sim.ErrTimeout):
		code = 3
	case errors.Is(err, sim.ErrInterrupted):
		code = 130
	default:
		must(err)
	}
	fmt.Fprintln(stderr, "updown-sim:", err)
	fmt.Fprintln(stderr, "updown-sim: partial run: reporting machine stats and artifacts, skipping application results")
	return code
}

// writeDump writes the partial-run observability artifacts for a
// SIGUSR1 / Publisher.RequestDump request into dir: the latest snapshot
// as dump-status.json, the partial profile as dump-profile.txt and a
// balanced partial trace as dump-trace.json. Names are fixed and
// overwritten on every dump so scripts can poll for them. The publisher
// invokes it from a quiesced engine context, so cloning the recorders
// is race-free.
func writeDump(stderr io.Writer, dir string, m *updown.Machine, s *telemetry.Snapshot) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "dump-status.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	var p *metrics.Profile
	if m.Metrics != nil {
		p = m.Metrics.PartialProfile()
		if err := writeFileWith(filepath.Join(dir, "dump-profile.txt"), p.WriteText); err != nil {
			return err
		}
	}
	if p != nil || m.Trace != nil {
		err := writeFileWith(filepath.Join(dir, "dump-trace.json"), func(w io.Writer) error {
			return metrics.WriteTraceFile(w, m.Arch, p, m.Trace)
		})
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(stderr, "updown-sim: partial artifacts dumped to %s\n", dir)
	return nil
}

// writeFileWith creates path and streams write's output into it,
// returning the first error from create, write or close.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// simFlags bundles the run-shaping flags so bad values and contradictory
// combinations are rejected up front — before any graph is generated or
// machine state built — with errors naming the flags involved.
type simFlags struct {
	App                   string
	Scale, Nodes, Accels  int
	Iters, Records        int
	Rep                   int
	Spare                 bool
	CkptPath, RestorePath string
	// VictimAt is the -victim fail-stop cycle (0 = off).
	VictimAt int64
}

func (f simFlags) validate() error {
	graphApp := harness.LookupApp(f.App) != nil
	if !graphApp && f.App != "ingest" && f.App != "match" {
		return fmt.Errorf("unknown app %q", f.App)
	}
	// The figures' rule: a scale that fits in memory, positive counts, and
	// a machine (with its -spare node) whose actors a NetworkID can name.
	ar := arch.DefaultMachine(0)
	ar.AccelsPerNode = f.Accels
	machNodes := f.Nodes
	if f.Spare {
		machNodes++
	}
	if err := harness.Validate(f.Scale, 0, harness.Positive("nodes", f.Nodes), harness.Positive("accel", f.Accels),
		harness.Positive("iters", f.Iters), harness.Positive("records", f.Records), harness.Addressable(ar, machNodes)); err != nil {
		return err
	}
	if f.CkptPath != "" && f.RestorePath != "" {
		return fmt.Errorf("-checkpoint and -restore are mutually exclusive")
	}
	if (f.CkptPath != "" || f.RestorePath != "") && !graphApp {
		return fmt.Errorf("-checkpoint/-restore target the graph applications (pr|bfs|tc), not %q", f.App)
	}
	if f.Rep < 0 || f.Rep > gasmem.MaxRep {
		return fmt.Errorf("-rep %d out of range [0,%d]", f.Rep, gasmem.MaxRep)
	}
	if f.Rep > f.Nodes {
		return fmt.Errorf("-rep %d exceeds -nodes %d: not enough distinct nodes to hold the copies", f.Rep, f.Nodes)
	}
	if f.VictimAt < 0 {
		return fmt.Errorf("-victim %d: the fail-stop cycle must be positive", f.VictimAt)
	}
	if f.VictimAt > 0 {
		if f.Rep < 2 {
			return fmt.Errorf("-victim fail-stops data node %d, which loses data without replication: add -rep 2 (or higher)", f.Nodes-1)
		}
		if !f.Spare {
			return fmt.Errorf("-victim keeps application lanes off the victim node: add -spare so the machine has slack for them")
		}
		if f.Nodes < 2 {
			return fmt.Errorf("-victim needs at least 2 data nodes, got -nodes %d", f.Nodes)
		}
	}
	return nil
}

// normRep collapses the two spellings of "no replication" (0 and 1) so
// checkpoint metadata comparisons do not split on them.
func normRep(k int) int {
	if k < 1 {
		return 1
	}
	return k
}

// checkWarmStartMeta validates a restored checkpoint's machine metadata
// against this invocation's flags, so a mismatch is a named flag error
// rather than a corrupt-restore failure (or a silently different
// machine) downstream.
func checkWarmStartMeta(ws *warmStart, f simFlags) error {
	if ws.Nodes == 0 {
		return fmt.Errorf("checkpoint predates machine metadata: re-create it with this build's -checkpoint")
	}
	if ws.App != f.App {
		return fmt.Errorf("checkpoint was written for -app %s, this run has -app %s", ws.App, f.App)
	}
	if ws.Nodes != f.Nodes {
		return fmt.Errorf("checkpoint was written with -nodes %d, this run has -nodes %d", ws.Nodes, f.Nodes)
	}
	if ws.Spare != f.Spare {
		return fmt.Errorf("checkpoint was written with -spare=%v, this run has -spare=%v", ws.Spare, f.Spare)
	}
	if normRep(ws.Rep) != normRep(f.Rep) {
		return fmt.Errorf("checkpoint was written with -rep %d, this run has -rep %d", normRep(ws.Rep), normRep(f.Rep))
	}
	return nil
}

// obsFlags bundles the observability flags for validation: each analysis
// flag must have the recording it depends on, and a bad sampling interval
// is an error rather than a divide-by-zero downstream.
type obsFlags struct {
	Profile   bool
	TracePath string
	Spans     bool
	CritPath  bool
	Flows     bool
	Interval  int64
}

func (f obsFlags) validate() error {
	if f.Interval <= 0 {
		return fmt.Errorf("-metrics-interval must be positive, got %d", f.Interval)
	}
	if f.Spans && f.TracePath == "" {
		return fmt.Errorf("-spans records into the trace file: add -trace FILE")
	}
	if (f.CritPath || f.Flows) && !f.Profile && f.TracePath == "" {
		return fmt.Errorf("-critpath/-flows need a recording run: add -profile or -trace FILE")
	}
	return nil
}

// traceOptions derives the causal-tracing configuration: spans when the
// trace file should carry them, causal records when an analysis wants the
// event DAG. Nil (tracing fully off) when neither is requested.
func (f obsFlags) traceOptions() *metrics.TraceOptions {
	o := metrics.TraceOptions{Spans: f.Spans, Causal: f.CritPath || f.Flows}
	if !o.Spans && !o.Causal {
		return nil
	}
	return &o
}

func loadGraph(gvPath, nlPath, preset string, scale int, seed uint64, undirected bool) *graph.Graph {
	if gvPath != "" && nlPath != "" {
		gv, err := os.Open(gvPath)
		must(err)
		defer gv.Close()
		nl, err := os.Open(nlPath)
		must(err)
		defer nl.Close()
		g, err := graph.ReadGVNL(gv, nl)
		must(err)
		return g
	}
	g, err := graph.BuildPreset(preset, scale, seed, undirected)
	must(err)
	return g
}

// warmStart is the CLI-level checkpoint metadata riding in front of the
// machine checkpoint: which app the graph was prepared for, and the
// host-side graph handle (device addresses plus the split graph the app
// drivers walk). The graph's GAS-resident arrays travel inside the
// machine checkpoint itself.
type warmStart struct {
	App string
	DG  *graph.DeviceGraph
	// Machine shape the checkpoint was written under; a -restore with
	// different flags is rejected by checkWarmStartMeta before any state
	// is loaded. Zero Nodes marks a checkpoint from before these fields
	// existed.
	Nodes int
	Spare bool
	Rep   int
}

const cliCkptMagic = "UDCLICKP"

// codeWarmStartHead codes the head of a -checkpoint file: magic, then the
// gob of the warmStart metadata, length-prefixed because gob decoders
// buffer ahead and would otherwise eat the head of the machine checkpoint
// that follows.
func codeWarmStartHead(c *snap.Codec, meta *[]byte) {
	if !c.Magic(cliCkptMagic) {
		c.Failf("not an updown-sim checkpoint")
	}
	c.Bytes(meta, 1<<40)
}

// writeWarmStart writes the head (codeWarmStartHead), then the machine
// checkpoint.
func writeWarmStart(m *updown.Machine, path string, sf simFlags, dg *graph.DeviceGraph) error {
	var meta bytes.Buffer
	ws := &warmStart{App: sf.App, DG: dg, Nodes: sf.Nodes, Spare: sf.Spare, Rep: normRep(sf.Rep)}
	if err := gob.NewEncoder(&meta).Encode(ws); err != nil {
		return fmt.Errorf("checkpoint metadata: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	c, head := snap.NewWriter(w), meta.Bytes()
	if codeWarmStartHead(c, &head); c.Err() != nil {
		err = c.Err()
	}
	if err == nil {
		err = m.Checkpoint(w)
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return fmt.Errorf("checkpoint %s: %w", path, err)
	}
	return nil
}

// mustRestoreWarmStart loads a -checkpoint file into the freshly
// assembled machine and returns the graph handle for the app driver. The
// app recorded in the file must match -app; machine mismatches are
// rejected by Machine.Restore with a typed error before any state
// changes.
func mustRestoreWarmStart(m *updown.Machine, path string, sf simFlags) *graph.DeviceGraph {
	f, err := os.Open(path)
	must(err)
	defer f.Close()
	r := bufio.NewReader(f)
	var meta []byte
	c := snap.NewReader(r)
	if codeWarmStartHead(c, &meta); c.Err() != nil {
		must(fmt.Errorf("%s: corrupt checkpoint header: %v", path, c.Err()))
	}
	var ws warmStart
	must(gob.NewDecoder(bytes.NewReader(meta)).Decode(&ws))
	if err := checkWarmStartMeta(&ws, sf); err != nil {
		must(fmt.Errorf("%s: %v", path, err))
	}
	must(m.Restore(r))
	return ws.DG
}

// report prints the machine statistics; retired is how many shuffle tuples
// a FirstWins invocation retired at hand-off (printed only when non-zero).
func report(w io.Writer, m *updown.Machine, stats updown.Stats, elapsed updown.Cycles, retired uint64) {
	// Partial runs can leave per-app phase clocks unset or mid-phase
	// (negative); the engine's final time is always meaningful.
	if elapsed <= 0 {
		elapsed = stats.FinalTime
	}
	fmt.Fprintf(w, "simulated: %d cycles = %.6f s at 2 GHz\n", elapsed, m.Seconds(elapsed))
	fmt.Fprintf(w, "events: %d, sends: %d, DRAM: %d reads / %d writes / %d bytes\n",
		stats.Events, stats.Sends, stats.DRAMReads, stats.DRAMWrites, stats.DRAMBytes)
	fmt.Fprintf(w, "lanes touched: %d, utilization %.1f%%\n",
		stats.LanesTouched, 100*stats.Utilization())
	if stats.ShuffleTuples != 0 {
		// The packing ratio only when something crossed the network: under
		// Owner bindings every tuple can stay node-local.
		line := fmt.Sprintf("shuffle: %d tuples in %d messages", stats.ShuffleTuples, stats.ShuffleMsgs)
		if stats.ShuffleMsgs > 0 {
			line += fmt.Sprintf(" (%.2f tup/msg)", float64(stats.ShuffleTuples)/float64(stats.ShuffleMsgs))
		}
		if retired > 0 {
			line += fmt.Sprintf(", %d retired at hand-off", retired)
		}
		fmt.Fprintln(w, line)
	}
	if !stats.Faults.Zero() {
		fmt.Fprintf(w, "faults: %s\n", stats.Faults)
	}
}

// digest is an order-sensitive FNV-1a fold over the result words; two runs
// print the same checksum iff their application results are bit-identical.
func digest(vals ...uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	return h.Sum64()
}
