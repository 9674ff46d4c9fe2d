package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds: how long one measured run
// keeps repeating its workload.
const runSeconds = 20

// minSetups is how many cold set-ups every measured run times, so setup_s
// is a median even on workloads whose timed region runs once.
const minSetups = 3

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind Value; Samples holds them for host
	// metrics (per repetition) so `bench compare` can judge spread.
	N       int       `json:"n,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
	Note    string    `json:"note,omitempty"`
}

// passResult is the outcome of one pass (measured or traced) of one
// workload: what a child process hands back to the runner.
type passResult struct {
	Workload    string                 `json:"workload"`
	Traced      bool                   `json:"traced"`
	Sizes       string                 `json:"sizes"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Fingerprint string                 `json:"sim_fingerprint"`
	Metrics     map[string]metricValue `json:"metrics"`
	Notes       []string               `json:"notes,omitempty"`
	SelfTimes   []selfTime             `json:"self_times,omitempty"`
	Spans       []span                 `json:"spans,omitempty"`
	Provenance  provenance             `json:"provenance"`
}

func (p *passResult) set(name string, v float64) { p.setN(name, v, 0, nil, "") }

func (p *passResult) setN(name string, v float64, n int, samples []float64, note string) {
	d := defByName(name)
	if d == nil {
		panic("bench: metric " + name + " is not in the registry")
	}
	if d.On != nil && !contains(d.On, p.Workload) {
		return // complete reports it as not measured here
	}
	p.Metrics[name] = metricValue{Value: v, Unit: d.Unit, N: n, Samples: samples, Note: note}
}

func (p *passResult) notef(format string, args ...any) {
	p.Notes = append(p.Notes, fmt.Sprintf(format, args...))
}

func fpString(fps []uint64) string {
	h := newFNV()
	h.add(fps...)
	return fmt.Sprintf("%016x", uint64(h))
}

func samePrefix(a, b []uint64) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func newPass(workload string, traced bool, sz sizes, seed uint64) *passResult {
	return &passResult{Workload: workload, Traced: traced, Sizes: sz.Name, Correct: true,
		Metrics: map[string]metricValue{}, Provenance: readProvenance(seed)}
}

// latencyMetrics fills sim_p50_ms / sim_p95_ms from sojourn latencies,
// flagging figures that rest on too few samples.
func (p *passResult) latencyMetrics(lat []float64) {
	for _, q := range []struct {
		name string
		p    float64
	}{{"sim_p50_ms", 50}, {"sim_p95_ms", 95}} {
		v, ok := percentile(lat, q.p)
		note := ""
		if !ok {
			note = fmt.Sprintf("indicative only: fewer than %d samples beyond it", minBeyond)
		}
		p.setN(q.name, v, len(lat), nil, note)
	}
}

// endToEnd fills the eight end-to-end metrics from a run's repetitions
// (sim values from the first; they are identical across repetitions).
func (p *passResult) endToEnd(setups, runs []float64, r *rep) {
	p.setN("setup_s", median(setups), len(setups), setups, "")
	p.setN("run_wall_s", median(runs), len(runs), runs, "")
	p.set("sim_cycles", r.simCycles)
	p.set("sim_throughput", r.throughput)
	p.latencyMetrics(r.lat)
	if r.sloOffered > 0 {
		p.setN("slo_miss_frac", float64(r.sloMiss)/float64(r.sloOffered), r.sloOffered, nil, "")
	}
	p.set("fail_frac", float64(p.Failed)/float64(p.Attempted))
}

// measuredPass runs the workload with tracing and recorders off: cold
// set-up plus timed region, repeated until the time budget is spent.
func measuredPass(name string, sz sizes, seed uint64, seconds float64) (*passResult, error) {
	p := newPass(name, false, sz, seed)
	w := workloadByName(name)
	run := w.Run
	c := &runCtx{sz: sz, seed: seed, shards: 1}
	var first *rep
	var setups, runs []float64
	reps, setupsWanted := w.MinReps, minSetups
	if sz.Name == "quick" {
		reps, setupsWanted = 1, 1
	}
	start := time.Now()
	for {
		t := time.Now()
		r, err := run(c)
		if err != nil {
			return nil, err
		}
		last := time.Since(t).Seconds()
		setups = append(setups, r.setupS)
		runs = append(runs, r.runS)
		p.Attempted += r.attempted
		p.Failed += r.failed
		if first == nil {
			first, p.Notes = r, r.notes
		} else if fpString(r.fps) != fpString(first.fps) {
			p.Correct = false
			p.notef("repetition %d: simulated fingerprint %s differs from the first (%s): the simulation is not deterministic",
				len(runs), fpString(r.fps), fpString(first.fps))
		}
		// Another repetition only if it is expected to fit the budget.
		if len(runs) >= reps && time.Since(start).Seconds()+last > seconds {
			break
		}
	}
	c.setupOnly = true
	for len(setups) < setupsWanted {
		r, err := run(c)
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.setupS)
	}
	if p.Failed > 0 {
		p.Correct = false
	}
	p.Fingerprint = fpString(first.fps)
	p.endToEnd(setups, runs, first)
	return p, nil
}

// tracedPass gives the per-layer numbers: one untraced reference
// repetition (counts, host usage, the fingerprint to reproduce), one
// repetition under the benchmark's spans with the program's recorder on,
// bfs_batch once more at shards = nproc, then the layer probes.
func tracedPass(name string, sz sizes, seed uint64) (*passResult, error) {
	p := newPass(name, true, sz, seed)
	run := workloadByName(name).Run
	ref, err := run(&runCtx{sz: sz, seed: seed, shards: 1})
	if err != nil {
		return nil, err
	}
	p.Attempted, p.Failed, p.Notes = ref.attempted, ref.failed, ref.notes
	p.Fingerprint = fpString(ref.fps)

	tr := newTracer(name)
	c := &runCtx{sz: sz, seed: seed, shards: 1, tr: tr, recorder: true, loOnly: name == wServe}
	traced, err := run(c)
	if err != nil {
		return nil, err
	}
	if !samePrefix(traced.fps, ref.fps) {
		p.Correct = false
		p.notef("traced repetition's simulated fingerprint differs from the untraced one: observation perturbed the simulation")
	}

	// Span-derived host times of the traced repetition.
	for metric, spanName := range map[string]string{
		"graph.gen_s": "graph.gen", "graph.split_s": "graph.split", "baseline.ref_s": "baseline.ref",
		"updown.new_s": "updown.new", "gasmem.load_s": "gasmem.load", "apps.new_s": "apps.new",
		"updown.checkpoint_s": "updown.checkpoint",
	} {
		p.set(metric, tr.total(spanName))
	}
	p.set("apps.validate_s", tr.total("apps.validate")+tr.total("serve.validate")+tr.total("sched.validate"))
	p.set("apps.run_s", traced.runS)
	refRun, tracedRun := ref.runS, traced.runS
	if name == wServe { // the traced repetition serves the lo rate only
		refRun, tracedRun = ref.layer["serve.run_s_lo"], traced.layer["serve.run_s_lo"]
		restoreS := tr.total("updown.restore") // one Restore: one rate
		mb := ref.layer["updown.snapshot_mb"]
		p.set("updown.restore_s", restoreS)
		p.set("updown.checkpoint_mb_per_s", mb/tr.total("updown.checkpoint"))
		p.set("updown.restore_mb_per_s", mb/restoreS)
	}
	p.set("metrics.trace_overhead_pct", 100*(tracedRun/refRun-1))
	if s := tr.total("gasmem.load"); s > 0 {
		p.set("gasmem.load_mb_per_s", traced.layer["gasmem.load_bytes"]/1e6/s)
	}
	for _, k := range []string{"dram.util_pct", "sim.imbalance"} {
		p.set(k, traced.layer[k])
	}

	// Counts, sizes and host usage of the untraced reference repetition.
	st := ref.stats
	ev := float64(st.Events)
	p.set("sim.events", ev)
	p.set("sim.sends", float64(st.Sends))
	p.set("sim.busy_cycles", float64(st.BusyCycles))
	p.set("sim.lanes_touched", float64(st.LanesTouched))
	p.set("sim.mev_per_s", ev/ref.runS/1e6)
	p.set("sim.ns_per_event", 1e9*ref.runS/ev)
	p.set("kvmsr.shuffle_tuples", float64(st.ShuffleTuples))
	p.set("kvmsr.shuffle_msgs", float64(st.ShuffleMsgs))
	p.set("kvmsr.tuples_per_msg", ratio(float64(st.ShuffleTuples), float64(st.ShuffleMsgs)))
	p.set("dram.reads", float64(st.DRAMReads))
	p.set("dram.writes", float64(st.DRAMWrites))
	p.set("dram.bytes", float64(st.DRAMBytes))
	p.set("dram.bytes_per_event", float64(st.DRAMBytes)/ev)
	p.set("host.alloc_mb", ref.host.AllocMB)
	p.set("host.allocs_per_kev", 1e3*ref.host.Mallocs/ev)
	p.set("host.gc_cycles", ref.host.GCCycles)
	p.set("host.gc_pause_ms", ref.host.GCPauseMs)
	p.set("host.peak_rss_mb", ref.host.PeakRSSMB)
	p.set("host.user_cpu_s", ref.host.UserCPUs)
	for k, v := range ref.layer {
		if defByName(k) != nil {
			p.set(k, v)
		}
	}
	p.set("fail_frac", float64(ref.failed)/float64(ref.attempted))
	if ref.sloOffered > 0 {
		p.set("slo_miss_frac", float64(ref.sloMiss)/float64(ref.sloOffered))
	}

	if name == wBFS {
		nproc := runtime.GOMAXPROCS(0)
		var par *rep
		c.span("rep.shards_nproc", func() { par, err = run(&runCtx{sz: sz, seed: seed, shards: nproc}) })
		if err != nil {
			return nil, err
		}
		if !samePrefix(par.fps, ref.fps) {
			p.Correct = false
			p.notef("shards=%d repetition's simulated fingerprint differs from shards=1: sharding perturbed the simulation", nproc)
		}
		p.setN("sim.par_speedup", ref.runS/par.runS, 1, nil, fmt.Sprintf("shards %d", nproc))
	}

	probes, err := runProbes(c)
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		p.set(k, v)
	}
	if p.Failed > 0 {
		p.Correct = false
	}
	p.Spans = tr.spans
	p.SelfTimes = selfTimes(tr.spans)
	return p, nil
}

// complete checks that the pass reports every metric of its class exactly
// once with a finite value; metrics a workload does not measure read 0.
func (p *passResult) complete() error {
	for _, d := range metricDefs {
		// The measured pass owes the eight end-to-end metrics, the traced
		// pass everything BENCHMARK.json lists under per_layer.
		owed := d.E2E
		if p.Traced {
			owed = !d.gated()
		}
		if !owed {
			continue
		}
		v, ok := p.Metrics[d.Name]
		if !ok {
			if d.On != nil && !contains(d.On, p.Workload) {
				p.Metrics[d.Name] = metricValue{Unit: d.Unit, Note: "not measured on this workload"}
				continue
			}
			return fmt.Errorf("bench: %s pass of %s did not report %s", passName(p.Traced), p.Workload, d.Name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("bench: %s on %s is not finite (%v)", d.Name, p.Workload, v.Value)
		}
	}
	return nil
}

// ratio is a/b, 0 when b is 0 (nothing happened, so there is no rate).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func contains(s []string, x string) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

func passName(traced bool) string {
	if traced {
		return "traced"
	}
	return "measured"
}

const accuracyNote = "accuracy: functional outputs are validated against internal/baseline and pagerank.RefScores; " +
	"the timing model is unvalidated against hardware or the paper's Fastsim (no reference cycle counts in the repo), so no error figure is given"

// print writes every metric by name with its unit, then the notes.
func (p *passResult) print(w *strings.Builder) {
	fmt.Fprintf(w, "== %s  %s pass  sizes=%s seed=%d  fingerprint=%s  correct=%v (%d failed of %d)\n",
		p.Workload, passName(p.Traced), p.Sizes, p.Provenance.Seed, p.Fingerprint, p.Correct, p.Failed, p.Attempted)
	for _, d := range metricDefs {
		v, ok := p.Metrics[d.Name]
		if !ok {
			continue
		}
		extra := ""
		if v.N > 0 {
			extra = fmt.Sprintf("  n=%d", v.N)
		}
		if v.Note != "" {
			extra += "  (" + v.Note + ")"
		}
		fmt.Fprintf(w, "  %-36s %16.6g %-8s [%s clock]%s\n", d.Name, v.Value, v.Unit, d.Clock, extra)
	}
	if len(p.SelfTimes) > 0 {
		fmt.Fprintf(w, "  layer self times of the traced repetition (span minus child coverage):\n")
		for _, s := range p.SelfTimes {
			fmt.Fprintf(w, "    %-24s calls=%-4d total=%9.4fs self=%9.4fs\n", s.Name, s.Calls, s.Total, s.Self)
		}
	}
	for _, n := range p.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}
