package main

import (
	"fmt"
	"runtime"
	"time"

	"updown"
	"updown/internal/apps/pagerank"
	"updown/internal/arch"
	"updown/internal/gasmem"
	"updown/internal/graph"
	"updown/internal/kvmsr"
	"updown/internal/metrics"
	"updown/internal/prng"
	"updown/internal/sim"
)

// Layer-isolation probes: each drives one layer through its public entry
// points with everything above it absent, so a per-event cost can be put
// beside the whole-stack sim.ns_per_event. They do not depend on the
// workload and run once per traced pass.

const (
	stormNodes = 8
	stormLanes = 8 // per node, on accelerator 0: 64 lanes in all
)

// stormNext is the storm's routing rule, shared by the bare-engine and
// the udweave variant: every hop goes to a lane on the next node, so all
// traffic crosses node (and shard) boundaries.
func stormNext(m *arch.Machine, self arch.NetworkID) arch.NetworkID {
	return m.LaneID((m.NodeOf(self)+1)%m.Nodes, 0, (m.LaneOf(self)+3)%stormLanes)
}

type stormActor struct{}

func (stormActor) OnMessage(env *sim.Env, msg *sim.Message) {
	env.Charge(10)
	if msg.Ops[0] > 0 {
		env.Send(stormNext(env.Machine(), env.Self()), arch.KindEvent, 0, 0, msg.Ops[0]-1)
	}
}

// simStorm runs the bare-engine storm and returns host ns per event.
func simStorm(shards, hops int) (float64, error) {
	m := arch.DefaultMachine(stormNodes)
	e, err := sim.NewEngine(m, sim.Options{Shards: shards})
	if err != nil {
		return 0, err
	}
	for n := 0; n < stormNodes; n++ {
		for l := 0; l < stormLanes; l++ {
			id := m.LaneID(n, 0, l)
			e.SetActor(id, stormActor{})
			e.Post(arch.Cycles(int(id)%13), id, arch.KindEvent, 0, 0, uint64(hops))
		}
	}
	t := time.Now()
	stats, err := e.Run()
	wall := time.Since(t)
	if err != nil {
		return 0, err
	}
	if want := int64(stormNodes * stormLanes * (hops + 1)); stats.Events != want {
		return 0, fmt.Errorf("sim storm probe: %d events, want %d", stats.Events, want)
	}
	return float64(wall.Nanoseconds()) / float64(stats.Events), nil
}

// udweaveStorm runs the same storm as UDWeave SendEvent hops on a machine
// assembled by updown.New.
func udweaveStorm(hops int) (float64, error) {
	m, err := updown.New(updown.Config{Nodes: stormNodes, Shards: 1})
	if err != nil {
		return 0, err
	}
	var hop updown.Label
	hop = m.Prog.Define("probe_hop", func(c *updown.Ctx) {
		if n := c.Op(0); n > 0 {
			c.SendEvent(updown.EvwNew(stormNext(&m.Arch, c.NetworkID()), hop), updown.IGNRCONT, n-1)
		}
		c.YieldTerminate()
	})
	for n := 0; n < stormNodes; n++ {
		for l := 0; l < stormLanes; l++ {
			id := m.Arch.LaneID(n, 0, l)
			m.StartAt(updown.Cycles(int(id)%13), updown.EvwNew(id, hop), uint64(hops))
		}
	}
	t := time.Now()
	stats, err := m.Run()
	wall := time.Since(t)
	if err != nil {
		return 0, err
	}
	if want := int64(stormNodes * stormLanes * (hops + 1)); stats.Events != want {
		return 0, fmt.Errorf("udweave storm probe: %d events, want %d", stats.Events, want)
	}
	return float64(wall.Nanoseconds()) / float64(stats.Events), nil
}

// udweaveCyclesPerEvent is the Table 2 microbenchmark: a chain of minimal
// events on one lane (thread create + dispatch + send + terminate).
func udweaveCyclesPerEvent() (float64, error) {
	m, err := updown.New(updown.Config{Nodes: 1, Shards: 1})
	if err != nil {
		return 0, err
	}
	const hops = 10000
	var hop updown.Label
	hop = m.Prog.Define("probe_chain", func(c *updown.Ctx) {
		if c.Op(0) > 0 {
			c.SendEvent(updown.EvwNew(c.NetworkID(), hop), updown.IGNRCONT, c.Op(0)-1)
		}
		c.YieldTerminate()
	})
	m.Start(updown.EvwNew(0, hop), hops)
	stats, err := m.Run()
	if err != nil {
		return 0, err
	}
	return float64(stats.FinalTime) / hops, nil
}

// kvmsrShuffle is the synthetic invocation: every key's map task emits
// one tuple to a scattered key and returns; the reduce task only counts.
// No DRAM is touched, so what remains is the library: broadcast, task
// pump, shuffle, termination detection.
func kvmsrShuffle(keys int, coal *kvmsr.Coalesce) (nsPerTuple, eventsPerTuple, cycles float64, err error) {
	m, err := updown.New(updown.Config{Nodes: 4, Shards: 1, MaxTime: maxSimCycles, Coalesce: coal})
	if err != nil {
		return 0, 0, 0, err
	}
	var inv *kvmsr.Invocation
	reduced := 0
	mapEv := m.Prog.Define("probe_map", func(c *updown.Ctx) {
		inv.Emit(c, prng.Mix64(c.Op(0)), 1)
		inv.Return(c, c.Cont())
		c.YieldTerminate()
	})
	redEv := m.Prog.Define("probe_reduce", func(c *updown.Ctx) {
		reduced++ // shards 1: handlers run on this goroutine
		inv.ReduceDone(c)
		c.YieldTerminate()
	})
	inv = kvmsr.MustNew(m.Prog, kvmsr.Spec{Name: "probe", NumKeys: uint64(keys), MapEvent: mapEv,
		ReduceEvent: redEv, Lanes: kvmsr.AllLanes(m.Arch), Coalesce: m.Coalesce})
	m.Start(inv.LaunchEvw(), uint64(keys))
	t := time.Now()
	stats, err := m.Run()
	wall := time.Since(t)
	if err != nil {
		return 0, 0, 0, err
	}
	if reduced != keys {
		return 0, 0, 0, fmt.Errorf("kvmsr probe: %d tuples reduced, want %d", reduced, keys)
	}
	return float64(wall.Nanoseconds()) / float64(keys), float64(stats.Events) / float64(keys), float64(stats.FinalTime), nil
}

// kvmsrLaunchOverhead is the fixed cost of one invocation: an empty doAll
// over 4 nodes (BenchmarkKVMSROverhead).
func kvmsrLaunchOverhead() (float64, error) {
	m, err := updown.New(updown.Config{Nodes: 4, Shards: 1})
	if err != nil {
		return 0, err
	}
	var inv *kvmsr.Invocation
	body := m.Prog.Define("probe_noop", func(c *updown.Ctx) {
		inv.Return(c, c.Cont())
		c.YieldTerminate()
	})
	inv = kvmsr.MustNew(m.Prog, kvmsr.Spec{Name: "probe_empty", MapEvent: body, Lanes: kvmsr.AllLanes(m.Arch)})
	m.Start(inv.LaunchEvw(), 0)
	stats, err := m.Run()
	return float64(stats.FinalTime), err
}

// translateProbe times GAS.Translate over seeded random addresses spread
// over 16 striped regions (so the region search is not a one-entry case).
func translateProbe(seed uint64) (float64, error) {
	const regions, regionBytes, lookups = 16, 1 << 20, 2_000_000
	g := gasmem.New(4, arch.DefaultMachine(4).DRAMBytesPerNode)
	bases := make([]gasmem.VA, regions)
	for i := range bases {
		va, err := g.DRAMmalloc(regionBytes, 0, 4, 32<<10)
		if err != nil {
			return 0, err
		}
		bases[i] = va
	}
	rng := prng.NewStream(seed)
	vas := make([]gasmem.VA, 4096)
	for i := range vas {
		vas[i] = bases[rng.Intn(regions)] + rng.Uint64n(regionBytes/gasmem.WordBytes)*gasmem.WordBytes
	}
	var sink uint64
	t := time.Now()
	for i := 0; i < lookups; i++ {
		node, phys := g.Translate(vas[i%len(vas)])
		sink += uint64(node) + phys
	}
	ns := float64(time.Since(t).Nanoseconds()) / lookups
	if sink == 0 {
		return 0, fmt.Errorf("translate probe: no address resolved")
	}
	return ns, nil
}

// observabilityProbe runs one PageRank point three ways — plain, with the
// metrics recorder, with causal tracing — and returns the two overheads
// and the critical-path share. Causal tracing costs several times the
// plain wall at workload scale, which is why it stays in this side probe.
func observabilityProbe(scale int, seed uint64) (recorderPct, causalPct, critPct float64, err error) {
	g := rmatGraph(scale, seed, true)
	split := graph.SplitWith(g, graph.SplitOptions{MaxDeg: 64, Seed: graph.DefaultShuffleSeed, SpreadInEdges: true})
	run := func(mo *metrics.Options, to *metrics.TraceOptions) (float64, *updown.Machine, error) {
		m, err := updown.New(updown.Config{Nodes: prNodes, Shards: 1, MaxTime: maxSimCycles, Metrics: mo, Trace: to})
		if err != nil {
			return 0, nil, err
		}
		dg, err := graph.LoadToGAS(m.GAS, split, graph.DefaultPlacement(prNodes))
		if err != nil {
			return 0, nil, err
		}
		app, err := pagerank.New(m, dg, pagerank.Config{})
		if err != nil {
			return 0, nil, err
		}
		app.InitValues()
		t := time.Now()
		_, err = app.Run()
		return time.Since(t).Seconds(), m, err
	}
	plain, _, err := run(nil, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	rec, _, err := run(&metrics.Options{}, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	causal, m, err := run(nil, &metrics.TraceOptions{Causal: true})
	if err != nil {
		return 0, 0, 0, err
	}
	return 100 * (rec/plain - 1), 100 * (causal/plain - 1), 100 * m.Trace.CriticalPath().CritPct(), nil
}

// medianOf runs f n times and returns the median of its results.
func medianOf(n int, f func() (float64, error)) (float64, error) {
	v := make([]float64, n)
	for i := range v {
		var err error
		if v[i], err = f(); err != nil {
			return 0, err
		}
	}
	return median(v), nil
}

// runProbes runs every probe and returns its per-layer metrics.
func runProbes(c *runCtx) (map[string]float64, error) {
	defer c.tr.begin("probes")()
	out := map[string]float64{}
	var err error
	fail := func(e error) {
		if err == nil {
			err = e
		}
	}
	nproc := runtime.GOMAXPROCS(0)
	c.span("probe.sim", func() {
		s1, e := medianOf(c.sz.ProbeReps, func() (float64, error) { return simStorm(1, c.sz.ProbeHops) })
		fail(e)
		sn, e := medianOf(c.sz.ProbeReps, func() (float64, error) { return simStorm(nproc, c.sz.ProbeHops) })
		fail(e)
		out["sim.probe_ns_per_event"] = s1
		if sn > 0 {
			out["sim.probe_par_speedup"] = s1 / sn
		}
	})
	c.span("probe.udweave", func() {
		u, e := medianOf(c.sz.ProbeReps, func() (float64, error) { return udweaveStorm(c.sz.ProbeHops) })
		fail(e)
		out["udweave.probe_ns_per_event"] = u - out["sim.probe_ns_per_event"]
		out["udweave.probe_cycles_per_event"], e = udweaveCyclesPerEvent()
		fail(e)
	})
	c.span("probe.kvmsr", func() {
		ns, ev, cyc, e := kvmsrShuffle(c.sz.ProbeKeys, nil)
		fail(e)
		out["kvmsr.probe_ns_per_tuple_classic"] = ns
		out["kvmsr.probe_events_per_tuple"] = ev
		out["kvmsr.probe_cycles_classic"] = cyc
		ns, _, cyc, e = kvmsrShuffle(c.sz.ProbeKeys, &kvmsr.Coalesce{})
		fail(e)
		out["kvmsr.probe_ns_per_tuple_coalesced"] = ns
		out["kvmsr.probe_cycles_coalesced"] = cyc
		out["kvmsr.launch_overhead_cycles"], e = kvmsrLaunchOverhead()
		fail(e)
	})
	c.span("probe.gasmem", func() {
		var e error
		out["gasmem.probe_translate_ns"], e = translateProbe(c.seed)
		fail(e)
	})
	c.span("probe.metrics", func() {
		var e error
		out["metrics.recorder_overhead_pct"], out["metrics.causal_overhead_pct"], out["metrics.crit_pct"], e =
			observabilityProbe(c.sz.ObsScale, c.seed)
		fail(e)
	})
	return out, err
}
