// Package match implements the paper's partial-match streaming application
// (Section 5.2.4, Figure 11): records are received from the network,
// inserted into the streaming graph, and incrementally evaluated against a
// set of registered patterns; the metric is the latency from record
// arrival to the completion of its ingestion and pattern evaluation.
//
// Patterns are typed-edge paths. The partial-match state lives in a
// scalable hash table keyed by vertex: a bitmask recording, per pattern,
// the longest prefix of the pattern that ends at that vertex. An arriving
// edge (u -> v, type t) extends every prefix at u whose next type is t,
// either producing a full match or advancing the state at v — the
// SHT-based incremental evaluation the paper builds on its ingestion
// capabilities.
package match

import (
	"fmt"

	"updown"
	"updown/internal/arch"
	"updown/internal/collections"
	"updown/internal/gasmem"
	"updown/internal/kvmsr"
	"updown/internal/sim"
	"updown/internal/tform"
	"updown/internal/udweave"
)

// MaxPatterns and MaxStages bound the bitmask encoding (8x8 = 64 bits).
const (
	MaxPatterns = 8
	MaxStages   = 7
)

// Pattern is a typed-edge path: Types[i] is the required type of the
// pattern's i-th edge.
type Pattern struct {
	Types []uint64
}

// Config selects run parameters.
type Config struct {
	// Lanes is the processing lane set; Figure 11 scales it from an
	// eighth of a node to four nodes.
	Lanes kvmsr.LaneSet
	// Interarrival is the cycle gap between streamed records (source
	// rate).
	Interarrival updown.Cycles
}

// The partial-state SHT holds 8 entries per bucket and 32 buckets per lane.
const stateEB, stateBL = 8, 32

// App is a partial-match program instance.
type App struct {
	m        *updown.Machine
	cfg      Config
	patterns []Pattern

	PG      *collections.ParallelGraph
	partial *collections.SHT

	matchesVA gasmem.VA
	latSumVA  gasmem.VA
	doneVA    gasmem.VA

	lRecord  udweave.Label
	lIngAck  udweave.Label
	lMask    udweave.Label
	lStatAck udweave.Label

	records []tform.Record
	source  *streamSource
}

// recState tracks one record's processing.
type recState struct {
	u, v, t uint64
	arrive  uint64
	pending int
	gotMask bool
}

// New registers the program; records are streamed at the configured rate.
func New(m *updown.Machine, records []tform.Record, patterns []Pattern, cfg Config) (*App, error) {
	if cfg.Lanes.Count == 0 {
		cfg.Lanes = kvmsr.AllLanes(m.Arch)
	}
	if cfg.Interarrival <= 0 {
		cfg.Interarrival = 50
	}
	if len(patterns) == 0 || len(patterns) > MaxPatterns {
		return nil, fmt.Errorf("match: need 1..%d patterns, got %d", MaxPatterns, len(patterns))
	}
	for i, p := range patterns {
		if len(p.Types) == 0 || len(p.Types) > MaxStages {
			return nil, fmt.Errorf("match: pattern %d has %d stages (max %d)", i, len(p.Types), MaxStages)
		}
	}
	a := &App{m: m, cfg: cfg, patterns: patterns, records: records}
	p := m.Prog
	var err error
	a.PG, err = collections.NewParallelGraph(p, "match.pga", cfg.Lanes)
	if err != nil {
		return nil, err
	}
	a.partial, err = collections.NewSHT(p, collections.SHTConfig{
		Name: "match.state", Lanes: cfg.Lanes,
		BucketsPerLane: stateBL, EntriesPerBucket: stateEB,
	})
	if err != nil {
		return nil, err
	}
	gas := m.GAS
	if err := a.PG.Alloc(gas); err != nil {
		return nil, err
	}
	if err := a.partial.Alloc(gas); err != nil {
		return nil, err
	}
	statsVA, err := gas.DRAMmalloc(4096, 0, 1, 4096)
	if err != nil {
		return nil, err
	}
	a.matchesVA = statsVA
	a.latSumVA = statsVA + 8
	a.doneVA = statsVA + 16

	a.lRecord = p.Define("match.record", a.record)
	a.lIngAck = p.Define("match.ing_ack", a.ingAck)
	a.lMask = p.Define("match.mask", a.mask)
	a.lStatAck = p.Define("match.stat_ack", a.statAck)
	return a, nil
}

// Run streams all records and simulates to quiescence.
func (a *App) Run() (updown.Stats, error) {
	a.source = &streamSource{app: a}
	id := a.m.Engine.AddActor(a.source)
	a.source.self = id
	a.m.Engine.Post(0, id, arch.KindControl, 0, udweave.IGNRCONT)
	return a.m.Run()
}

// Matches returns the number of pattern matches detected (post-run).
func (a *App) Matches() uint64 { return a.m.GAS.ReadU64(a.matchesVA) }

// Processed returns the number of fully processed records.
func (a *App) Processed() uint64 { return a.m.GAS.ReadU64(a.doneVA) }

// AvgLatency returns the mean record-arrival-to-decision latency in
// cycles.
func (a *App) AvgLatency() float64 {
	n := a.Processed()
	if n == 0 {
		return 0
	}
	return float64(a.m.GAS.ReadU64(a.latSumVA)) / float64(n)
}

// streamSource is the network: it injects one record event per
// interarrival period, round-robining the dispatch lane.
type streamSource struct {
	app  *App
	self arch.NetworkID
	next int
}

// OnMessage implements sim.Actor.
func (s *streamSource) OnMessage(env *sim.Env, m *sim.Message) {
	a := s.app
	if s.next >= len(a.records) {
		return
	}
	r := a.records[s.next]
	lane := a.cfg.Lanes.First + arch.NetworkID(s.next%a.cfg.Lanes.Count)
	s.next++
	env.Charge(2)
	env.Send(lane, arch.KindEvent, udweave.EvwNew(lane, a.lRecord), udweave.IGNRCONT,
		r[tform.FSrc], r[tform.FDst], r[tform.FType], uint64(env.Now()))
	if s.next < len(a.records) {
		env.SendAfter(a.cfg.Interarrival, s.self, arch.KindControl, 0, udweave.IGNRCONT)
	}
}

// record begins processing one streamed record: ingest it and fetch the
// partial-match state at its source vertex.
func (a *App) record(c *updown.Ctx) {
	st := &recState{u: c.Op(0), v: c.Op(1), t: c.Op(2), arrive: c.Op(3), pending: 1}
	c.SetState(st)
	c.Cycles(8)
	a.PG.Insert(c, st.u, st.v, st.t, c.ContinueTo(a.lIngAck))
	a.partial.Get(c, st.u, c.ContinueTo(a.lMask))
}

// mask evaluates the patterns against the state at u.
func (a *App) mask(c *updown.Ctx) {
	st := c.State().(*recState)
	st.gotMask = true
	var uMask uint64
	if c.Op(0) == 1 {
		uMask = c.Op(1)
	}
	var newBits, matches uint64
	c.Cycles(4 * len(a.patterns))
	for pi, p := range a.patterns {
		// A fresh prefix: the edge starts the pattern.
		if p.Types[0] == st.t {
			if len(p.Types) == 1 {
				matches++
			} else {
				newBits |= 1 << (uint(pi)*8 + 1)
			}
		}
		// Extensions of prefixes ending at u.
		for s := 1; s < len(p.Types); s++ {
			if uMask&(1<<(uint(pi)*8+uint(s))) == 0 || p.Types[s] != st.t {
				continue
			}
			if s+1 == len(p.Types) {
				matches++
			} else {
				newBits |= 1 << (uint(pi)*8 + uint(s) + 1)
			}
		}
	}
	ack := c.ContinueTo(a.lStatAck)
	if matches > 0 {
		st.pending++
		c.DRAMFetchAdd(a.matchesVA, matches, ack)
	}
	if newBits != 0 {
		st.pending++
		a.partial.Or(c, st.v, newBits, ack)
	}
	a.maybeFinish(c, st)
}

func (a *App) ingAck(c *updown.Ctx) {
	st := c.State().(*recState)
	st.pending--
	c.Cycles(2)
	a.maybeFinish(c, st)
}

func (a *App) statAck(c *updown.Ctx) {
	st := c.State().(*recState)
	st.pending--
	c.Cycles(2)
	a.maybeFinish(c, st)
}

// maybeFinish records the decision latency once ingestion and evaluation
// have both completed.
func (a *App) maybeFinish(c *updown.Ctx, st *recState) {
	if st.pending != 0 || !st.gotMask {
		return
	}
	st.pending = -1 // guard against re-entry
	lat := uint64(c.Now()) - st.arrive
	c.Cycles(4)
	c.DRAMFetchAdd(a.latSumVA, lat, udweave.IGNRCONT)
	c.DRAMFetchAdd(a.doneVA, 1, udweave.IGNRCONT)
	c.YieldTerminate()
}

// Oracle replays the incremental evaluation sequentially on the host and
// returns the expected match count: with a stream slower than the
// processing pipeline, the simulation must agree exactly.
func Oracle(records []tform.Record, patterns []Pattern) uint64 {
	state := map[uint64]uint64{}
	var matches uint64
	for _, r := range records {
		u, v, t := r[tform.FSrc], r[tform.FDst], r[tform.FType]
		uMask := state[u]
		var newBits uint64
		for pi, p := range patterns {
			if p.Types[0] == t {
				if len(p.Types) == 1 {
					matches++
				} else {
					newBits |= 1 << (uint(pi)*8 + 1)
				}
			}
			for s := 1; s < len(p.Types); s++ {
				if uMask&(1<<(uint(pi)*8+uint(s))) == 0 || p.Types[s] != t {
					continue
				}
				if s+1 == len(p.Types) {
					matches++
				} else {
					newBits |= 1 << (uint(pi)*8 + uint(s) + 1)
				}
			}
		}
		if newBits != 0 {
			state[v] |= newBits
		}
	}
	return matches
}
