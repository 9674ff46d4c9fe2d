// Package serve is the interactive query-serving layer: it keeps one
// warm machine resident — graph loaded, KVMSR point engines built — and
// drives an open-loop stream of point queries (BFS reachability,
// personalized PageRank) through it, measuring queries/sec and tail
// latency instead of batch makespan.
//
// The serving loop runs on the scheduler's Pacer: host admission, launch
// and harvest decisions all happen at fixed quantum boundaries of
// simulated time and read only in-simulation done stamps, so the
// interleaving of arrivals and execution is a pure function of the
// schedule and the quantum — results and latencies are byte-identical at
// any shard count.
//
// Admission is continuous and per slot. A point engine runs each query as
// an independent round chain on the query's own lane slice (see pointq),
// so at every boundary the server resolves and recycles whichever
// in-flight queries have finished and seeds queued ones into free slots,
// off the slices another kind's queries are running on while it can; no
// query waits for the others it was launched with, and a kind's next
// queries do not wait for its previous ones. MaxBatch caps
// the queries a kind has in flight and FuseWindow holds a partly filled
// launch back for late joiners. Query descriptors live in the caller's
// schedule slice and every server-side list is preallocated, so the
// steady-state loop does not allocate per query.
package serve

import (
	"errors"
	"fmt"
	"slices"

	"updown"
	"updown/internal/apps/bfs"
	"updown/internal/apps/pagerank"
	"updown/internal/apps/pointq"
	"updown/internal/sched"
	"updown/internal/telemetry"
)

// Kind selects the point engine a query runs on.
type Kind uint8

const (
	KindBFS Kind = iota
	KindPPR
	numKinds
)

// String names the kind for telemetry labels.
func (k Kind) String() string {
	if k == KindBFS {
		return "bfs"
	}
	return "ppr"
}

// State is a query descriptor's lifecycle position.
type State uint8

const (
	// Waiting: not yet arrived (relative to the simulated clock).
	Waiting State = iota
	// Queued: arrived, in the waiting room.
	Queued
	// Inflight: seeded into an engine slot and posted.
	Inflight
	// Resolved: answered; Result/Done are valid.
	Resolved
	// Shed: dropped at admission because the waiting room was full.
	Shed
)

// Query is one point-query descriptor. The caller fills Kind, Src, Tgt
// and Arrive; the server fills the rest in place — descriptors are never
// copied or reallocated while serving.
type Query struct {
	Kind   Kind
	Src    uint32
	Tgt    uint32
	Arrive updown.Cycles

	// Start is the cycle the query's slot was posted; Done is the
	// in-simulation cycle its slot resolved. Latency is Done-Arrive.
	Start updown.Cycles
	Done  updown.Cycles
	// Slot is the engine slot the query ran in; Batch numbers the launch
	// group (per kind) it was seeded with.
	Slot  int
	Batch int
	// Result is the raw answer: dist+1 (0 = unreached) for BFS, the
	// fixed-point score for PPR. Reached mirrors BFS reachability.
	Result  uint64
	Reached bool
	State   State
}

// Latency returns the sojourn time of a resolved query.
func (q *Query) Latency() updown.Cycles { return q.Done - q.Arrive }

// ErrBadQuery is returned (wrapped, naming the query index) by Run for a
// schedule entry no engine can serve: an unknown or unconfigured kind, or
// a source/target outside the resident graph.
var ErrBadQuery = errors.New("serve: bad query")

// Config wires a server to its engines and sets the serving policy.
type Config struct {
	// BFS and PPR are the resident point engines; either may be nil if
	// the schedule never uses that kind.
	BFS *bfs.PointBFS
	PPR *pagerank.PointPPR
	// Quantum is the pacer grid (default sched.DefaultQuantum).
	Quantum updown.Cycles
	// FuseWindow is the launch hold-off: queued queries that would not
	// fill the free slots launch once the oldest has waited this long.
	// Zero launches at the first boundary after arrival.
	FuseWindow updown.Cycles
	// MaxBatch caps a kind's queries in flight; 0 means the engine's slot
	// count. 1 is the one-query-at-a-time baseline the benchmark compares
	// against.
	MaxBatch int
	// QueueCap bounds the per-kind waiting room (default 256); arrivals
	// that find it full are shed, which keeps tail latency bounded
	// instead of unbounded under overload.
	QueueCap int
}

// Stats is the aggregate serving outcome of one Run.
type Stats struct {
	Served [2]int
	ShedN  [2]int
	// Batches counts launch groups: boundaries at which a kind seeded and
	// posted at least one query.
	Batches [2]int
	Sim     updown.Stats
	// First/Last bracket the stream: first arrival to last resolution.
	First, Last updown.Cycles
}

// Server drives point-query schedules through a resident machine.
type Server struct {
	m    *updown.Machine
	cfg  Config
	pace *sched.Pacer
	eng  [numKinds]*pointq.Engine

	queries  []Query
	next     int
	queue    [numKinds][]int
	inflight [numKinds][]int
	// busy[k][slot] marks the slots of kind k holding an in-flight query.
	busy  [numKinds][]bool
	stats Stats
	lat   [numKinds][]updown.Cycles
	// sorted is the scratch a latency log is sorted in for percentiles.
	sorted []updown.Cycles
}

// New builds a server over a warm machine. The engines must already be
// built against the machine's resident graph.
func New(m *updown.Machine, cfg Config) (*Server, error) {
	if cfg.BFS == nil && cfg.PPR == nil {
		return nil, fmt.Errorf("serve: no engines configured")
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 256
	}
	s := &Server{m: m, cfg: cfg, pace: sched.NewPacer(cfg.Quantum)}
	if cfg.BFS != nil {
		s.eng[KindBFS] = cfg.BFS.Engine
	}
	if cfg.PPR != nil {
		s.eng[KindPPR] = cfg.PPR.Engine
	}
	for k := range s.eng {
		if s.eng[k] == nil {
			continue
		}
		s.inflight[k] = make([]int, 0, s.eng[k].Slots())
		s.busy[k] = make([]bool, s.eng[k].Slots())
		s.queue[k] = make([]int, 0, s.cfg.QueueCap)
	}
	s.installTelemetry()
	return s, nil
}

// maxBatch resolves the in-flight cap for a kind.
func (s *Server) maxBatch(k Kind) int {
	n := s.eng[k].Slots()
	if s.cfg.MaxBatch > 0 && s.cfg.MaxBatch < n {
		n = s.cfg.MaxBatch
	}
	return n
}

// Now returns the simulated frontier the server has paced to.
func (s *Server) Now() updown.Cycles { return s.pace.Now() }

// Stats returns the aggregate outcome of the last Run.
func (s *Server) Stats() Stats { return s.stats }

// accumEngine records the statistics as the pacer drives the machine.
// Engine stats are cumulative over the machine's life (reset only by a
// checkpoint restore), so the last RunUntil's snapshot is the total for
// the whole serving interval.
type accumEngine struct {
	m   *updown.Machine
	tot *updown.Stats
}

func (a accumEngine) RunUntil(t updown.Cycles) (updown.Stats, error) {
	st, err := a.m.RunUntil(t)
	*a.tot = st
	return st, err
}

// Run serves the whole schedule (ascending Arrive, caller-owned; answers
// are written into it in place) and returns when every query is resolved
// or shed. Run may be called again with a new schedule; simulated time
// keeps advancing. It is Begin, then Step at every quantum boundary with
// the machine run to the next boundary in between.
func (s *Server) Run(queries []Query) error {
	if err := s.Begin(queries); err != nil {
		return err
	}
	return s.pace.Drive(accumEngine{s.m, &s.stats.Sim}, s.Step)
}

// Begin installs a schedule for Step to serve. The whole schedule is
// validated before any query is admitted: an unservable entry fails the
// call with ErrBadQuery and leaves the schedule and the machine untouched.
func (s *Server) Begin(queries []Query) error {
	for i := range queries {
		q := &queries[i]
		if i > 0 && q.Arrive < queries[i-1].Arrive {
			return fmt.Errorf("serve: schedule not sorted by arrival at %d", i)
		}
		if q.Kind >= numKinds || s.eng[q.Kind] == nil {
			return fmt.Errorf("%w %d: kind %d has no engine", ErrBadQuery, i, q.Kind)
		}
		if n := uint32(s.eng[q.Kind].Vertices()); q.Src >= n || q.Tgt >= n {
			return fmt.Errorf("%w %d: %d->%d outside the %d-vertex graph", ErrBadQuery, i, q.Src, q.Tgt, n)
		}
	}
	s.queries = queries
	s.next = 0
	if len(queries) > 0 {
		s.stats.First = queries[0].Arrive
	}
	for k := range s.lat {
		if s.lat[k] == nil && s.eng[k] != nil {
			s.lat[k] = make([]updown.Cycles, 0, len(queries))
		}
	}
	return nil
}

// Step is one host reconcile pass at quantum boundary now, the machine
// quiesced there: harvest finished slots, admit arrivals, launch into
// free slots, then report whether the schedule is finished and, if not,
// how far the caller may fast-forward (0: run to the next boundary). Run
// calls it; a caller pacing the machine itself calls it directly.
func (s *Server) Step(now updown.Cycles) (idleUntil updown.Cycles, done bool) {
	s.harvest()
	s.admit(now)
	s.launch(now)

	if s.next >= len(s.queries) {
		done = true
		for k := range s.eng {
			if len(s.inflight[k]) > 0 || len(s.queue[k]) > 0 {
				done = false
			}
		}
		if done {
			return 0, true
		}
	}

	// Idle fast-forward: when nothing is in flight, jump to the earliest
	// cycle at which a host decision can change — the next arrival or the
	// oldest queued query's fuse deadline.
	idleUntil = updown.Cycles(1) << 62
	busy := false
	for k := range s.eng {
		if len(s.inflight[k]) > 0 {
			busy = true
		}
		if len(s.queue[k]) > 0 {
			ddl := s.queries[s.queue[k][0]].Arrive + s.cfg.FuseWindow
			if ddl < idleUntil {
				idleUntil = ddl
			}
		}
	}
	if busy {
		return 0, false
	}
	if s.next < len(s.queries) && s.queries[s.next].Arrive < idleUntil {
		idleUntil = s.queries[s.next].Arrive
	}
	return idleUntil, false
}

// harvest resolves every in-flight query whose slot has finished — read
// the result and the in-simulation done stamp — and recycles the slot;
// the others stay in flight.
func (s *Server) harvest() {
	for k, e := range s.eng {
		running := s.inflight[k][:0]
		for _, qi := range s.inflight[k] {
			q := &s.queries[qi]
			if _, ok := e.SlotDone(q.Slot); !ok {
				running = append(running, qi)
				continue
			}
			q.Result = e.Result(q.Slot)
			q.Reached = q.Kind == KindPPR || q.Result != 0
			q.Done = e.DoneCycle(q.Slot)
			q.State = Resolved
			e.Recycle(q.Slot)
			s.busy[k][q.Slot] = false
			s.stats.Served[k]++
			s.lat[k] = append(s.lat[k], q.Latency())
			if q.Done > s.stats.Last {
				s.stats.Last = q.Done
			}
		}
		s.inflight[k] = running
	}
}

// admit moves arrived queries into their kind's waiting room, shedding
// on overflow.
func (s *Server) admit(now updown.Cycles) {
	for s.next < len(s.queries) && s.queries[s.next].Arrive <= now {
		q := &s.queries[s.next]
		k := q.Kind
		if len(s.queue[k]) >= s.cfg.QueueCap {
			q.State = Shed
			s.stats.ShedN[k]++
		} else {
			q.State = Queued
			s.queue[k] = append(s.queue[k], s.next)
		}
		s.next++
	}
}

// launch seeds queued queries, oldest first, into a kind's free slots
// (see pick) when the policy fires: the queue fills every free slot, the
// fuse window expired, or the schedule has drained (no later arrival can
// ever join).
func (s *Server) launch(now updown.Cycles) {
	for k, e := range s.eng {
		if e == nil || len(s.queue[k]) == 0 {
			continue
		}
		free := s.maxBatch(Kind(k)) - len(s.inflight[k])
		if free == 0 {
			continue
		}
		oldest := s.queries[s.queue[k][0]].Arrive
		if len(s.queue[k]) < free && now < oldest+s.cfg.FuseWindow && s.next < len(s.queries) {
			continue
		}
		n := min(len(s.queue[k]), free)
		at := now + 1
		for _, qi := range s.queue[k][:n] {
			slot := s.pick(k)
			s.busy[k][slot] = true
			q := &s.queries[qi]
			e.Seed(slot, q.Src, q.Tgt)
			q.Slot = slot
			q.Start = at
			q.Batch = s.stats.Batches[k]
			q.State = Inflight
		}
		s.inflight[k] = append(s.inflight[k], s.queue[k][:n]...)
		s.queue[k] = append(s.queue[k][:0], s.queue[k][n:]...)
		e.Post(at)
		s.stats.Batches[k]++
	}
}

// pick returns the free slot of kind k whose lane slice the fewest
// in-flight queries of the other kinds overlap, the lowest on a tie, so
// node 0's slices, beside the resident graph, fill first. The two kinds'
// engines cut the same lanes into slices, and a query on a shared slice
// waits behind its co-tenant's events.
func (s *Server) pick(k int) int {
	best, fewest := -1, 0
	for slot, busy := range s.busy[k] {
		if busy {
			continue
		}
		ls, n := s.eng[k].Slice(slot), 0
		for o, e := range s.eng {
			for _, qi := range s.inflight[o] {
				if o != k && e.Slice(s.queries[qi].Slot).Overlaps(ls) {
					n++
				}
			}
		}
		if best < 0 || n < fewest {
			best, fewest = slot, n
		}
	}
	return best
}

// installTelemetry adds per-kind query serving gauges to the machine's
// snapshot publisher (no-op without telemetry).
func (s *Server) installTelemetry() {
	if s.m.Telemetry == nil {
		return
	}
	s.m.Telemetry.OnPublish(func(snap *telemetry.Snapshot) {
		for k, e := range s.eng {
			if e == nil {
				continue
			}
			qs := telemetry.QueryStat{
				Kind:      Kind(k).String(),
				Served:    int64(s.stats.Served[k]),
				Shed:      int64(s.stats.ShedN[k]),
				Queued:    len(s.queue[k]),
				Inflight:  len(s.inflight[k]),
				SlotsBusy: e.Busy(),
				Slots:     e.Slots(),
				Batches:   int64(s.stats.Batches[k]),
			}
			if qs.Batches > 0 {
				qs.FusedPerBatch = float64(qs.Served) / float64(qs.Batches)
			}
			if n := len(s.lat[k]); n > 0 {
				// Sorted in the server's scratch: the serving loop itself
				// never reorders the log.
				s.sorted = append(s.sorted[:0], s.lat[k]...)
				slices.Sort(s.sorted)
				qs.P50Ms = s.m.Seconds(s.sorted[n*50/100]) * 1e3
				qs.P99Ms = s.m.Seconds(s.sorted[n*99/100]) * 1e3
			}
			snap.Queries = append(snap.Queries, qs)
		}
	})
}
