package sim

import (
	"math"
	"testing"
	"time"

	"updown/internal/arch"
	"updown/internal/telemetry"
)

// TestWindowReduce drives the window reduction alone: four shards of one
// node each (lookahead 1000), queue tops posted from the host, cross-shard
// messages staged by hand, no event executed before the verdict.
func TestWindowReduce(t *testing.T) {
	const (
		idle = arch.Cycles(math.MaxInt64)
		la   = 1000
		far  = 1 << 40
	)
	type staged struct {
		from, to int
		at       arch.Cycles
	}
	cases := []struct {
		name    string
		tops    [4]arch.Cycles
		staged  []staged
		limit   arch.Cycles
		tel     bool
		more    bool
		timeout bool
		next    [4]arch.Cycles
		horizon [4]arch.Cycles
	}{
		{name: "idle peers saturate to the cap", tops: [4]arch.Cycles{100, idle, idle, idle}, limit: math.MaxInt64,
			more: true, next: [4]arch.Cycles{100, idle, idle, idle},
			horizon: [4]arch.Cycles{math.MaxInt64, 100 + la, 100 + la, 100 + la}},
		{name: "own frontier does not bound own horizon", tops: [4]arch.Cycles{100, 400, 250, idle}, limit: far,
			more: true, next: [4]arch.Cycles{100, 400, 250, idle},
			horizon: [4]arch.Cycles{250 + la, 100 + la, 100 + la, 100 + la}},
		{name: "tied minimum bounds both holders", tops: [4]arch.Cycles{100, 100, idle, idle}, limit: far,
			more: true, next: [4]arch.Cycles{100, 100, idle, idle},
			horizon: [4]arch.Cycles{100 + la, 100 + la, 100 + la, 100 + la}},
		// The boomerang: shard 0 ran ahead to 5000 after sending to shard
		// 3 at 1200. Shard 3 can answer from 1200, so nobody else may pass
		// 2200, whatever the queue tops say.
		{name: "staged message bounds every other shard", tops: [4]arch.Cycles{5000, 6000, 7000, idle},
			staged: []staged{{0, 3, 1200}}, limit: far,
			more: true, next: [4]arch.Cycles{5000, 6000, 7000, 1200},
			horizon: [4]arch.Cycles{1200 + la, 1200 + la, 1200 + la, 5000 + la}},
		{name: "earliest of queue and inbound", tops: [4]arch.Cycles{300, 900, idle, idle},
			staged: []staged{{0, 1, 700}, {2, 1, 1500}}, limit: far,
			more: true, next: [4]arch.Cycles{300, 700, idle, idle},
			horizon: [4]arch.Cycles{700 + la, 300 + la, 300 + la, 300 + la}},
		{name: "MaxTime cap", tops: [4]arch.Cycles{100, 200, idle, idle}, limit: 500,
			more: true, next: [4]arch.Cycles{100, 200, idle, idle},
			horizon: [4]arch.Cycles{501, 501, 501, 501}},
		{name: "telemetry span cap", tops: [4]arch.Cycles{100, idle, idle, idle}, limit: far, tel: true,
			more: true, next: [4]arch.Cycles{100, idle, idle, idle},
			horizon: [4]arch.Cycles{100 + 8*la, 100 + la, 100 + la, 100 + la}},
		{name: "quiescent", tops: [4]arch.Cycles{idle, idle, idle, idle}, limit: far},
		{name: "past MaxTime", tops: [4]arch.Cycles{2000, idle, idle, idle},
			staged: []staged{{1, 2, 3000}, {3, 2, 2500}}, limit: 1000, timeout: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := arch.DefaultMachine(4)
			opts := Options{Shards: 4, LaneFactory: func(arch.NetworkID) Actor { return &sinkActor{} }}
			if c.tel {
				opts.Telemetry = &telemetry.Publisher{MinPeriod: time.Hour}
			}
			e, err := NewEngine(m, opts)
			if err != nil {
				t.Fatal(err)
			}
			pending := 0
			for i, top := range c.tops {
				if top != idle {
					e.Post(top, m.LaneID(i, 0, 0), arch.KindEvent, 0, 0, 0)
					pending++
				}
			}
			for _, st := range c.staged {
				msg := Message{Deliver: st.at, Src: m.LaneID(st.from, 0, 0), Dst: m.LaneID(st.to, 0, 0), Kind: arch.KindEvent, NOps: 1}
				e.shards[st.from].route(&msg, st.to)
				pending++
			}
			w := &e.win
			w.limit = c.limit
			if more := w.reduce(); more != c.more {
				t.Fatalf("reduce() = %v, want %v", more, c.more)
			}
			if w.timedOut != c.timeout {
				t.Errorf("timedOut = %v, want %v", w.timedOut, c.timeout)
			}
			if c.more {
				for i := range c.next {
					if w.next[i] != c.next[i] || w.horizon[i] != c.horizon[i] {
						t.Errorf("shard %d: next %d horizon %d, want %d and %d",
							i, w.next[i], w.horizon[i], c.next[i], c.horizon[i])
					}
				}
				return
			}
			// Stopped: nothing may be left in an outbox.
			if got := e.Pending(); got != pending {
				t.Errorf("Pending() = %d after the stop, want %d", got, pending)
			}
			stats, err := e.Run()
			if err != nil || int(stats.Events) != pending {
				t.Errorf("following Run executed %d events (err %v), want %d", stats.Events, err, pending)
			}
		})
	}
}
