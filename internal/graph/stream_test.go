package graph

import (
	"slices"
	"testing"

	"updown"
	"updown/internal/gasmem"
	"updown/internal/udweave"
)

func newMachine(t *testing.T) *updown.Machine {
	t.Helper()
	m, err := updown.New(updown.Config{Nodes: 1, Shards: 1, MaxTime: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestReadAdj pins the chunked list read every app uses: ceil(degree/8)
// reads of at most 8 words, back to back from the list's address, each
// costing 2 cycles to issue.
func TestReadAdj(t *testing.T) {
	type read struct{ off, n uint64 }
	for degree, want := range map[uint64][]read{
		0:  nil,
		1:  {{0, 1}},
		8:  {{0, 8}},
		9:  {{0, 8}, {8, 1}},
		17: {{0, 8}, {8, 8}, {16, 1}},
	} {
		// run issues the reads from one lane and records what comes back;
		// byReadAdj false issues want's reads by hand, charging nothing.
		run := func(byReadAdj bool) ([]read, int64) {
			m := newMachine(t)
			va, err := m.GAS.DRAMmalloc(4096, 0, 1, 4096)
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < 32; i++ {
				m.GAS.WriteU64(va+i*gasmem.WordBytes, i) // word i holds i
			}
			var got []read
			var ret udweave.Label
			start := m.Prog.Define("start", func(c *udweave.Ctx) {
				if byReadAdj {
					ReadAdj(c, va, degree, c.ContinueTo(ret))
				} else {
					for _, r := range want {
						c.DRAMRead(va+r.off*gasmem.WordBytes, int(r.n), c.ContinueTo(ret))
					}
				}
				if degree == 0 {
					c.YieldTerminate()
				}
			})
			ret = m.Prog.Define("ret", func(c *udweave.Ctx) {
				ops := c.Ops()
				for i, w := range ops {
					if w != ops[0]+uint64(i) {
						t.Errorf("degree %d: read from word %d returned %v, not consecutive words", degree, ops[0], ops)
					}
				}
				if got = append(got, read{ops[0], uint64(len(ops))}); len(got) == len(want) {
					c.YieldTerminate()
				}
			})
			m.Start(updown.EvwNew(0, start))
			stats, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			slices.SortFunc(got, func(a, b read) int { return int(a.off) - int(b.off) })
			return got, stats.BusyCycles
		}
		got, busy := run(true)
		if !slices.Equal(got, want) {
			t.Errorf("degree %d: reads (word, words) %v, want %v", degree, got, want)
		}
		if _, ref := run(false); busy-ref != int64(2*len(want)) {
			t.Errorf("degree %d: ReadAdj charged %d cycles for %d reads, want 2 each", degree, busy-ref, len(want))
		}
	}
}

// TestStreamer: a vertex with an empty list replies 0 without emitting; a
// 17-neighbor list emits one tuple per neighbor, carrying the start
// operands, and replies with the number of tuples it sent.
func TestStreamer(t *testing.T) {
	var edges []Edge
	for d := uint32(2); d < 19; d++ {
		edges = append(edges, Edge{Src: 1, Dst: d})
	}
	sg := Split(FromEdges(19, edges, BuildOptions{}), 32)
	for _, tc := range []struct {
		name   string
		v      uint32
		degree int
	}{{"empty", 0, 0}, {"17 neighbors", 1, 17}} {
		t.Run(tc.name, func(t *testing.T) {
			m := newMachine(t)
			dg, err := LoadToGAS(m.GAS, sg, DefaultPlacement(1))
			if err != nil {
				t.Fatal(err)
			}
			const slot, a, b = 3, 40, 50
			var emitted, replies []uint64
			emit := func(c *udweave.Ctx, s, nb, ea, eb uint64) {
				if s != slot || ea != a || eb != b {
					t.Errorf("emit(slot %d, nb %d, %d, %d), want slot %d and operands %d, %d", s, nb, ea, eb, slot, a, b)
				}
				emitted = append(emitted, nb)
			}
			s := NewStreamer(m.Prog, dg, [3]string{"s.start", "s.rec", "s.chunk"}, emit)
			var done udweave.Label
			v := uint64(sg.NewID[tc.v])
			start := m.Prog.Define("start", func(c *udweave.Ctx) {
				s.Start(c, 1, c.ContinueTo(done), slot, v, a, b)
			})
			done = m.Prog.Define("done", func(c *udweave.Ctx) {
				replies = append(replies, c.Ops()...)
				c.YieldTerminate()
			})
			m.Start(updown.EvwNew(0, start))
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			var want []uint64
			for _, nb := range sg.Neighbors(uint32(v)) {
				want = append(want, uint64(nb))
			}
			slices.Sort(emitted)
			slices.Sort(want)
			if len(want) != tc.degree || !slices.Equal(emitted, want) {
				t.Errorf("emitted %v, want the %d-neighbor list %v", emitted, tc.degree, want)
			}
			if !slices.Equal(replies, []uint64{uint64(len(emitted))}) {
				t.Errorf("replies %v, want one reply of the %d tuples sent", replies, len(emitted))
			}
		})
	}
}
