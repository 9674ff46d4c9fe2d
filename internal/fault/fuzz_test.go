package fault_test

import (
	"testing"

	"updown"
	"updown/internal/arch"
	"updown/internal/fault"
)

// FuzzParseSpec feeds arbitrary -fault-spec strings through the parser and
// into a machine: parsing never panics, every accepted probability is in
// [0,1], and updown.New on a 2-node machine returns a machine or an error,
// never a panic (testdata/fuzz/FuzzParseSpec holds the seeds that once
// did, or that were silently accepted).
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"drop=0.05,dup=0.02",
		"drop=0.03,dup=0.01,delay=0.005:2000,failstop=1@20000",
		"drop=0.1,kinds=eventu+dram,src=1,dst=0,from=10,until=20",
		"stall=3@100+50,degrade=1:2:3@40",
	} {
		f.Add(s)
	}
	// A small 2-node machine keeps each iteration cheap.
	m2 := arch.DefaultMachine(2)
	m2.AccelsPerNode, m2.LanesPerAccel = 1, 4
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := fault.ParseSpec(spec)
		if err != nil || p == nil {
			return
		}
		for i, r := range p.Rules {
			for _, q := range []float64{r.DropProb, r.DupProb, r.DelayProb} {
				if !(q >= 0 && q <= 1) {
					t.Fatalf("%q: rule %d accepted probability %v", spec, i, q)
				}
			}
		}
		if m, err := updown.New(updown.Config{Arch: &m2, Fault: p}); m == nil && err == nil {
			t.Fatalf("%q: New returned neither a machine nor an error", spec)
		}
	})
}
