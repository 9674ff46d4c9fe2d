package kvmsr

import (
	"testing"

	"updown/internal/arch"
	"updown/internal/dram"
	"updown/internal/gasmem"
	"updown/internal/sim"
	"updown/internal/udweave"
)

// TestTreeGeometry checks the one unit rule on a machine of 4 nodes x 4
// accelerators x 4 lanes, for lane sets that start and end mid-accelerator
// and mid-node and span one to three nodes: fanOut's walk from the master
// reaches every lane of the set exactly once, parent names the role each
// walk message came from, and after a launch every role's expect is the
// number of children the walk found under it.
func TestTreeGeometry(t *testing.T) {
	m := arch.DefaultMachine(4)
	m.AccelsPerNode, m.LanesPerAccel = 4, 4
	for _, ls := range []LaneSet{
		{First: 5, Count: 6},   // one node, mid-accelerator to mid-accelerator
		{First: 15, Count: 2},  // one lane either side of a node boundary
		{First: 6, Count: 17},  // two nodes
		{First: 13, Count: 30}, // three nodes
		{First: 0, Count: 64},  // the machine
	} {
		gas := gasmem.New(m.Nodes, m.DRAMBytesPerNode)
		p := udweave.NewProgram(m, gas)
		eng, err := sim.NewEngine(m, sim.Options{Shards: 1, MaxTime: 1 << 30, LaneFactory: p.NewLane})
		if err != nil {
			t.Fatal(err)
		}
		dram.Install(eng, gas)
		var v *Invocation
		mapEv := p.Define("map", func(c *udweave.Ctx) {
			v.Return(c, c.Cont())
			c.YieldTerminate()
		})
		v = MustNew(p, Spec{Name: "tree", MapEvent: mapEv, Lanes: ls})

		// visits[level][lane] counts walk messages reaching the role;
		// kids[level][lane] is how many children its fanOut sent to.
		var visits, kids [levelMaster + 1]map[arch.NetworkID]int
		for l := range visits {
			visits[l], kids[l] = map[arch.NetworkID]int{}, map[arch.NetworkID]int{}
		}
		var walk udweave.Label
		walk = p.Define("walk", func(c *udweave.Ctx) {
			level, self := c.Op(0), c.NetworkID()
			visits[level][self]++
			if level < levelMaster && c.Src() != v.parent(level, self) {
				t.Errorf("%+v: level %d role on lane %d reached from %d, parent says %d", ls, level, self, c.Src(), v.parent(level, self))
			}
			if level > levelLane {
				kids[level][self] = v.fanOut(c, level, 0, walk, level-1)
			}
			c.YieldTerminate()
		})
		eng.Post(0, ls.First, arch.KindEvent, udweave.EvwNew(ls.First, walk), udweave.IGNRCONT, levelMaster)
		eng.Post(0, ls.First, arch.KindEvent, v.LaunchEvw(), udweave.IGNRCONT, uint64(ls.Count))
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}

		for l := ls.First; l < ls.End(); l++ {
			if n := visits[levelLane][l]; n != 1 {
				t.Errorf("%+v: lane %d reached %d times", ls, l, n)
			}
		}
		if len(visits[levelLane]) != ls.Count {
			t.Errorf("%+v: walk reached %d lanes, the set has %d", ls, len(visits[levelLane]), ls.Count)
		}
		for level := levelAccel; level <= levelMaster; level++ {
			for lane, n := range visits[level] {
				if n != 1 {
					t.Errorf("%+v: level %d role on lane %d reached %d times", ls, level, lane, n)
				}
				expect := -1 // the launch never reached the lane
				if st := v.slot.Peek(eng.PeekActor(lane)); st != nil {
					expect = st.roles[level].expect
				}
				if expect != kids[level][lane] {
					t.Errorf("%+v: level %d role on lane %d expects %d children, fanOut walks %d", ls, level, lane, expect, kids[level][lane])
				}
			}
		}
	}
}
