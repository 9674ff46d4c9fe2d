package kvmsr

import (
	"testing"

	"updown/internal/arch"
	"updown/internal/dram"
	"updown/internal/gasmem"
	"updown/internal/sim"
	"updown/internal/udweave"
)

// TestTreeGeometry checks the unit and holder rules on a machine of 4 nodes
// x 4 accelerators x 4 lanes and one of 3 nodes x 2 single-lane
// accelerators, for lane sets that start and end mid-accelerator and
// mid-node, span one to three nodes and have units of one lane: fanOut's
// walk from the master reaches every lane of the set exactly once, parent
// names the role each walk message came from, and after a launch every
// role's expect is the number of children the walk found under it. Where
// a unit leaves the choice, the roles keep off the working lanes: an
// accelerator role of a unit of two or more lanes is not on an
// accelerator's first lane, and a node role shares its lane with no other
// role and sits on no accelerator's first lane whenever its node has a lane
// that is neither.
func TestTreeGeometry(t *testing.T) {
	small := arch.DefaultMachine(4)
	small.AccelsPerNode, small.LanesPerAccel = 4, 4
	single := arch.DefaultMachine(3)
	single.AccelsPerNode, single.LanesPerAccel = 2, 1
	for _, tc := range []struct {
		m  arch.Machine
		ls LaneSet
	}{
		{small, LaneSet{First: 5, Count: 6}},   // one node, mid-accelerator to mid-accelerator
		{small, LaneSet{First: 15, Count: 2}},  // one lane either side of a node boundary
		{small, LaneSet{First: 6, Count: 17}},  // two nodes
		{small, LaneSet{First: 13, Count: 30}}, // three nodes
		{small, LaneSet{First: 0, Count: 64}},  // the machine
		{small, LaneSet{First: 12, Count: 9}},  // a whole accelerator, then one and a lane
		{small, LaneSet{First: 14, Count: 2}},  // two lanes, the first the master's
		{small, LaneSet{First: 16, Count: 2}},  // two lanes from a node's start
		{small, LaneSet{First: 3, Count: 3}},   // a lane, then half an accelerator
		{single, LaneSet{First: 1, Count: 4}},  // units of one lane
		{single, LaneSet{First: 0, Count: 6}},
	} {
		m, ls := tc.m, tc.ls
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

		// Placement: a lane is free if it is no accelerator's first lane
		// and holds neither an accelerator role nor the master.
		accelFirst := func(l arch.NetworkID) bool { return int(l)%m.LanesPerAccel == 0 }
		free := func(l arch.NetworkID) bool {
			return !accelFirst(l) && visits[levelAccel][l] == 0 && l != ls.First
		}
		for lane := range visits[levelAccel] {
			if lo, hi := ls.unit(m, levelAccel, lane); hi-lo >= 2 && accelFirst(lane) {
				t.Errorf("%+v: accelerator role of [%d,%d) on its first lane %d", ls, lo, hi, lane)
			}
		}
		for lane := range visits[levelNode] {
			lo, hi := ls.unit(m, levelNode, lane)
			for l := lo; l < hi; l++ {
				if free(l) && !free(lane) {
					t.Errorf("%+v: node role of [%d,%d) on lane %d, which is not free, while lane %d is", ls, lo, hi, lane, l)
					break
				}
			}
		}
	}
}
