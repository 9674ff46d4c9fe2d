package kvmsr_test

import (
	"testing"

	"updown"
	"updown/internal/arch"
	"updown/internal/kvmsr"
)

// TestBlockPumpUnchanged pins the timeline of the range bindings: the pump
// walks a key sequence since the owner binding arrived, and a Block, a
// Stride and a PBMW launch must still complete on the cycle, and with the
// statistics, they had when it walked nextKey++ over one range (re-pinned
// once since, when the drain moved to the nodes and the tree's roles off
// the accelerators' first lanes).
func TestBlockPumpUnchanged(t *testing.T) {
	type pin struct {
		done  updown.Cycles
		stats updown.Stats
	}
	cases := []struct {
		name    string
		binding kvmsr.MapBinding
		keys    uint64
		want    pin
	}{
		{"block", kvmsr.Block{}, 3000, pin{3684, updown.Stats{FinalTime: 3685, Events: 22940, Sends: 22939,
			ShuffleMsgs: 1568, ShuffleTuples: 6000, BusyCycles: 663521, LanesTouched: 2688}}},
		{"stride", kvmsr.Stride{Step: 64}, 64, pin{3629, updown.Stats{FinalTime: 3630, Events: 11164, Sends: 11163,
			ShuffleMsgs: 34, ShuffleTuples: 84, BusyCycles: 122895, LanesTouched: 2688}}},
		{"pbmw", kvmsr.PBMW{ChunkSize: 8}, 3000, pin{33846, updown.Stats{FinalTime: 33847, Events: 28380, Sends: 28379,
			ShuffleMsgs: 2272, ShuffleTuples: 6000, BusyCycles: 723402, LanesTouched: 2688}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := updown.New(updown.Config{Nodes: 2, Shards: 1, MaxTime: 1 << 34})
			if err != nil {
				t.Fatal(err)
			}
			var inv *kvmsr.Invocation
			mapEv := m.Prog.Define("kv_map", func(c *updown.Ctx) {
				key := c.Op(0)
				// Skewed work, so PBMW grants actually move keys.
				c.Cycles(10 + int(key%7)*40)
				inv.Emit(c, key*3, key)
				inv.Emit(c, key*3+1, key)
				inv.Return(c, c.Cont())
				c.YieldTerminate()
			})
			reduceEv := m.Prog.Define("kv_reduce", func(c *updown.Ctx) {
				c.Cycles(8)
				inv.ReduceDone(c)
				c.YieldTerminate()
			})
			var got pin
			done := m.Prog.Define("done", func(c *updown.Ctx) {
				got.done = c.Now()
				c.YieldTerminate()
			})
			inv = kvmsr.MustNew(m.Prog, kvmsr.Spec{
				Name: "pin", MapEvent: mapEv, ReduceEvent: reduceEv, MapBinding: tc.binding,
				Lanes: kvmsr.LaneSet{First: 64, Count: 2048 + 640},
			})
			m.StartWithCont(inv.LaunchEvw(), updown.EvwNew(64, done), tc.keys)
			if got.stats, err = m.Run(); err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("timeline moved:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// ownerGeometry is one (machine, lane set, key-array placement) point of
// the Owner binding's property grid.
type ownerGeometry struct {
	name                string
	nodes               int
	accels, lanes       int // per node / per accelerator; 0 = the paper's 32 x 64
	first, count        int // lane set; count 0 = the whole machine
	memFirst, memNodes  int
	blockBytes, maxKeys uint64
}

const ownerRecordBytes = 64 // a graph vertex record

func (g ownerGeometry) build(t *testing.T) (*updown.Machine, kvmsr.LaneSet, updown.VA) {
	t.Helper()
	ar := arch.DefaultMachine(g.nodes)
	if g.accels != 0 {
		ar.AccelsPerNode, ar.LanesPerAccel = g.accels, g.lanes
	}
	m, err := updown.New(updown.Config{Arch: &ar, Shards: 1, MaxTime: 1 << 36})
	if err != nil {
		t.Fatal(err)
	}
	ls := kvmsr.LaneSet{First: updown.NetworkID(g.first), Count: g.count}
	if g.count == 0 {
		ls = kvmsr.AllLanes(m.Arch)
	}
	// An allocation ahead of the key array, so its base is not block 0 of
	// the address space.
	if _, err := m.GAS.DRAMmalloc(24, 0, 1, 8); err != nil {
		t.Fatal(err)
	}
	va, err := m.GAS.DRAMmalloc(g.maxKeys*ownerRecordBytes, g.memFirst, g.memNodes, g.blockBytes)
	if err != nil {
		t.Fatal(err)
	}
	return m, ls, va
}

// TestOwnerBindingProperties: over machine geometries, placements and key
// counts at every block-boundary case, a launch under the Owner map binding
// starts every key of [0, numKeys) exactly once, on a lane of the set whose
// node is the one GAS.Translate says homes the key's record; and the reduce
// binding is a pure function of the key landing on that same node.
func TestOwnerBindingProperties(t *testing.T) {
	const big = 85_910 // pr_batch's split vertex count
	for _, g := range []ownerGeometry{
		{name: "2 nodes", nodes: 2, memNodes: 2, blockBytes: 32 << 10, maxKeys: big},
		{name: "4 nodes", nodes: 4, memNodes: 4, blockBytes: 32 << 10, maxKeys: big},
		{name: "8 nodes", nodes: 8, memNodes: 8, blockBytes: 32 << 10, maxKeys: big},
		{name: "4x16 lanes per node", nodes: 4, accels: 4, lanes: 16, memNodes: 4, blockBytes: 4 << 10, maxKeys: big},
		{name: "nodes 2-3 of 8", nodes: 8, first: 2 * 2048, count: 2 * 2048, memFirst: 2, memNodes: 2, blockBytes: 32 << 10, maxKeys: big},
		{name: "nodes 4-7 of 8, 8-key blocks", nodes: 8, first: 4 * 2048, count: 4 * 2048, memFirst: 4, memNodes: 4, blockBytes: 512, maxKeys: 5000},
		{name: "ragged lane set", nodes: 2, first: 100, count: 2*2048 - 150, memNodes: 2, blockBytes: 32 << 10, maxKeys: big},
	} {
		t.Run(g.name, func(t *testing.T) {
			m, ls, va := g.build(t)
			own, ok := kvmsr.NewOwner(m.Arch, ls, m.GAS.RegionOf(va), ownerRecordBytes)
			if !ok {
				t.Fatal("NewOwner: binding does not apply")
			}
			home := func(k uint64) int {
				node, _ := m.GAS.Translate(va + k*ownerRecordBytes)
				return node
			}
			ranOn := make([]updown.NetworkID, g.maxKeys)
			var inv *kvmsr.Invocation
			body := m.Prog.Define("body", func(c *updown.Ctx) {
				if k := c.Op(0); ranOn[k] != -1 {
					t.Errorf("key %d started twice (lanes %d and %d)", k, ranOn[k], c.NetworkID())
				} else {
					ranOn[k] = c.NetworkID()
				}
				inv.Return(c, c.Cont())
				c.YieldTerminate()
			})
			completed := false
			done := m.Prog.Define("done", func(c *updown.Ctx) {
				completed = true
				c.YieldTerminate()
			})
			inv = kvmsr.MustNew(m.Prog, kvmsr.Spec{Name: "own", MapEvent: body, MapBinding: own, Lanes: ls})
			perBlock := g.blockBytes / ownerRecordBytes
			round := perBlock * uint64(g.memNodes)
			for _, n := range []uint64{0, 1, perBlock - 1, perBlock, round - 1, round, round + 1, g.maxKeys} {
				for k := range ranOn {
					ranOn[k] = -1
				}
				completed = false
				m.StartWithCont(inv.LaunchEvw(), updown.EvwNew(ls.First, done), n)
				if _, err := m.Run(); err != nil {
					t.Fatal(err)
				}
				if !completed {
					t.Fatalf("numKeys %d: launch did not complete", n)
				}
				for k, lane := range ranOn {
					switch {
					case uint64(k) >= n:
						if lane != -1 {
							t.Fatalf("numKeys %d: key %d past the key space ran on lane %d", n, k, lane)
						}
					case lane == -1:
						t.Fatalf("numKeys %d: key %d never started", n, k)
					case !ls.Contains(lane) || m.Arch.NodeOf(lane) != home(uint64(k)):
						t.Fatalf("numKeys %d: key %d started on lane %d (node %d, in set: %v), its record is on node %d",
							n, k, lane, m.Arch.NodeOf(lane), ls.Contains(lane), home(uint64(k)))
					}
				}
			}
			used := map[updown.NetworkID]bool{}
			for k := uint64(0); k < g.maxKeys; k++ {
				lane := own.Lane(k, ls)
				if again := own.Lane(k, ls); again != lane {
					t.Fatalf("reduce binding not a function of the key: key %d -> lanes %d, %d", k, lane, again)
				}
				if !ls.Contains(lane) || m.Arch.NodeOf(lane) != home(k) {
					t.Fatalf("key %d reduces on lane %d (node %d, in set: %v), its record is on node %d",
						k, lane, m.Arch.NodeOf(lane), ls.Contains(lane), home(k))
				}
				used[lane] = true
			}
			if g.maxKeys == big && len(used) < ls.Count*9/10 {
				t.Errorf("reduce binding reaches %d of %d lanes", len(used), ls.Count)
			}
		})
	}
}

// TestOwnerAppliesOnlyWhenDataAndLanesShareNodes: the applies-iff rule.
func TestOwnerAppliesOnlyWhenDataAndLanesShareNodes(t *testing.T) {
	for _, g := range []ownerGeometry{
		{name: "one node", nodes: 1, memNodes: 1},
		{name: "one node of four", nodes: 4, first: 2048, count: 2048, memFirst: 1, memNodes: 1},
		{name: "mem 2, compute 4", nodes: 4, memNodes: 2},
		{name: "mem 4, compute 2", nodes: 4, count: 2 * 2048, memNodes: 4},
		{name: "3-node partition, data on 2", nodes: 4, first: 2048, count: 3 * 2048, memFirst: 1, memNodes: 2},
		{name: "same size, shifted", nodes: 4, count: 2 * 2048, memFirst: 2, memNodes: 2},
	} {
		g.blockBytes, g.maxKeys = 32<<10, 4096
		m, ls, va := g.build(t)
		if _, ok := kvmsr.NewOwner(m.Arch, ls, m.GAS.RegionOf(va), ownerRecordBytes); ok {
			t.Errorf("%s: Owner binding applies", g.name)
		}
	}
	g := ownerGeometry{nodes: 2, memNodes: 2, blockBytes: 32 << 10, maxKeys: 4096}
	m, ls, va := g.build(t)
	if _, ok := kvmsr.NewOwner(m.Arch, ls, m.GAS.RegionOf(va), 24); ok {
		t.Error("Owner binding applies to 24-byte records, which straddle 32 KiB blocks")
	}
	if _, ok := kvmsr.NewOwner(m.Arch, ls, nil, ownerRecordBytes); ok {
		t.Error("Owner binding applies without a region")
	}
}

// TestOwnerRejectedOnAnotherLaneSet: an Owner binding is derived from one
// lane set; New refuses it for an invocation over different nodes, where
// its walk would skip or repeat keys.
func TestOwnerRejectedOnAnotherLaneSet(t *testing.T) {
	g := ownerGeometry{nodes: 4, count: 2 * 2048, memNodes: 2, blockBytes: 32 << 10, maxKeys: 4096}
	m, ls, va := g.build(t)
	own, ok := kvmsr.NewOwner(m.Arch, ls, m.GAS.RegionOf(va), ownerRecordBytes)
	if !ok {
		t.Fatal("NewOwner: binding does not apply")
	}
	body := m.Prog.Define("body", func(c *updown.Ctx) {})
	for name, spec := range map[string]kvmsr.Spec{
		"map":    {Name: "m", MapEvent: body, MapBinding: own, Lanes: kvmsr.AllLanes(m.Arch)},
		"reduce": {Name: "r", MapEvent: body, ReduceEvent: body, ReduceBinding: own, Lanes: kvmsr.AllLanes(m.Arch)},
	} {
		if _, err := kvmsr.New(m.Prog, spec); err == nil {
			t.Errorf("%s binding built for nodes 0-1 accepted on a 4-node lane set", name)
		}
	}
	if _, err := kvmsr.New(m.Prog, kvmsr.Spec{Name: "ok", MapEvent: body, MapBinding: own, Lanes: ls}); err != nil {
		t.Errorf("binding refused on its own lane set: %v", err)
	}
}
