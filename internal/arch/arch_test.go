package arch

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultMachineValidates(t *testing.T) {
	for _, nodes := range []int{1, 2, 64, 1024, 16384} {
		m := DefaultMachine(nodes)
		if err := m.Validate(); err != nil {
			t.Fatalf("DefaultMachine(%d): %v", nodes, err)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []func(*Machine){
		func(m *Machine) { m.Nodes = 0 },
		func(m *Machine) { m.AccelsPerNode = -1 },
		func(m *Machine) { m.LanesPerAccel = 0 },
		func(m *Machine) { m.LatCrossNode = 0 },
		func(m *Machine) { m.LatSameAccel = m.LatSameNode + 1 },
		func(m *Machine) { m.InjectBytesPerCycle = 0 },
		func(m *Machine) { m.DRAMLatency = 0 },
		func(m *Machine) { m.MsgBytes = 0 },
	}
	for i, mutate := range cases {
		m := DefaultMachine(4)
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestValidateRejectsActorOverflow: a machine whose actors do not fit a
// NetworkID is a typed error, checked without overflowing int — the
// largest machine that fits still validates.
func TestValidateRejectsActorOverflow(t *testing.T) {
	for _, tc := range []struct {
		nodes, accels, lanes int
		ok                   bool
	}{
		{math.MaxInt32 / 2049, 32, 64, true},
		{math.MaxInt32/2049 + 1, 32, 64, false},
		{3000000, 32, 64, false},
		{1, math.MaxInt32, 1, false},    // 2^31-1 lanes + 1 controller
		{1, math.MaxInt32 - 1, 1, true}, // exactly 2^31-1 actors
		{1 << 40, 1 << 40, 1 << 40, false},
		{math.MaxInt, math.MaxInt, math.MaxInt, false},
	} {
		m := DefaultMachine(tc.nodes)
		m.AccelsPerNode, m.LanesPerAccel = tc.accels, tc.lanes
		err := m.Validate()
		if tc.ok != (err == nil) || (err != nil && !errors.Is(err, ErrTooManyActors)) {
			t.Errorf("%d nodes of %d×%d lanes: err = %v, want ok=%v or ErrTooManyActors", tc.nodes, tc.accels, tc.lanes, err, tc.ok)
		}
	}
}

func TestPaperMachineShape(t *testing.T) {
	// Section 3: 16,384 nodes, 32 accelerators/node, 64 lanes/accelerator
	// gives 2048 lanes/node and ~33M lanes total.
	m := DefaultMachine(16384)
	if got := m.LanesPerNode(); got != 2048 {
		t.Errorf("LanesPerNode = %d, want 2048", got)
	}
	if got := m.TotalLanes(); got != 33554432 {
		t.Errorf("TotalLanes = %d, want 33554432 (33M)", got)
	}
}

func TestLaneIDRoundTrip(t *testing.T) {
	m := DefaultMachine(8)
	for node := 0; node < m.Nodes; node++ {
		for accel := 0; accel < m.AccelsPerNode; accel += 7 {
			for lane := 0; lane < m.LanesPerAccel; lane += 13 {
				id := m.LaneID(node, accel, lane)
				if !m.IsLane(id) {
					t.Fatalf("LaneID(%d,%d,%d)=%d not a lane", node, accel, lane, id)
				}
				if m.NodeOf(id) != node || m.AccelOf(id) != accel || m.LaneOf(id) != lane {
					t.Fatalf("round trip failed for (%d,%d,%d): got (%d,%d,%d)",
						node, accel, lane, m.NodeOf(id), m.AccelOf(id), m.LaneOf(id))
				}
			}
		}
	}
}

func TestMemCtrlIDs(t *testing.T) {
	m := DefaultMachine(4)
	for n := 0; n < m.Nodes; n++ {
		id := m.MemCtrlID(n)
		if m.IsLane(id) {
			t.Errorf("MemCtrlID(%d)=%d classified as lane", n, id)
		}
		if int(id) < m.TotalLanes() || int(id) >= m.TotalActors() {
			t.Errorf("MemCtrlID(%d)=%d not classified as controller", n, id)
		}
		if m.NodeOf(id) != n {
			t.Errorf("NodeOf(MemCtrlID(%d)) = %d", n, m.NodeOf(id))
		}
	}
}

func TestLatencyClasses(t *testing.T) {
	m := DefaultMachine(4)
	sameLane := m.LaneID(0, 0, 0)
	sameAccel := m.LaneID(0, 0, 1)
	sameNode := m.LaneID(0, 1, 0)
	crossNode := m.LaneID(1, 0, 0)

	if got := m.Latency(sameLane, sameLane); got != m.LatSameLane {
		t.Errorf("same-lane latency %d, want %d", got, m.LatSameLane)
	}
	if got := m.Latency(sameLane, sameAccel); got != m.LatSameAccel {
		t.Errorf("same-accel latency %d, want %d", got, m.LatSameAccel)
	}
	if got := m.Latency(sameLane, sameNode); got != m.LatSameNode {
		t.Errorf("same-node latency %d, want %d", got, m.LatSameNode)
	}
	if got := m.Latency(sameLane, crossNode); got != m.LatCrossNode {
		t.Errorf("cross-node latency %d, want %d", got, m.LatCrossNode)
	}
	// Memory controller counts as a node resident.
	if got := m.Latency(sameLane, m.MemCtrlID(0)); got != m.LatSameNode {
		t.Errorf("lane->local controller latency %d, want %d", got, m.LatSameNode)
	}
	if got := m.Latency(sameLane, m.MemCtrlID(2)); got != m.LatCrossNode {
		t.Errorf("lane->remote controller latency %d, want %d", got, m.LatCrossNode)
	}
}

func TestLatencySymmetryProperty(t *testing.T) {
	m := DefaultMachine(8)
	f := func(a, b uint16) bool {
		src := NetworkID(int(a) % m.TotalActors())
		dst := NetworkID(int(b) % m.TotalActors())
		return m.Latency(src, dst) == m.Latency(dst, src)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLaneOperationCostsTable2 pins the paper's Table 2 cost model.
func TestLaneOperationCostsTable2(t *testing.T) {
	m := DefaultMachine(1)
	checks := []struct {
		name string
		got  Cycles
		want Cycles
	}{
		{"thread create", m.CostThreadCreate, 0},
		{"thread yield", m.CostThreadYield, 1},
		{"thread deallocate", m.CostThreadDealloc, 1},
		{"scratchpad load/store", m.CostScratchAccess, 1},
		{"send message", m.CostSendMessage, 2},
		{"send DRAM", m.CostSendDRAM, 2},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s cost = %d, want %d", c.name, c.got, c.want)
		}
	}
	// Sends cost 1-2 cycles in the paper; we charge the upper bound.
	if m.CostSendMessage < 1 || m.CostSendMessage > 2 {
		t.Errorf("send cost %d outside paper's 1-2 cycle range", m.CostSendMessage)
	}
}

func TestSeconds(t *testing.T) {
	m := DefaultMachine(1)
	// Artifact appendix: time[s] = ticks / 2e9.
	if got := m.Seconds(10582600 - 15000); got < 0.00528 || got > 0.00529 {
		t.Errorf("Seconds(PR example) = %v, want ~0.0053", got)
	}
}

func TestBandwidthDefaults(t *testing.T) {
	m := DefaultMachine(1)
	// 4 TB/s node injection at 2 GHz = 2000 B/cycle.
	if m.InjectBytesPerCycle != 2000 {
		t.Errorf("InjectBytesPerCycle = %d, want 2000", m.InjectBytesPerCycle)
	}
	// 9.4 TB/s node memory bandwidth at 2 GHz = 4700 B/cycle.
	if m.DRAMBytesPerCycle != 4700 {
		t.Errorf("DRAMBytesPerCycle = %d, want 4700", m.DRAMBytesPerCycle)
	}
	// 0.5 us cross-node latency at 2 GHz = 1000 cycles.
	if m.LatCrossNode != 1000 {
		t.Errorf("LatCrossNode = %d, want 1000", m.LatCrossNode)
	}
}
