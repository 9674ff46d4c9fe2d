// Package pointqtest builds the resident machine the point-engine tests
// share.
package pointqtest

import (
	"testing"

	"updown"
	"updown/internal/graph"
	"updown/internal/kvmsr"
)

// Machine returns a machine with g split at degree 16 and loaded,
// coalescing on (the serving configuration), ready for a NewPoint call.
func Machine(t testing.TB, g *graph.Graph, nodes, shards int) (*updown.Machine, *graph.DeviceGraph) {
	t.Helper()
	m, err := updown.New(updown.Config{Nodes: nodes, Shards: shards, MaxTime: 1 << 42,
		Coalesce: &kvmsr.Coalesce{}})
	if err != nil {
		t.Fatal(err)
	}
	dg, err := graph.LoadToGAS(m.GAS, graph.Split(g, 16), graph.DefaultPlacement(nodes))
	if err != nil {
		t.Fatal(err)
	}
	return m, dg
}
