package graph

import (
	"fmt"

	"updown/internal/prng"
)

// RMATEdges generates 2^scale vertices with edgeFactor*2^scale edges using
// the recursive-matrix model of Chakrabarti et al. The paper's synthetic
// graphs use a = 0.57, b = c = 0.19 and an edge factor of 16 (artifact
// appendix). Generation is fully deterministic in the seed.
func RMATEdges(scale, edgeFactor int, a, b, c float64, seed uint64) []Edge {
	if a+b+c >= 1.0 {
		panic(fmt.Sprintf("graph: RMAT probabilities a+b+c = %v must be < 1", a+b+c))
	}
	n := 1 << scale
	m := n * edgeFactor
	rng := prng.NewStream(seed)
	edges := make([]Edge, m)
	for i := range edges {
		src, dst := 0, 0
		for bit := scale - 1; bit >= 0; bit-- {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left: neither bit set
			case r < a+b:
				dst |= 1 << bit
			case r < a+b+c:
				src |= 1 << bit
			default:
				src |= 1 << bit
				dst |= 1 << bit
			}
		}
		edges[i] = Edge{uint32(src), uint32(dst)}
	}
	return edges
}

// DefaultRMAT uses the paper's parameters (a=0.57, b=c=0.19, ef=16).
func DefaultRMAT(scale int, seed uint64) []Edge {
	return RMATEdges(scale, 16, 0.57, 0.19, 0.19, seed)
}

// ErdosRenyiEdges generates n*avgDeg uniformly random edges — the paper's
// Erdős–Rényi workload (its scale-28 ER graph is where PR peaks).
func ErdosRenyiEdges(n int, avgDeg int, seed uint64) []Edge {
	rng := prng.NewStream(seed)
	m := n * avgDeg
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{uint32(rng.Intn(n)), uint32(rng.Intn(n))}
	}
	return edges
}

// ForestFireEdges grows a graph by the Forest Fire model (simplified
// Leskovec et al.): each new vertex links to an ambassador and recursively
// "burns" a geometric number of the ambassador's neighbors. pForward is
// the forward-burning probability. Produces heavy-tailed degree and
// community structure distinct from RMAT.
func ForestFireEdges(n int, pForward float64, seed uint64) []Edge {
	rng := prng.NewStream(seed)
	adj := make([][]uint32, n)
	var edges []Edge
	link := func(u, v uint32) {
		edges = append(edges, Edge{u, v})
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	burned := make(map[uint32]bool)
	var queue []uint32
	for v := 1; v < n; v++ {
		amb := uint32(rng.Intn(v))
		for k := range burned {
			delete(burned, k)
		}
		queue = queue[:0]
		burned[uint32(v)] = true
		burned[amb] = true
		link(uint32(v), amb)
		queue = append(queue, amb)
		// Bounded burn so generation stays near-linear.
		budget := 16
		for len(queue) > 0 && budget > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range adj[u] {
				if burned[w] || budget <= 0 {
					continue
				}
				if rng.Float64() < pForward {
					burned[w] = true
					budget--
					link(uint32(v), w)
					queue = append(queue, w)
				}
			}
		}
	}
	return edges
}

// Preset names a reduced-scale stand-in for one of the paper's datasets.
// The proprietary-scale SNAP graphs (soc-LiveJournal, com-orkut, Twitter,
// friendster) do not fit a host-scale simulation; these presets reproduce
// each graph's qualitative character — skew and relative density — at a
// configurable scale, which is what the scaling shapes in Figure 9 depend
// on.
type Preset struct {
	Name string
	// Build generates the edge list at the given scale (log2 vertices).
	Build func(scale int, seed uint64) []Edge
	// Undirected marks presets built symmetrically.
	Undirected bool
}

// Presets lists the workloads used across the benchmark harness.
var Presets = []Preset{
	{Name: "rmat", Build: func(s int, seed uint64) []Edge {
		return DefaultRMAT(s, seed)
	}},
	{Name: "erdos-renyi", Build: func(s int, seed uint64) []Edge {
		return ErdosRenyiEdges(1<<s, 16, seed)
	}},
	{Name: "forest-fire", Build: func(s int, seed uint64) []Edge {
		return ForestFireEdges(1<<s, 0.35, seed)
	}, Undirected: true},
	// soc-livej stand-in: moderate skew, moderate density.
	{Name: "soc-livej", Build: func(s int, seed uint64) []Edge {
		return RMATEdges(s, 12, 0.52, 0.22, 0.22, seed)
	}},
	// com-orkut stand-in: denser, flatter degree distribution,
	// undirected.
	{Name: "com-orkut", Build: func(s int, seed uint64) []Edge {
		return RMATEdges(s, 20, 0.45, 0.22, 0.22, seed)
	}, Undirected: true},
	// twitter stand-in: heavy skew.
	{Name: "twitter", Build: func(s int, seed uint64) []Edge {
		return RMATEdges(s, 18, 0.62, 0.17, 0.17, seed)
	}},
	// friendster stand-in: large, mild skew, undirected.
	{Name: "friendster", Build: func(s int, seed uint64) []Edge {
		return RMATEdges(s, 14, 0.50, 0.20, 0.20, seed)
	}, Undirected: true},
}

// PresetByName finds a preset.
func PresetByName(name string) (Preset, error) {
	for _, p := range Presets {
		if p.Name == name {
			return p, nil
		}
	}
	return Preset{}, fmt.Errorf("graph: unknown preset %q", name)
}

// BuildPreset generates the named preset at scale as every driver uses it:
// deduplicated, without self-loops, neighbor lists sorted, and undirected
// when the preset is or when forceUndirected asks for it.
func BuildPreset(name string, scale int, seed uint64, forceUndirected bool) (*Graph, error) {
	p, err := PresetByName(name)
	if err != nil {
		return nil, err
	}
	return FromEdges(1<<scale, p.Build(scale, seed), BuildOptions{
		Undirected:    p.Undirected || forceUndirected,
		Dedup:         true,
		DropSelfLoops: true,
		SortNeighbors: true,
	}), nil
}
