// Package baseline provides host-CPU reference implementations of the
// paper's graph kernels (PageRank, BFS, triangle counting). They serve two
// purposes: correctness oracles for the simulated UpDown applications
// (identical results modulo floating-point association), and the
// "conventional multicore" comparator the benchmark harness reports
// against, standing in for the paper's external Perlmutter/EOS numbers.
package baseline

import (
	"runtime"
	"sync"

	"updown/internal/graph"
)

// Damping is the PageRank damping factor used across the repository.
const Damping = 0.85

// PageRank runs iters push-style power iterations and returns the final
// values. Sequential reference.
func PageRank(g *graph.Graph, iters int) []float64 {
	n := g.N
	cur := make([]float64, n)
	next := make([]float64, n)
	for v := range cur {
		cur[v] = 1.0 / float64(n)
	}
	for it := 0; it < iters; it++ {
		base := (1 - Damping) / float64(n)
		for v := range next {
			next[v] = base
		}
		for v := uint32(0); int(v) < n; v++ {
			ns := g.Neighbors(v)
			if len(ns) == 0 {
				continue
			}
			share := Damping * cur[v] / float64(len(ns))
			for _, d := range ns {
				next[d] += share
			}
		}
		cur, next = next, cur
	}
	return cur
}

// PageRankParallel is the goroutine-parallel multicore version (pull
// direction over a transposed graph would avoid atomics; here each worker
// accumulates privately and merges, which matches how a tuned multicore
// push implementation behaves).
func PageRankParallel(g *graph.Graph, iters, workers int) []float64 {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := g.N
	cur := make([]float64, n)
	for v := range cur {
		cur[v] = 1.0 / float64(n)
	}
	private := make([][]float64, workers)
	for w := range private {
		private[w] = make([]float64, n)
	}
	for it := 0; it < iters; it++ {
		var wg sync.WaitGroup
		chunk := (n + workers - 1) / workers
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				acc := private[w]
				for i := range acc {
					acc[i] = 0
				}
				lo, hi := w*chunk, (w+1)*chunk
				if hi > n {
					hi = n
				}
				for v := lo; v < hi; v++ {
					ns := g.Neighbors(uint32(v))
					if len(ns) == 0 {
						continue
					}
					share := Damping * cur[v] / float64(len(ns))
					for _, d := range ns {
						acc[d] += share
					}
				}
			}(w)
		}
		wg.Wait()
		next := make([]float64, n)
		base := (1 - Damping) / float64(n)
		var wg2 sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg2.Add(1)
			go func(w int) {
				defer wg2.Done()
				lo, hi := w*chunk, (w+1)*chunk
				if hi > n {
					hi = n
				}
				for v := lo; v < hi; v++ {
					s := base
					for _, acc := range private {
						s += acc[v]
					}
					next[v] = s
				}
			}(w)
		}
		wg2.Wait()
		cur = next
	}
	return cur
}

// Unreached marks vertices BFS never visited.
const Unreached = ^uint32(0)

// BFS returns the hop distance from root for every vertex (Unreached when
// unreachable). Sequential level-synchronous reference.
func BFS(g *graph.Graph, root uint32) []uint32 {
	dist := make([]uint32, g.N)
	for v := range dist {
		dist[v] = Unreached
	}
	dist[root] = 0
	frontier := []uint32{root}
	for depth := uint32(1); len(frontier) > 0; depth++ {
		var next []uint32
		for _, u := range frontier {
			for _, v := range g.Neighbors(u) {
				if dist[v] == Unreached {
					dist[v] = depth
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return dist
}

// BFSParallel is the goroutine-parallel level-synchronous version.
func BFSParallel(g *graph.Graph, root uint32, workers int) []uint32 {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	dist := make([]uint32, g.N)
	for v := range dist {
		dist[v] = Unreached
	}
	dist[root] = 0
	frontier := []uint32{root}
	for depth := uint32(1); len(frontier) > 0; depth++ {
		nexts := make([][]uint32, workers)
		var wg sync.WaitGroup
		chunk := (len(frontier) + workers - 1) / workers
		var mu sync.Mutex
		for w := 0; w < workers; w++ {
			lo, hi := w*chunk, (w+1)*chunk
			if hi > len(frontier) {
				hi = len(frontier)
			}
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				var local []uint32
				for _, u := range frontier[lo:hi] {
					for _, v := range g.Neighbors(u) {
						mu.Lock()
						if dist[v] == Unreached {
							dist[v] = depth
							local = append(local, v)
						}
						mu.Unlock()
					}
				}
				nexts[w] = local
			}(w, lo, hi)
		}
		wg.Wait()
		frontier = frontier[:0]
		for _, l := range nexts {
			frontier = append(frontier, l...)
		}
	}
	return dist
}

// TriangleCount returns the per-edge intersection total
// sum over edges (u,v) with u > v of |N(u) ∩ N(v)|, matching the paper's
// TC formulation (Section 4.3.2). On an undirected graph with sorted,
// deduplicated adjacency this equals 3x the triangle count.
func TriangleCount(g *graph.Graph) uint64 {
	var total uint64
	for u := uint32(0); int(u) < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			if u > v {
				total += intersectSize(g.Neighbors(u), g.Neighbors(v))
			}
		}
	}
	return total
}

// TriangleCountParallel distributes vertices across workers.
func TriangleCountParallel(g *graph.Graph, workers int) uint64 {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var total uint64
			for u := uint32(w); int(u) < g.N; u += uint32(workers) {
				for _, v := range g.Neighbors(u) {
					if u > v {
						total += intersectSize(g.Neighbors(u), g.Neighbors(v))
					}
				}
			}
			results[w] = total
		}(w)
	}
	wg.Wait()
	var total uint64
	for _, r := range results {
		total += r
	}
	return total
}

// intersectSize merges two sorted lists.
func intersectSize(a, b []uint32) uint64 {
	var n uint64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Triangles converts the intersection total to a triangle count.
func Triangles(total uint64) uint64 { return total / 3 }
