package sched

import "fmt"

// nodeAlloc hands out contiguous whole-node runs first-fit and coalesces
// adjacent runs on release. Partitions are node-granular on purpose: a
// job confined to whole nodes shares no lanes, no injection ports and no
// memory controllers with any concurrent job, which is what makes a
// job's simulated timeline bit-identical to a solo run of the same job
// on the same nodes.
type nodeAlloc struct {
	total int
	// free holds maximal free runs sorted by first node.
	free []nodeRun
}

type nodeRun struct{ first, n int }

func newNodeAlloc(total int) *nodeAlloc {
	return &nodeAlloc{total: total, free: []nodeRun{{0, total}}}
}

// alloc reserves the first free run that fits n nodes.
func (a *nodeAlloc) alloc(n int) (first int, ok bool) {
	for i, r := range a.free {
		if r.n >= n {
			a.take(i, r.first, n)
			return r.first, true
		}
	}
	return 0, false
}

// allocAt reserves exactly nodes [first, first+n), used by pinned
// placements (solo-replay verification).
func (a *nodeAlloc) allocAt(first, n int) bool {
	for i, r := range a.free {
		if r.first <= first && first+n <= r.first+r.n {
			a.take(i, first, n)
			return true
		}
	}
	return false
}

// take carves [first, first+n) out of free run i.
func (a *nodeAlloc) take(i, first, n int) {
	r := a.free[i]
	var repl []nodeRun
	if first > r.first {
		repl = append(repl, nodeRun{r.first, first - r.first})
	}
	if end := first + n; end < r.first+r.n {
		repl = append(repl, nodeRun{end, r.first + r.n - end})
	}
	a.free = append(a.free[:i], append(repl, a.free[i+1:]...)...)
}

// release returns [first, first+n) to the free list, coalescing with
// adjacent runs.
func (a *nodeAlloc) release(first, n int) {
	i := 0
	for i < len(a.free) && a.free[i].first < first {
		i++
	}
	// Guard against double-release: the new run must not overlap its
	// neighbors.
	if i > 0 && a.free[i-1].first+a.free[i-1].n > first {
		panic(fmt.Sprintf("sched: release [%d,%d) overlaps free run [%d,%d)",
			first, first+n, a.free[i-1].first, a.free[i-1].first+a.free[i-1].n))
	}
	if i < len(a.free) && first+n > a.free[i].first {
		panic(fmt.Sprintf("sched: release [%d,%d) overlaps free run [%d,%d)",
			first, first+n, a.free[i].first, a.free[i].first+a.free[i].n))
	}
	a.free = append(a.free[:i], append([]nodeRun{{first, n}}, a.free[i:]...)...)
	// Coalesce with the right neighbor, then the left.
	if i+1 < len(a.free) && a.free[i].first+a.free[i].n == a.free[i+1].first {
		a.free[i].n += a.free[i+1].n
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].first+a.free[i-1].n == a.free[i].first {
		a.free[i-1].n += a.free[i].n
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}
