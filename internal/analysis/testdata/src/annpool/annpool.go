// Package annpool follows the k-means worker-pool discipline of
// internal/ann: chunk-disjoint writes in the assignment step, one owner
// per centroid in the update step (here by modulo; no lock — each centroid has
// exactly one writer and the pool joins before anyone reads), per-worker
// counters merged serially after the join, an atomic progress counter
// that is only ever touched through sync/atomic, and a mutex-guarded
// stats map whose every access holds the lock. Every shared access here
// is sanctioned; locksafe must stay silent.
package annpool

import (
	"sync"
	"sync/atomic"
)

// Pool carries the shared state of one clustering run. centroids is
// deliberately unguarded: workers partition it by ownership (worker w
// touches only centroids ≡ w mod workers) and synchronize via the
// WaitGroup join, the same discipline as the real index build.
type Pool struct {
	centroids [][]float64

	// assigned is only accessed through sync/atomic (progress reporting
	// from every worker); a plain read anywhere would be flagged.
	assigned uint64

	mu    sync.Mutex
	moves map[int]int // per-round reassignment counts, guarded by mu
}

// Assign writes each item's nearest centroid into assign. The chunks are
// disjoint, so assign[i] and changed[w] each have exactly one writer; the
// centroid table is read-only while the pool runs.
func (p *Pool) Assign(round int, vecs [][]float64, assign []int32, workers int) int {
	n := len(vecs)
	changed := make([]int, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			lo := w * n / workers
			hi := (w + 1) * n / workers
			for i := lo; i < hi; i++ {
				best := nearest(p.centroids, vecs[i])
				if assign[i] != best {
					assign[i] = best
					changed[w]++
				}
				atomic.AddUint64(&p.assigned, 1)
			}
		}(w)
	}
	wg.Wait()
	moved := 0
	for w := range changed {
		moved += changed[w]
	}
	p.mu.Lock()
	p.moves[round] = moved
	p.mu.Unlock()
	return moved
}

// Update recomputes centroids: worker w owns centroids ≡ w mod workers,
// so each centroid slice has exactly one writer and the sums accumulate
// in a fixed item order regardless of the worker count.
func (p *Pool) Update(vecs [][]float64, assign []int32, workers int) {
	k := len(p.centroids)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for c := w; c < k; c += workers {
				sum := make([]float64, len(p.centroids[c]))
				count := 0
				for i := range vecs {
					if int(assign[i]) != c {
						continue
					}
					for d, v := range vecs[i] {
						sum[d] += v
					}
					count++
				}
				if count == 0 {
					continue // an empty cluster keeps its previous centroid
				}
				for d := range sum {
					sum[d] /= float64(count)
				}
				p.centroids[c] = sum
			}
		}(w)
	}
	wg.Wait()
}

// Progress reads the atomic item counter the workers bump.
func (p *Pool) Progress() uint64 {
	return atomic.LoadUint64(&p.assigned)
}

// MovesAt reads one round's reassignment count under the lock.
func (p *Pool) MovesAt(round int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.moves[round]
}

// nearest scans a centroid table snapshot for v's closest centroid.
func nearest(centroids [][]float64, v []float64) int32 {
	best := int32(0)
	bestD := -1.0
	for c := range centroids {
		d := 0.0
		for i, x := range centroids[c] {
			diff := x - v[i]
			d += diff * diff
		}
		if bestD < 0 || d < bestD {
			bestD = d
			best = int32(c)
		}
	}
	return best
}
