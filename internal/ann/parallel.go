package ann

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The bounded-pool helpers every build kernel fans out through — the
// k-means here and the model builders in internal/rec, which imports this
// package. Each kernel is designed so its floating-point result is
// bit-identical at any worker count (every accumulator is owned by exactly
// one worker and sums its terms in a fixed order): fn(0) runs on the
// calling goroutine when workers == 1, so the serial path spawns nothing,
// and chunk boundaries depend only on (n, workers), so chunked writes are
// conflict-free.

// RunWorkers runs fn(w) for every w in [0, workers).
func RunWorkers(workers int, fn func(w int)) {
	if workers <= 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// Barrier holds each of a fixed number of workers in Wait until all of
// them have arrived, then releases them together; it is ready for the
// next round at once. A kernel whose rounds depend on each other runs
// them all inside one RunWorkers call with a Wait between rounds, rather
// than starting its workers afresh per round. Everything a worker wrote
// before its Wait is visible to every worker after it.
type Barrier struct {
	n       int32
	arrived atomic.Int32
	round   atomic.Uint64
	mu      sync.Mutex // with cond: the wait of a worker that stopped spinning
	cond    sync.Cond
}

// barrierSpins is how many times a waiting worker yields before it sleeps.
// A worker that sleeps pays a wake-up every round, and a round of the SVD
// trainer at a ledger shard's shape is ~15 µs. Alone, BenchmarkBuildSVD
// reads the same either way; with two shards building at once on two
// cores, the ledger's setup_s read lower with the spin than with a wait
// that sleeps at once in 7 of 10 alternating pairs, medians −8 %
// (recommend.scan) and −5 % (lookup.routed), go1.24/amd64. A worker
// whose peer was descheduled spins for little.
const barrierSpins = 100

// NewBarrier returns a barrier for workers workers.
func NewBarrier(workers int) *Barrier {
	b := &Barrier{n: int32(workers)}
	b.cond.L = &b.mu
	return b
}

// Wait blocks until every worker has called Wait in this round.
func (b *Barrier) Wait() {
	round := b.round.Load()
	if b.arrived.Add(1) == b.n {
		// Reset before release: a released worker's next Wait counts
		// toward the next round.
		b.arrived.Store(0)
		b.mu.Lock()
		b.round.Add(1)
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	for range barrierSpins {
		if b.round.Load() != round {
			return
		}
		runtime.Gosched()
	}
	b.mu.Lock()
	for b.round.Load() == round {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// RunChunks splits [0, n) into one contiguous chunk per worker and runs
// fn(w, lo, hi) on each; every index belongs to exactly one chunk.
func RunChunks(workers, n int, fn func(w, lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	RunWorkers(workers, func(w int) {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		if lo < hi {
			fn(w, lo, hi)
		}
	})
}

// MixSeed derives an independent RNG seed from a base seed and a position
// in the deterministic schedule (epoch, rotation, shard, ...), using
// splitmix64 finalization so nearby schedule positions get uncorrelated
// streams.
func MixSeed(seed int64, parts ...int64) int64 {
	z := uint64(seed)
	for _, p := range parts {
		z += 0x9e3779b97f4a7c15 + uint64(p)
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z)
}
