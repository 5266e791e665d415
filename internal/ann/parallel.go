package ann

import "sync"

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
