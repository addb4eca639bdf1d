package sim

import (
	"fmt"
	"runtime"
)

// DefaultWorkers is the worker count a pool uses when its caller leaves
// the width unset: one per core, capped at 8.
func DefaultWorkers() int { return min(runtime.GOMAXPROCS(0), 8) }

// Ordered runs load(i) for every i in [0, n) on up to workers processes of
// env and calls fold(i, v) on the calling process strictly in index order.
// Workers claim indices in order, and no load starts more than workers
// indices ahead of the fold, so with one worker load(i+1) starts only after
// fold(i) has returned. When fold returns false no further index is
// claimed; loads already in flight finish and are discarded. Ordered
// returns after every worker has exited. workers <= 0 selects
// DefaultWorkers(). Under the Kernel the caller must itself be a process.
func Ordered[T any](env Env, name string, n, workers int, load func(i int) T, fold func(i int, v T) bool) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	workers = min(workers, n)
	mu := env.NewMutex()
	cond := env.NewCond(mu)
	// Index i lives in slot i%workers: the window guarantees index
	// i-workers was folded, and its slot emptied, before i is claimed.
	vals := make([]T, workers)
	ready := make([]bool, workers)
	next, folded, live, stop := 0, 0, workers, false
	for w := 0; w < workers; w++ {
		env.Go(fmt.Sprintf("%s-%d", name, w), func() {
			mu.Lock()
			for {
				for !stop && next < n && next >= folded+workers {
					cond.Wait()
				}
				if stop || next >= n {
					live--
					cond.Broadcast()
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				v := load(i)
				mu.Lock()
				vals[i%workers], ready[i%workers] = v, true
				cond.Broadcast()
			}
		})
	}
	mu.Lock()
	for i := 0; i < n && !stop; i++ {
		s := i % workers
		for !ready[s] {
			cond.Wait()
		}
		v := vals[s]
		var zero T
		vals[s], ready[s] = zero, false
		mu.Unlock()
		ok := fold(i, v)
		mu.Lock()
		folded, stop = i+1, !ok
		cond.Broadcast()
	}
	for live > 0 {
		cond.Wait()
	}
	mu.Unlock()
}
