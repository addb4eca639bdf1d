package sim

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// inEnvs runs body once under a RealEnv and once inside a Kernel process,
// so every Ordered property is checked in both worlds.
func inEnvs(t *testing.T, body func(t *testing.T, env Env)) {
	t.Run("real", func(t *testing.T) { body(t, NewRealEnv()) })
	t.Run("kernel", func(t *testing.T) {
		k := NewKernel()
		k.Go("test", func() { body(t, k) })
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// Loads finish out of order (staggered sleeps), yet every index is folded
// exactly once, in order, with its own value, and no load starts more than
// workers indices ahead of the fold.
func TestOrderedFoldsInIndexOrder(t *testing.T) {
	inEnvs(t, func(t *testing.T, env Env) {
		for workers := 1; workers <= 8; workers++ {
			for n := 0; n <= 20; n++ {
				var foldedThrough atomic.Int64 // count of completed folds
				var got []int
				Ordered(env, "t", n, workers, func(i int) int {
					if ahead := int64(i) - foldedThrough.Load(); ahead >= int64(workers) {
						t.Errorf("workers=%d n=%d: load %d started %d ahead of the fold", workers, n, i, ahead)
					}
					env.Sleep(time.Duration((i*7)%5) * time.Microsecond)
					return i * i
				}, func(i, v int) bool {
					if v != i*i {
						t.Errorf("workers=%d n=%d: fold(%d) got value %d", workers, n, i, v)
					}
					got = append(got, i)
					foldedThrough.Store(int64(i + 1))
					return true
				})
				if len(got) != n {
					t.Fatalf("workers=%d n=%d: folded %d indices", workers, n, len(got))
				}
				for i, g := range got {
					if g != i {
						t.Fatalf("workers=%d n=%d: fold order %v", workers, n, got)
					}
				}
			}
		}
	})
}

// After fold returns false nothing past it is folded, no index is claimed
// once the stop is published, and every in-flight load has finished by the
// time Ordered returns.
func TestOrderedStopsAtFalse(t *testing.T) {
	inEnvs(t, func(t *testing.T, env Env) {
		_, virtual := env.(*Kernel)
		const n, stopAt = 20, 5
		for _, workers := range []int{1, 3, 8} {
			var mu sync.Mutex
			var started, finished, lastFold int
			stopped := false
			maxClaim := -1
			Ordered(env, "t", n, workers, func(i int) int {
				mu.Lock()
				// Under the Kernel only one process runs at a time, so
				// the fold's return and the stop it publishes are one
				// step: no load may start after it. In real time a
				// worker may legitimately claim between the two.
				if virtual && stopped {
					t.Errorf("workers=%d: load %d started after the fold stopped", workers, i)
				}
				started++
				maxClaim = max(maxClaim, i)
				mu.Unlock()
				env.Sleep(time.Millisecond)
				mu.Lock()
				finished++
				mu.Unlock()
				return i
			}, func(i, v int) bool {
				mu.Lock()
				defer mu.Unlock()
				lastFold = i
				stopped = i == stopAt
				return !stopped
			})
			mu.Lock()
			if lastFold != stopAt {
				t.Errorf("workers=%d: last fold %d, want %d", workers, lastFold, stopAt)
			}
			if started != finished {
				t.Errorf("workers=%d: %d loads started but %d finished before return", workers, started, finished)
			}
			if maxClaim >= stopAt+workers {
				t.Errorf("workers=%d: claimed index %d past the window of the stopping fold %d", workers, maxClaim, stopAt)
			}
			mu.Unlock()
		}
	})
}

// With one worker the pipeline degenerates to load, fold, load, fold: load
// i+1 never starts before fold(i) returns.
func TestOrderedOneWorkerAlternates(t *testing.T) {
	inEnvs(t, func(t *testing.T, env Env) {
		var foldReturned atomic.Int64
		foldReturned.Store(-1)
		Ordered(env, "t", 12, 1, func(i int) int {
			if prev := foldReturned.Load(); prev != int64(i-1) {
				t.Errorf("load %d started with last completed fold %d", i, prev)
			}
			env.Sleep(time.Microsecond)
			return i
		}, func(i, v int) bool {
			env.Sleep(time.Microsecond) // give a runaway worker time to start
			foldReturned.Store(int64(i))
			return true
		})
	})
}

// Under the Kernel, n loads of d each on w workers take exactly ceil(n/w)
// rounds of d: the window never idles a worker when folds are free.
func TestOrderedKernelMakespan(t *testing.T) {
	const d = time.Millisecond
	for w := 1; w <= 8; w++ {
		for n := 0; n <= 20; n++ {
			k := NewKernel()
			var took time.Duration
			k.Go("test", func() {
				start := k.Now()
				Ordered(k, "t", n, w, func(int) struct{} {
					k.Sleep(d)
					return struct{}{}
				}, func(int, struct{}) bool { return true })
				took = k.Now() - start
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if want := time.Duration((n+w-1)/w) * d; took != want {
				t.Errorf("n=%d w=%d: took %v, want %v", n, w, took, want)
			}
		}
	}
}
