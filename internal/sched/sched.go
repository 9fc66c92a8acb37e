// Package sched is EMBSAN's deterministic parallel campaign executor. It
// runs independent, index-addressed jobs (fuzzing campaigns, replay sweeps,
// overhead probes) across a pool of workers, where each worker owns warmed
// emulated machines that are reset between jobs via snapshot/restore
// instead of full re-construction.
//
// Determinism contract: a job must be a pure function of its index — seeds
// are derived per index with Split, and pooled machines are fully rewound
// (Machine.Restore + Machine.Reseed, Runtime.Restore) before reuse — so
// merged results are bit-identical regardless of worker count or which
// worker happens to claim which job.
//
// Race invariant: one Machine per goroutine, merge by index. Each worker
// exclusively owns its pooled machines; a job writes its result only at its
// own index; the caller reads merged results in index order only after Run
// returns. The only cross-goroutine traffic is the atomic job cursor and the
// per-index result/error slots, each touched by exactly one job.
package sched

import (
	"container/list"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"embsan/internal/obs"
	"embsan/internal/obs/timeline"
)

// Options tunes the executor.
type Options struct {
	// Workers is the pool size. <= 0 means GOMAXPROCS; 1 runs every job
	// inline on the calling goroutine (the serial path).
	Workers int
}

// poolCap bounds how many warmed values each worker keeps. Eviction is
// least-recently-used and only affects warm-up cost, never results.
const poolCap = 4

// WorkerStats is one worker's final accounting. Per-worker work counts
// are folded from the campaigns each worker ran (see exps.Campaign.Worker).
type WorkerStats struct {
	Worker int
	// Elapsed is the worker's wall-clock lifetime. It is view-side only —
	// throughput columns divide execs by it — and must never feed any
	// byte-identity oracle (see exps.MaskWallClock).
	Elapsed time.Duration
}

// Worker is the per-goroutine context handed to every job it runs.
type Worker struct {
	id      int
	ring    *obs.Ring
	sampler *timeline.Sampler
	start   time.Time
	pool    map[string]*list.Element
	order   *list.List // front = most recently used
}

type poolEntry struct {
	key   string
	value any
}

func newWorker(id int) *Worker {
	return &Worker{id: id, start: time.Now(), pool: make(map[string]*list.Element), order: list.New()}
}

// ID returns the worker's pool index (0-based).
func (w *Worker) ID() int { return w.id }

// TraceRing returns the worker's event ring, lazily allocated at the given
// capacity (events). The ring is worker-private; jobs that capture traces
// Reset it at job start and copy events out at job end, so the buffer is
// reused across jobs without its contents leaking between them.
func (w *Worker) TraceRing(capacity int) *obs.Ring {
	if w.ring == nil || w.ring.Cap() != capacity {
		w.ring = obs.NewRing(capacity)
	}
	return w.ring
}

// TimelineSampler returns the worker's timeline sampler, lazily allocated
// with the given interval and sample capacity. Like TraceRing it is
// worker-private and reused across jobs: the job Resets it at start and
// copies samples out at end, so the preallocated buffers never leak
// between jobs and a steady-state campaign set allocates nothing per job.
func (w *Worker) TimelineSampler(interval uint64, maxSamples int) *timeline.Sampler {
	// Normalise like NewSampler does, so passing zeros on every job reuses
	// one default-shaped sampler instead of reallocating each time.
	if interval == 0 {
		interval = timeline.DefaultInterval
	}
	if maxSamples <= 0 {
		maxSamples = timeline.DefaultMaxSamples
	}
	if maxSamples < 2 {
		maxSamples = 2
	}
	if w.sampler == nil || w.sampler.BaseInterval() != interval || w.sampler.Cap() != maxSamples {
		w.sampler = timeline.NewSampler(interval, maxSamples)
	}
	return w.sampler
}

// Pooled returns the worker-local value for key, constructing it with
// build on first use. Values are private to one worker — this is what
// upholds the one-Machine-per-goroutine invariant — and the least
// recently used value is dropped once the worker holds more than poolCap.
func Pooled[T any](w *Worker, key string, build func() (T, error)) (T, error) {
	if el, ok := w.pool[key]; ok {
		w.order.MoveToFront(el)
		return el.Value.(*poolEntry).value.(T), nil
	}
	v, err := build()
	if err != nil {
		var zero T
		return zero, err
	}
	w.pool[key] = w.order.PushFront(&poolEntry{key: key, value: v})
	for w.order.Len() > poolCap {
		oldest := w.order.Back()
		w.order.Remove(oldest)
		delete(w.pool, oldest.Value.(*poolEntry).key)
	}
	return v, nil
}

// Run executes jobs 0..n-1 across the worker pool and returns per-worker
// stats. fn must uphold the determinism contract above. When any job
// fails, workers stop claiming new jobs, in-flight jobs finish, and the
// error of the lowest failing index is returned (deterministic across
// schedules). A job that panics fails with an error whose first line names
// its index and the panic value, followed by the Go stack; the process and
// the other workers survive it.
func Run(opts Options, n int, fn func(w *Worker, index int) error) ([]WorkerStats, error) {
	if n < 0 {
		return nil, fmt.Errorf("sched: negative job count %d", n)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if n == 0 {
		return nil, nil
	}

	if workers <= 1 {
		// Serial path: same pooling and seed derivation, no goroutines.
		w := newWorker(0)
		var err error
		for i := 0; i < n && err == nil; i++ {
			err = runJob(fn, w, i)
		}
		return []WorkerStats{{Worker: 0, Elapsed: time.Since(w.start)}}, err
	}

	var (
		cursor  atomic.Int64
		aborted atomic.Bool
		wg      sync.WaitGroup
	)
	errs := make([]error, n)
	stats := make([]WorkerStats, workers)
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := newWorker(wi)
			for !aborted.Load() {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					break
				}
				if err := runJob(fn, w, i); err != nil {
					errs[i] = err
					aborted.Store(true)
				}
			}
			stats[wi] = WorkerStats{Worker: wi, Elapsed: time.Since(w.start)}
		}(wi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// runJob runs job i, turning a panic into that job's error. The worker's
// pooled values may be left mid-job by the panic; Run stops claiming jobs
// after any failure and drops the worker, so none of them is reused.
func runJob(fn func(*Worker, int) error, w *Worker, i int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("sched: job %d panicked: %v\n%s", i, p, debug.Stack())
		}
	}()
	return fn(w, i)
}
