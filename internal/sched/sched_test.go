package sched

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// TestRunCompletesAllJobs: every index runs exactly once for any pool size.
func TestRunCompletesAllJobs(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16, 0} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 97
			var ran [n]atomic.Int32
			// Each worker bumps only its own slot, so the per-worker job
			// counts need no synchronisation.
			jobs := make([]int, max(workers, runtime.GOMAXPROCS(0)))
			ws, err := Run(Options{Workers: workers}, n, func(w *Worker, i int) error {
				ran[i].Add(1)
				jobs[w.ID()]++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range ran {
				if got := ran[i].Load(); got != 1 {
					t.Errorf("job %d ran %d times", i, got)
				}
			}
			total := 0
			for wi, w := range ws {
				if w.Worker != wi {
					t.Errorf("stats[%d] is worker %d", wi, w.Worker)
				}
				total += jobs[w.Worker]
			}
			if total != n {
				t.Errorf("merged jobs = %d, want %d", total, n)
			}
		})
	}
}

// TestRunZeroJobs: an empty job list is a no-op, not a hang.
func TestRunZeroJobs(t *testing.T) {
	ws, err := Run(Options{Workers: 4}, 0, func(w *Worker, i int) error {
		t.Error("job ran")
		return nil
	})
	if err != nil || len(ws) != 0 {
		t.Fatalf("ws=%v err=%v", ws, err)
	}
}

// TestRunErrorIsLowestIndex: the reported error is deterministic — the
// lowest failing index wins regardless of scheduling.
func TestRunErrorIsLowestIndex(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Run(Options{Workers: workers}, 40, func(w *Worker, i int) error {
			if i%10 == 3 { // 3, 13, 23, 33 fail
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		// Workers abort after the first failure; with >1 workers a later
		// failing index may already be in flight, but index 3 always runs
		// (claimed before any abort can outrun the first 4 claims when
		// workers <= 4) and must be the one reported.
		if got := err.Error(); got != "job 3 failed" {
			t.Errorf("workers=%d: err = %q, want job 3", workers, got)
		}
	}
}

// TestRunJobPanicIsError: a panicking job fails like an erroring one. The
// process survives, the error's first line names the job and the panic
// value at every worker count, and the Go stack follows it.
func TestRunJobPanicIsError(t *testing.T) {
	var first []string
	for _, workers := range []int{1, 4} {
		_, err := Run(Options{Workers: workers}, 40, func(w *Worker, i int) error {
			if i == 3 {
				var m map[string]int
				m["boom"]++ // a host panic: assignment to a nil map
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: panic not reported", workers)
		}
		line, stack, _ := strings.Cut(err.Error(), "\n")
		if !strings.Contains(line, "job 3") || !strings.Contains(line, "nil map") {
			t.Errorf("workers=%d: first line %q does not name job 3 and the panic", workers, line)
		}
		if !strings.Contains(stack, "goroutine") || !strings.Contains(stack, "TestRunJobPanicIsError") {
			t.Errorf("workers=%d: no stack after the first line:\n%s", workers, stack)
		}
		first = append(first, line)
	}
	if first[0] != first[1] {
		t.Errorf("first line differs across worker counts: %q vs %q", first[0], first[1])
	}
}

// TestPooledBuildsOncePerWorker: the pool memoises per key and evicts LRU
// beyond poolCap.
func TestPooledBuildsOncePerWorker(t *testing.T) {
	w := newWorker(0)
	builds := 0
	get := func(key string) string {
		v, err := Pooled(w, key, func() (string, error) {
			builds++
			return "v:" + key, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if get("a") != "v:a" || get("a") != "v:a" || get("b") != "v:b" {
		t.Fatal("wrong pooled values")
	}
	if builds != 2 {
		t.Fatalf("builds = %d, want 2", builds)
	}
	get("c")
	get("d") // the pool is full: d, c, b, a
	get("a") // refreshes a: a, d, c, b
	if builds != 4 {
		t.Fatalf("builds = %d, want 4 (evicted before the cap)", builds)
	}
	get("e") // evicts b, the least recently used
	get("a") // still pooled
	if builds != 5 {
		t.Fatalf("builds = %d, want 5 (a evicted too early)", builds)
	}
	get("b") // rebuilt after eviction
	if builds != 6 {
		t.Fatalf("builds = %d, want 6 (b not evicted)", builds)
	}
}

// TestPooledBuildErrorNotCached: a failed build is retried.
func TestPooledBuildErrorNotCached(t *testing.T) {
	w := newWorker(0)
	calls := 0
	build := func() (int, error) {
		calls++
		if calls == 1 {
			return 0, fmt.Errorf("transient")
		}
		return 7, nil
	}
	if _, err := Pooled(w, "k", build); err == nil {
		t.Fatal("expected error")
	}
	v, err := Pooled(w, "k", build)
	if err != nil || v != 7 {
		t.Fatalf("v=%d err=%v", v, err)
	}
}

// TestSplitDeterministicAndDispersed: Split is reproducible, index-
// sensitive, and never maps distinct small indices to the same seed.
func TestSplitDeterministicAndDispersed(t *testing.T) {
	if Split(7, 0) != Split(7, 0) {
		t.Fatal("Split not deterministic")
	}
	seen := map[int64]int{}
	for i := 0; i < 10000; i++ {
		s := Split(7, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("Split(7,%d) == Split(7,%d)", i, prev)
		}
		seen[s] = i
	}
	if Split(7, 1) == Split(8, 1) {
		t.Error("base seed ignored")
	}
}

// TestRunWorkerCountCapped: more workers than jobs must not deadlock or
// run anything twice.
func TestRunWorkerCountCapped(t *testing.T) {
	var ran atomic.Int32
	ws, err := Run(Options{Workers: 64}, 3, func(w *Worker, i int) error {
		ran.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 3 {
		t.Fatalf("ran = %d, want 3", ran.Load())
	}
	if len(ws) > 3 {
		t.Fatalf("spawned %d workers for 3 jobs", len(ws))
	}
	_ = runtime.GOMAXPROCS(0)
}
