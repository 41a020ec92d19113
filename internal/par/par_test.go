package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestClampWorkers(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	if got := ClampWorkers(0); got != max {
		t.Fatalf("ClampWorkers(0) = %d, want %d", got, max)
	}
	if got := ClampWorkers(-3); got != max {
		t.Fatalf("ClampWorkers(-3) = %d, want %d", got, max)
	}
	if got := ClampWorkers(1); got != 1 {
		t.Fatalf("ClampWorkers(1) = %d, want 1", got)
	}
	if got := ClampWorkers(max + 100); got != max {
		t.Fatalf("ClampWorkers(max+100) = %d, want %d", got, max)
	}
}

// TestFrontierExpandsWholeTree checks that a frontier-driven search
// visits every node of a synthetic tree exactly once and terminates,
// for several worker counts.
func TestFrontierExpandsWholeTree(t *testing.T) {
	const depth, fanout = 7, 3
	want := 0
	for d, n := 0, 1; d <= depth; d++ {
		want += n
		n *= fanout
	}
	for _, workers := range []int{1, 2, 4, 9} {
		fr := NewFrontier[int](workers)
		fr.Push(0, 0) // root at depth 0
		var visited, stolen atomic.Int64
		Run(workers, func(id int) {
			for {
				d, st, ok := fr.Pop(id)
				if !ok {
					return
				}
				if st {
					stolen.Add(1)
				}
				visited.Add(1)
				if d < depth {
					for c := 0; c < fanout; c++ {
						fr.Push(id, d+1)
					}
				}
			}
		})
		if got := visited.Load(); got != int64(want) {
			t.Fatalf("workers=%d: visited %d nodes, want %d", workers, got, want)
		}
		if workers == 1 && stolen.Load() != 0 {
			t.Fatalf("single worker stole %d tasks from itself", stolen.Load())
		}
	}
}

func TestFrontierAbortReleasesWaiters(t *testing.T) {
	const workers = 4
	fr := NewFrontier[int](workers)
	fr.Push(0, 0)
	var exited sync.WaitGroup
	for i := 0; i < workers; i++ {
		exited.Add(1)
		go func(id int) {
			defer exited.Done()
			for {
				v, _, ok := fr.Pop(id)
				if !ok {
					return
				}
				if v == 0 {
					// The lucky worker aborts the whole search; its
					// waiting peers must all be released.
					fr.Abort()
				}
			}
		}(i)
	}
	exited.Wait() // must not hang
	if _, _, ok := fr.Pop(0); ok {
		t.Fatal("Pop after Abort returned work")
	}
}

func TestRunReraisesWorkerPanic(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("worker panic was swallowed")
		}
	}()
	Run(3, func(id int) {
		if id == 1 {
			panic("boom")
		}
	})
}

func TestRunSingleWorkerInline(t *testing.T) {
	var ran bool
	Run(1, func(id int) {
		if id != 0 {
			t.Fatalf("id = %d", id)
		}
		ran = true
	})
	if !ran {
		t.Fatal("worker did not run")
	}
}

func TestClampWorkersFor(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	cases := []struct{ w, items, want int }{
		{0, 10, min(max, 10)},
		{1, 10, 1},
		{4, 2, min(min(4, max), 2)},
		{4, 0, 1},  // zero items still needs one worker
		{-3, 1, 1}, // negative request clamps like zero, then item cap
		{2, 1, 1},
	}
	for _, c := range cases {
		if got := ClampWorkersFor(c.w, c.items); got != c.want {
			t.Errorf("ClampWorkersFor(%d, %d) = %d, want %d", c.w, c.items, got, c.want)
		}
	}
	if got := ClampWorkersFor(0, 1<<30); got != max {
		t.Errorf("huge item count: got %d, want GOMAXPROCS %d", got, max)
	}
}

// TestOrderedCommitInOrder checks that commit sees every index exactly
// once, in strictly increasing order, with the value its producer
// returned — for worker counts covering the inline fast path, a small
// pool and heavy oversubscription, and windows smaller and larger than n.
func TestOrderedCommitInOrder(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	const n = 500
	for _, workers := range []int{1, 2, 4, 16} {
		for _, window := range []int{1, 3, 64, 2 * n} {
			var got []int
			OrderedCommit(workers, n, window,
				func(id, i int) int { return i * i },
				func(i, v int) bool {
					if v != i*i {
						t.Fatalf("workers=%d window=%d: commit(%d) got %d", workers, window, i, v)
					}
					got = append(got, i)
					return true
				})
			if len(got) != n {
				t.Fatalf("workers=%d window=%d: committed %d of %d", workers, window, len(got), n)
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("workers=%d window=%d: out of order at %d: %d", workers, window, i, v)
				}
			}
		}
	}
}

// TestOrderedCommitWindowBound checks that speculation never runs more
// than window items ahead of the commit cursor.
func TestOrderedCommitWindowBound(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	const n, workers, window = 300, 8, 16
	var committed atomic.Int64
	var maxLead atomic.Int64
	OrderedCommit(workers, n, window,
		func(id, i int) int {
			lead := int64(i) - committed.Load()
			for {
				cur := maxLead.Load()
				if lead <= cur || maxLead.CompareAndSwap(cur, lead) {
					break
				}
			}
			return i
		},
		func(i, v int) bool {
			committed.Store(int64(i) + 1)
			return true
		})
	// A producer may observe a commit cursor that is up to one commit
	// stale, so allow one extra slot of apparent lead.
	if got := maxLead.Load(); got > window+1 {
		t.Fatalf("speculation ran %d ahead, window is %d", got, window)
	}
}

// TestOrderedCommitAbort checks that commit returning false stops the run
// without committing further indices and without deadlocking producers.
func TestOrderedCommitAbort(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	for _, workers := range []int{1, 4} {
		last := -1
		OrderedCommit(workers, 1000, 8,
			func(id, i int) int { return i },
			func(i, v int) bool {
				last = i
				return i < 100
			})
		if last != 100 {
			t.Fatalf("workers=%d: aborted at %d, want 100", workers, last)
		}
	}
}

// TestOrderedCommitProducePanic checks that a panicking producer is
// re-raised on the caller after the pool drains, mirroring Run.
func TestOrderedCommitProducePanic(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	OrderedCommit(4, 100, 8,
		func(id, i int) int {
			if i == 37 {
				panic("boom")
			}
			return i
		},
		func(i, v int) bool { return true })
	t.Fatal("panic not propagated")
}

// withProcs raises GOMAXPROCS for the duration of a test so that pools
// really run several workers on single-CPU runners.
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestEachRunsEveryIndexOnce checks that every index runs exactly once on
// a worker id inside the pool, for empty, tiny and oversubscribed pools.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	withProcs(t, 8)
	for _, n := range []int{0, 1, 7, 100} {
		for _, workers := range []int{1, 2, 4, 9} {
			runs := make([]atomic.Int64, n)
			_, err := Each(workers, n, func(w, i int) error {
				if w < 0 || w >= min(workers, n) {
					t.Errorf("n=%d workers=%d: worker id %d", n, workers, w)
				}
				runs[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, got)
				}
			}
		}
	}
}

// TestEachSingleWorkerInline checks the serial path: calls run in
// ascending order and the first failure ends the loop.
func TestEachSingleWorkerInline(t *testing.T) {
	var order []int // unguarded: a second goroutine would race under -race
	_, err := Each(1, 10, func(w, i int) error {
		if w != 0 {
			t.Fatalf("worker id %d", w)
		}
		order = append(order, i)
		if i == 3 {
			return fmt.Errorf("fail %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "fail 3" {
		t.Fatalf("err = %v, want fail 3", err)
	}
	if fmt.Sprint(order) != "[0 1 2 3]" {
		t.Fatalf("ran %v, want [0 1 2 3]", order)
	}
}

// TestEachLowestFailedIndexWins checks the error rule at every worker
// count: index 5 fails at once while index 2 is still sleeping before it
// fails, and the error of index 2 must be returned all the same.
func TestEachLowestFailedIndexWins(t *testing.T) {
	withProcs(t, 8)
	errSlow, errFast := errors.New("index 2"), errors.New("index 5")
	for _, workers := range []int{1, 2, 4, 9} {
		_, err := Each(workers, 20, func(w, i int) error {
			switch i {
			case 2:
				time.Sleep(20 * time.Millisecond)
				return errSlow
			case 5:
				return errFast
			}
			return nil
		})
		if err != errSlow {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, errSlow)
		}
	}
}

// TestEachReraisesPanic checks that a panic in fn reaches the caller.
func TestEachReraisesPanic(t *testing.T) {
	withProcs(t, 8)
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("workers=%d: recovered %v, want boom", workers, r)
				}
			}()
			Each(workers, 50, func(w, i int) error {
				if i == 17 {
					panic("boom")
				}
				return nil
			})
			t.Fatalf("workers=%d: panic not propagated", workers)
		}()
	}
}

// TestEachBusySumsCalls checks that busy covers the time spent in fn.
func TestEachBusySumsCalls(t *testing.T) {
	withProcs(t, 8)
	const n, nap = 6, 5 * time.Millisecond
	for _, workers := range []int{1, 3} {
		busy, err := Each(workers, n, func(w, i int) error {
			time.Sleep(nap)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if busy < n*nap {
			t.Fatalf("workers=%d: busy %v, want at least %v", workers, busy, n*nap)
		}
	}
}
