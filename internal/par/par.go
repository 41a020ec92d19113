// Package par holds the parallelism primitives shared by the pipeline
// stages, and the worker-count clamp they all size their pools with:
//
//   - Run runs fn on a fixed number of goroutines and re-raises a panic.
//   - Each fans n indexed items out to a pool; the lowest failed index wins.
//   - OrderedCommit produces items speculatively and commits them in order.
//   - Frontier is the work-sharing subproblem pool of the ilp searches.
//
// It sits below detect/schedule/ilp in the dependency order on purpose:
// those packages cannot import core (core wires them together), yet all
// stages must resolve a configured worker count identically.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ClampWorkers resolves a configured worker count to [1, GOMAXPROCS]:
// zero and negative values mean "use every CPU", larger requests are cut
// down instead of oversubscribing the scheduler. This is the single
// worker-count rule shared by fault simulation (detect.Run), schedule
// construction (schedule.Build, ilp solvers) and the experiment suite
// (exper.RunSuite).
func ClampWorkers(w int) int {
	max := runtime.GOMAXPROCS(0)
	if w <= 0 || w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ClampWorkersFor applies ClampWorkers and additionally caps the pool at
// the number of work items, never below one: a fan-out over n items gains
// nothing from more than n workers. This is the shared rule for
// item-bounded pools (the exper suite fan-out over circuits, ATPG and
// fault simulation over faults, the Step-2 schedule fan-out over
// periods).
func ClampWorkersFor(w, items int) int {
	w = ClampWorkers(w)
	if w > items {
		w = items
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Frontier is a shared pool of subproblems for parallel tree search. It
// behaves as a LIFO stack (newest subproblem first, approximating the
// depth-first order of the serial search and bounding memory), hands out
// work to any asking worker, and detects termination when every worker
// is idle and the pool is empty.
//
// Workers interact with the pool in a strict loop: Pop a task, expand it
// (recursing locally, offloading sibling subtrees via Push when Hungry
// reports starvation), Pop again. A worker that received ok=false from
// Pop must exit; the search is exhausted or aborted.
type Frontier[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	stack  []entry[T]
	idle   int
	closed bool

	workers int
	// size mirrors len(stack), idlers mirrors idle; both readable
	// without the lock so Hungry stays cheap on the hot path.
	size   atomic.Int64
	idlers atomic.Int64
}

type entry[T any] struct {
	owner int
	task  T
}

// NewFrontier returns a pool for the given number of workers.
func NewFrontier[T any](workers int) *Frontier[T] {
	f := &Frontier[T]{workers: workers}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// Push offers a subproblem to the pool, tagged with the worker that
// produced it (steal accounting).
func (f *Frontier[T]) Push(owner int, t T) {
	f.mu.Lock()
	f.stack = append(f.stack, entry[T]{owner: owner, task: t})
	f.size.Store(int64(len(f.stack)))
	f.mu.Unlock()
	f.cond.Signal()
}

// Hungry reports whether the pool is running low: some worker is idle or
// the stack holds fewer subproblems than workers. Producers use it to
// decide between recursing locally (cheap) and offloading sibling
// subtrees (keeps the pool fed). Reads only atomics — no lock.
func (f *Frontier[T]) Hungry() bool {
	return f.idlers.Load() > 0 || f.size.Load() < int64(f.workers)
}

// Pop removes the newest subproblem. It blocks while the pool is empty
// but some worker is still expanding (that worker may publish more
// work). ok=false means the search is over: either every worker went
// idle on an empty pool, or Abort was called. stolen reports that the
// task was produced by a different worker.
func (f *Frontier[T]) Pop(self int) (t T, stolen, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if len(f.stack) > 0 {
			e := f.stack[len(f.stack)-1]
			f.stack = f.stack[:len(f.stack)-1]
			f.size.Store(int64(len(f.stack)))
			return e.task, e.owner != self, true
		}
		if f.closed {
			return t, false, false
		}
		f.idle++
		f.idlers.Store(int64(f.idle))
		if f.idle == f.workers {
			// Last active worker found nothing to do: the search space
			// is exhausted. Release every waiter.
			f.closed = true
			f.cond.Broadcast()
			return t, false, false
		}
		f.cond.Wait()
		f.idle--
		f.idlers.Store(int64(f.idle))
	}
}

// Abort drains the pool and releases every waiting worker (budget expiry
// or cancellation). Pending subproblems are discarded.
func (f *Frontier[T]) Abort() {
	f.mu.Lock()
	f.closed = true
	f.stack = nil
	f.size.Store(0)
	f.cond.Broadcast()
	f.mu.Unlock()
}

// OrderedCommit runs a speculative fan-out over n indexed work items with
// a strict in-order commit: produce(id, i) is evaluated for every index i
// in [0, n) across `workers` goroutines, while commit(i, v) is applied on
// the calling goroutine in strictly increasing index order. It is the
// shared harness for pipeline stages whose per-item work is a pure
// function of the item but whose result application is order-dependent
// (the speculative PODEM phase of internal/atpg).
//
// Contract: produce must not depend on the effects of commit for any
// index >= its own (it may read committed state as a heuristic — e.g. a
// "this item is already redundant" hint — as long as the value it returns
// lets commit reconstruct the sequential outcome). Under that contract
// the commit sequence is identical for every worker count, including the
// inlined workers<=1 fast path, which interleaves produce and commit
// exactly like a plain loop.
//
// window bounds the speculation depth: at most window items may be
// produced but not yet committed, which caps both buffered memory and the
// work wasted when commits invalidate speculation. It is raised to at
// least workers so every goroutine can hold one item.
//
// commit returning false aborts the run: no further items are produced or
// committed (items already in flight are discarded). A panic in produce
// is re-raised on the calling goroutine after the pool drains, mirroring
// Run; a panic in commit aborts the workers and propagates directly.
func OrderedCommit[T any](workers, n, window int, produce func(id, i int) T, commit func(i int, v T) bool) {
	if n <= 0 {
		return
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if !commit(i, produce(0, i)) {
				return
			}
		}
		return
	}
	if window < workers {
		window = workers
	}
	o := &ordCommit[T]{
		n:      n,
		window: window,
		vals:   make([]T, window),
		ready:  make([]bool, window),
	}
	o.canClaim = sync.NewCond(&o.mu)
	o.canCommit = sync.NewCond(&o.mu)

	var (
		wg       sync.WaitGroup
		panicked atomic.Pointer[any]
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &r)
					o.abort()
				}
			}()
			o.produceLoop(id, produce)
		}(w)
	}

	func() {
		defer o.abort() // release workers on commit panic or abort
		for i := 0; i < n; i++ {
			v, ok := o.awaitSlot(i)
			if !ok {
				return
			}
			if !commit(i, v) {
				return
			}
		}
	}()
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(*r)
	}
}

// ordCommit is the shared state of one OrderedCommit run: a ring of
// `window` speculation slots between the producing workers and the single
// committer.
type ordCommit[T any] struct {
	mu        sync.Mutex
	canClaim  *sync.Cond // workers wait here when the ring is full
	canCommit *sync.Cond // the committer waits here for the next slot
	n         int
	window    int
	next      int // next index to claim
	committed int // next index to commit
	vals      []T
	ready     []bool
	aborted   bool
}

func (o *ordCommit[T]) produceLoop(id int, produce func(id, i int) T) {
	for {
		o.mu.Lock()
		for o.next-o.committed >= o.window && !o.aborted {
			o.canClaim.Wait()
		}
		if o.aborted || o.next >= o.n {
			o.mu.Unlock()
			return
		}
		i := o.next
		o.next++
		o.mu.Unlock()

		v := produce(id, i)

		o.mu.Lock()
		o.vals[i%o.window] = v
		o.ready[i%o.window] = true
		if i == o.committed {
			o.canCommit.Signal()
		}
		o.mu.Unlock()
	}
}

// awaitSlot blocks until index i has been produced, then hands its value
// to the committer and frees the ring slot. ok=false means the run was
// aborted (worker panic) before the slot was filled.
func (o *ordCommit[T]) awaitSlot(i int) (v T, ok bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := i % o.window
	for !o.ready[s] && !o.aborted {
		o.canCommit.Wait()
	}
	if !o.ready[s] {
		return v, false
	}
	v = o.vals[s]
	var zero T
	o.vals[s] = zero
	o.ready[s] = false
	o.committed = i + 1
	o.canClaim.Broadcast()
	return v, true
}

func (o *ordCommit[T]) abort() {
	o.mu.Lock()
	o.aborted = true
	o.canClaim.Broadcast()
	o.canCommit.Broadcast()
	o.mu.Unlock()
}

// Run executes fn on `workers` goroutines with ids 0..workers-1 and
// waits for all of them. A single worker runs inline on the calling
// goroutine, so serial solves (Workers=1) pay no scheduling overhead. A
// panicking worker does not crash the process: the first panic value is
// re-raised on the calling goroutine after the pool drains.
func Run(workers int, fn func(id int)) {
	if workers <= 1 {
		fn(0)
		return
	}
	var (
		wg       sync.WaitGroup
		panicked atomic.Pointer[any]
	)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &r)
				}
			}()
			fn(id)
		}(i)
	}
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(*r)
	}
}

// Each calls fn(w, i) for every index i in [0, n) on min(workers, n)
// goroutines, w being the worker id; a single worker runs inline, like a
// plain loop. Indexes are handed out in ascending order. After a call has
// failed no new index starts, but calls already running finish, so the
// returned error is that of the lowest failed index: the one a serial
// loop would stop at. A panic in fn also stops dispatch and is re-raised
// on the caller, as Run does. busy sums the wall time of the calls, for
// utilization gauges.
func Each(workers, n int, fn func(w, i int) error) (busy time.Duration, err error) {
	var (
		next, busyNs atomic.Int64
		failed       atomic.Bool
	)
	errs := make([]error, n)
	Run(min(workers, n), func(w int) {
		defer func() {
			if r := recover(); r != nil {
				failed.Store(true)
				panic(r) // Run re-raises it on the caller
			}
		}()
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			t0 := time.Now()
			errs[i] = fn(w, i)
			busyNs.Add(int64(time.Since(t0)))
			if errs[i] != nil {
				failed.Store(true)
			}
		}
	})
	busy = time.Duration(busyNs.Load())
	for _, err := range errs {
		if err != nil {
			return busy, err
		}
	}
	return busy, nil
}
