package ilp

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"
	"time"

	"fastmon/internal/bitset"
	"fastmon/internal/fmerr"
)

func mkset(n int, members ...int) *bitset.Set {
	s := bitset.New(n)
	for _, m := range members {
		s.Add(m)
	}
	return s
}

func full(n int) *bitset.Set {
	s := bitset.New(n)
	for i := 0; i < n; i++ {
		s.Add(i)
	}
	return s
}

// bruteForceCover finds the true minimum cover size by enumeration.
func bruteForceCover(sets []*bitset.Set, universe *bitset.Set) int {
	n := len(sets)
	best := n + 1
	for mask := 0; mask < 1<<uint(n); mask++ {
		u := universe.Clone()
		cnt := 0
		for j := 0; j < n; j++ {
			if mask>>uint(j)&1 == 1 {
				u.AndNot(sets[j])
				cnt++
			}
		}
		if u.Empty() && cnt < best {
			best = cnt
		}
	}
	return best
}

func TestSetCoverMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		nElem := 4 + rng.Intn(10)
		nSets := 3 + rng.Intn(9)
		sets := make([]*bitset.Set, nSets)
		for i := range sets {
			s := bitset.New(nElem)
			for e := 0; e < nElem; e++ {
				if rng.Float64() < 0.35 {
					s.Add(e)
				}
			}
			sets[i] = s
		}
		universe := full(nElem)
		if !Coverable(sets, universe) {
			continue
		}
		res, err := SetCover(context.Background(), sets, universe, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Optimal {
			t.Fatalf("trial %d: not proven optimal", trial)
		}
		want := bruteForceCover(sets, universe)
		if len(res.Selected) != want {
			t.Fatalf("trial %d: got %d sets, brute force %d", trial, len(res.Selected), want)
		}
		// Returned selection must actually cover.
		u := universe.Clone()
		for _, j := range res.Selected {
			u.AndNot(sets[j])
		}
		if !u.Empty() {
			t.Fatalf("trial %d: selection does not cover", trial)
		}
		// Greedy is never better than the optimum.
		g, err := GreedyCover(sets, universe)
		if err != nil {
			t.Fatalf("trial %d: greedy failed on coverable instance: %v", trial, err)
		}
		if len(g) < want {
			t.Fatalf("trial %d: greedy beat the optimum?!", trial)
		}
	}
}

func TestSetCoverUncoverable(t *testing.T) {
	sets := []*bitset.Set{mkset(3, 0), mkset(3, 1)}
	if _, err := SetCover(context.Background(), sets, full(3), Options{}); err == nil {
		t.Fatal("expected error for uncoverable universe")
	}
}

func TestSetCoverEmptyUniverse(t *testing.T) {
	sets := []*bitset.Set{mkset(3, 0)}
	res, err := SetCover(context.Background(), sets, bitset.New(3), Options{})
	if err != nil || len(res.Selected) != 0 || !res.Optimal {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestSetCoverDeadline(t *testing.T) {
	// A large random instance with an expired deadline must still return
	// a feasible (greedy) incumbent.
	rng := rand.New(rand.NewSource(3))
	nElem, nSets := 400, 80
	sets := make([]*bitset.Set, nSets)
	for i := range sets {
		s := bitset.New(nElem)
		for e := 0; e < nElem; e++ {
			if rng.Float64() < 0.08 {
				s.Add(e)
			}
		}
		sets[i] = s
	}
	universe := bitset.New(nElem)
	for _, s := range sets {
		universe.Or(s)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := SetCover(ctx, sets, universe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	u := universe.Clone()
	for _, j := range res.Selected {
		u.AndNot(sets[j])
	}
	if !u.Empty() {
		t.Fatal("deadline incumbent does not cover")
	}
	if res.Optimal || res.Degradation != fmerr.DegradeIncumbent {
		t.Fatalf("expired deadline must degrade to the incumbent: %+v", res)
	}
}

// hardCoverInstance builds a random covering instance large enough that
// the branch-and-bound search does not finish within the first poll
// window.
func hardCoverInstance(seed int64, nElem, nSets int, p float64) ([]*bitset.Set, *bitset.Set) {
	rng := rand.New(rand.NewSource(seed))
	sets := make([]*bitset.Set, nSets)
	for i := range sets {
		s := bitset.New(nElem)
		for e := 0; e < nElem; e++ {
			if rng.Float64() < p {
				s.Add(e)
			}
		}
		sets[i] = s
	}
	universe := bitset.New(nElem)
	for _, s := range sets {
		universe.Or(s)
	}
	return sets, universe
}

func TestSetCoverCanceledReturnsIncumbent(t *testing.T) {
	sets, universe := hardCoverInstance(3, 400, 80, 0.08)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the search: first poll must stop the B&B
	start := time.Now()
	res, err := SetCover(ctx, sets, universe, Options{})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancelled solve took %v", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	if !fmerr.IsCanceled(err) || fmerr.StageOf(err) != fmerr.StageSolve {
		t.Fatalf("cancellation not stage-attributed: %v", err)
	}
	// The greedy-seeded incumbent must still be a valid cover.
	u := universe.Clone()
	for _, j := range res.Selected {
		u.AndNot(sets[j])
	}
	if !u.Empty() {
		t.Fatal("cancelled solve returned an invalid incumbent")
	}
	if res.Optimal || res.Degradation != fmerr.DegradeIncumbent {
		t.Fatalf("cancelled solve must degrade: %+v", res)
	}
}

func TestSetCoverAsyncCancelPromptReturn(t *testing.T) {
	sets, universe := hardCoverInstance(7, 900, 160, 0.05)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := SetCover(ctx, sets, universe, Options{})
	elapsed := time.Since(start)
	// Either the solve finished before the cancel (fine) or it was cut
	// mid-B&B; in both cases it must return promptly with a valid cover.
	if elapsed > 10*time.Second {
		t.Fatalf("solve ignored cancellation for %v", elapsed)
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("unexpected error: %v", err)
	}
	u := universe.Clone()
	for _, j := range res.Selected {
		u.AndNot(sets[j])
	}
	if !u.Empty() {
		t.Fatal("result is not a cover")
	}
}

// bruteForcePartial returns the selection PartialCover must return: among
// every selection covering at least quota elements of the universe, the
// one the bestList order ranks first — fewest sets, then most elements
// covered, then the lexicographically smallest ascending index list. It
// returns nil when no selection reaches the quota.
func bruteForcePartial(sets []*bitset.Set, universe *bitset.Set, quota int) []int {
	var best []int
	bestCov := -1
	for mask := 0; mask < 1<<uint(len(sets)); mask++ {
		cov := bitset.New(universe.Len())
		var sel []int
		for j := range sets {
			if mask>>uint(j)&1 == 1 {
				cov.Or(sets[j])
				sel = append(sel, j)
			}
		}
		c := cov.IntersectionCount(universe)
		switch {
		case c < quota:
			continue
		case bestCov < 0, len(sel) < len(best):
		case len(sel) > len(best), c < bestCov:
			continue
		case c == bestCov && !lexLess(sel, best):
			continue
		}
		best, bestCov = sel, c
	}
	return best
}

// TestPartialCoverMatchesBruteForce compares PartialCover with the
// brute-force tie-break winner on small random instances of varied
// density. A bound that cuts a subtree holding a shorter selection, or an
// equal one that wins the tie-break, shows here as a different Selected;
// such instances are rare, hence the many trials.
func TestPartialCoverMatchesBruteForce(t *testing.T) {
	withProcs(t, 2)
	for trial := 0; trial < 1500; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		nElem := 5 + rng.Intn(12)
		nSets := 3 + rng.Intn(9)
		p := 0.2 + 0.4*rng.Float64()
		sets := make([]*bitset.Set, nSets)
		for i := range sets {
			s := bitset.New(nElem)
			for e := 0; e < nElem; e++ {
				if rng.Float64() < p {
					s.Add(e)
				}
			}
			sets[i] = s
		}
		universe := full(nElem)
		coverable := bitset.New(nElem)
		for _, s := range sets {
			coverable.Or(s)
		}
		maxCov := coverable.Count()
		if maxCov == 0 {
			continue
		}
		quota := 1 + rng.Intn(maxCov)
		want := bruteForcePartial(sets, universe, quota)
		for _, w := range []int{1, 2} {
			res, err := PartialCover(context.Background(), sets, universe, quota, Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Optimal {
				t.Fatalf("trial %d workers=%d: not proven optimal", trial, w)
			}
			if !coverEqual(res.Selected, want) {
				t.Fatalf("trial %d workers=%d: got %v, brute force %v (quota %d)", trial, w, res.Selected, want, quota)
			}
		}
		// Greedy is never better than the optimum.
		g, err := GreedyPartialCover(sets, universe, quota)
		if err != nil {
			t.Fatalf("trial %d: greedy failed on a reachable quota: %v", trial, err)
		}
		if len(g) < len(want) {
			t.Fatalf("trial %d: greedy beat the optimum?!", trial)
		}
	}
}

// TestPartialCoverBoundIsValid checks PartialCover's bound on random
// search states of small instances: a covered set from some of the first
// pos sets of the size order, the rest still allowed. The bound — the
// fewest r whose r largest marginal gains over the allowed sets reach the
// deficit, read from topSums — must never exceed the brute-force number of
// allowed sets that completes the quota, and never fall below the
// size-prefix bound, the fewest r whose r largest set sizes reach it.
// topSums' two suffix sums are checked against sorting at every position.
func TestPartialCoverBoundIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const inf = 1 << 20
	states, stronger := 0, 0
	for trial := 0; trial < 300; trial++ {
		nElem := 6 + rng.Intn(14)
		nSets := 3 + rng.Intn(9)
		sets := make([]*bitset.Set, nSets)
		size := make([]int, nSets)
		for i := range sets {
			sets[i] = bitset.New(nElem)
			for e := 0; e < nElem; e++ {
				if rng.Float64() < 0.3 {
					sets[i].Add(e)
				}
			}
			size[i] = sets[i].Count()
		}
		order := make([]int, nSets)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			if size[order[a]] != size[order[b]] {
				return size[order[a]] > size[order[b]]
			}
			return order[a] < order[b]
		})
		pos := rng.Intn(nSets + 1)
		covered := bitset.New(nElem)
		for _, si := range order[:pos] {
			if rng.Intn(2) == 0 {
				covered.Or(sets[si])
			}
		}
		quota := covered.Count() + 1 + rng.Intn(nElem-covered.Count()+1)
		if quota > nElem {
			continue
		}
		deficit := quota - covered.Count()
		states++

		gain := make([]int, nSets)
		for j := pos; j < nSets; j++ {
			gain[j] = sets[order[j]].AndNotCount(covered)
		}
		top := make([]int, nSets+1)
		top1 := make([]int, nSets+1)
		bound := inf
		for k := 1; k <= nSets-pos; k++ {
			topSums(gain, pos, k, top, top1, nil)
			for j := pos; j <= nSets; j++ {
				desc := append([]int(nil), gain[j:]...)
				sort.Sort(sort.Reverse(sort.IntSlice(desc)))
				if want := sumFirst(desc, k); top[j] != want {
					t.Fatalf("trial %d: top[%d] for k=%d is %d, want %d", trial, j, k, top[j], want)
				}
				if want := sumFirst(desc, k-1); top1[j] != want {
					t.Fatalf("trial %d: top1[%d] for k=%d is %d, want %d", trial, j, k, top1[j], want)
				}
			}
			if bound == inf && top[pos] >= deficit {
				bound = k
			}
		}

		prefix := inf
		for r, sum := 0, 0; pos+r < nSets; r++ {
			sum += size[order[pos+r]]
			if sum >= deficit {
				prefix = r + 1
				break
			}
		}
		opt := inf
		rest := order[pos:]
		for mask := 1; mask < 1<<uint(len(rest)); mask++ {
			cov := covered.Clone()
			n := 0
			for j, si := range rest {
				if mask>>uint(j)&1 == 1 {
					cov.Or(sets[si])
					n++
				}
			}
			if cov.Count() >= quota && n < opt {
				opt = n
			}
		}
		if bound > opt {
			t.Fatalf("trial %d: bound %d exceeds the optimum %d", trial, bound, opt)
		}
		if bound < prefix {
			t.Fatalf("trial %d: bound %d below the size-prefix bound %d", trial, bound, prefix)
		}
		if bound > prefix {
			stronger++
		}
	}
	if states < 100 || stronger == 0 {
		t.Fatalf("%d search states checked, %d with a bound above the size-prefix bound", states, stronger)
	}
}

// sumFirst sums the first k values of xs (all of them when fewer).
func sumFirst(xs []int, k int) int {
	sum := 0
	for i := 0; i < k && i < len(xs); i++ {
		sum += xs[i]
	}
	return sum
}

func TestPartialCoverQuotaUnreachable(t *testing.T) {
	sets := []*bitset.Set{mkset(4, 0, 1)}
	if _, err := PartialCover(context.Background(), sets, full(4), 3, Options{}); err == nil {
		t.Fatal("expected unreachable-quota error")
	}
	res, err := PartialCover(context.Background(), sets, full(4), 0, Options{})
	if err != nil || len(res.Selected) != 0 {
		t.Fatalf("quota 0: %+v %v", res, err)
	}
}

func TestGreedyCoverUncoverableError(t *testing.T) {
	sel, err := GreedyCover([]*bitset.Set{mkset(2, 0)}, full(2))
	if err == nil {
		t.Fatal("expected error for uncoverable universe")
	}
	if sel != nil {
		t.Fatalf("selection returned alongside error: %v", sel)
	}
	if fmerr.StageOf(err) != fmerr.StageSolve {
		t.Fatalf("error not stage-attributed: %v", err)
	}
}

func TestPartialCoverDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	nElem, nSets := 300, 60
	sets := make([]*bitset.Set, nSets)
	for i := range sets {
		s := bitset.New(nElem)
		for e := 0; e < nElem; e++ {
			if rng.Float64() < 0.1 {
				s.Add(e)
			}
		}
		sets[i] = s
	}
	universe := bitset.New(nElem)
	for _, s := range sets {
		universe.Or(s)
	}
	quota := universe.Count() * 9 / 10
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := PartialCover(ctx, sets, universe, quota, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cov := bitset.New(nElem)
	for _, j := range res.Selected {
		cov.Or(sets[j])
	}
	if cov.IntersectionCount(universe) < quota {
		t.Fatal("deadline incumbent misses quota")
	}
	if res.Optimal || res.Degradation != fmerr.DegradeIncumbent {
		t.Fatalf("expired deadline must not claim optimality: %+v", res)
	}
}

func TestPartialCoverCanceledReturnsIncumbent(t *testing.T) {
	sets, universe := hardCoverInstance(9, 300, 60, 0.1)
	quota := universe.Count() * 9 / 10
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := PartialCover(ctx, sets, universe, quota, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	cov := bitset.New(universe.Len())
	for _, j := range res.Selected {
		cov.Or(sets[j])
	}
	if cov.IntersectionCount(universe) < quota {
		t.Fatal("cancelled solve returned an incumbent missing the quota")
	}
	if res.Optimal || res.Degradation != fmerr.DegradeIncumbent {
		t.Fatalf("cancelled solve must degrade: %+v", res)
	}
}
