// Package ilp solves the two zero-one covering programs of the
// test-schedule optimization (Sec. IV-C): SetCover finds a minimum set
// cover and PartialCover the fewest sets that cover a quota of the
// universe. Both run branch-and-bound seeded with the greedy cover
// (GreedyCover, GreedyPartialCover), which is also the heuristic of [17];
// SetCover presolves with essential columns and column dominance. A
// context deadline stands in for the commercial ILP tool the paper aborts
// after a 1-hour timeout: the search then returns its best incumbent.
package ilp

import (
	"context"
	"sort"
	"strconv"
	"sync/atomic"

	"fastmon/internal/bitset"
	"fastmon/internal/chaos"
	"fastmon/internal/fmerr"
	"fastmon/internal/obs"
	"fastmon/internal/obs/flight"
	"fastmon/internal/par"
)

// CoverResult is the outcome of a covering solve.
type CoverResult struct {
	// Selected holds the chosen set indices, ascending.
	Selected []int
	// Optimal reports whether optimality was proven (false after a
	// deadline abort, in which case Selected is the best incumbent).
	Optimal bool
	// Nodes counts branch-and-bound nodes.
	Nodes int
	// Incumbents counts incumbent improvements found by the search (the
	// greedy seed is not counted).
	Incumbents int
	// Gap is the relative bound gap at exit: zero when optimality was
	// proven, (|incumbent| - rootBound)/|incumbent| after an abort.
	Gap float64
	// Degradation reports the result-quality rung: exact when optimality
	// was proven, incumbent after a budget or cancellation abort.
	Degradation fmerr.Degradation
}

// GreedyCover returns a feasible cover by repeatedly choosing the set with
// the largest number of still-uncovered elements — the heuristic selection
// of [17] that the paper's Table II compares against (column "heur.").
// It is GreedyPartialCover with the quota |universe|, and returns its
// stage-attributed error if the universe is not coverable.
func GreedyCover(sets []*bitset.Set, universe *bitset.Set) ([]int, error) {
	return GreedyPartialCover(sets, universe, universe.Count())
}

// Coverable reports whether the universe is covered by the union of sets.
func Coverable(sets []*bitset.Set, universe *bitset.Set) bool {
	u := universe.Clone()
	for _, s := range sets {
		u.AndNot(s)
	}
	return u.Empty()
}

// coverTask is one subproblem of the SetCover search: the elements still
// uncovered on this path and the sub-set indices chosen so far. Each task
// owns its bitset and slice.
type coverTask struct {
	unc *bitset.Set
	cur []int
}

// SetCover solves minimum set cover exactly by branch-and-bound with
// covering presolve. The search runs on a work-sharing frontier
// (Options.Workers, see par.Frontier): workers expand subproblems
// depth-first and offload sibling subtrees when the pool runs hungry;
// incumbents are published through an atomic best length plus a
// lexicographic tie-break, so the returned Selected set is bit-identical
// for every worker count (see parallel.go). It returns an error when the
// universe is not coverable. The context is polled at node granularity:
// an expired deadline (the paper's solver timeout) returns the best
// incumbent with a nil error; cancellation returns the incumbent together
// with an error wrapping context.Canceled.
func SetCover(ctx context.Context, sets []*bitset.Set, universe *bitset.Set, opts Options) (CoverResult, error) {
	if !Coverable(sets, universe) {
		return CoverResult{}, fmerr.Errorf(fmerr.StageSolve, "setcover",
			"universe not coverable by the given sets")
	}
	if err := chaos.Point(ctx, ptSolve); err != nil {
		return CoverResult{}, fmerr.Wrap(fmerr.StageSolve, "setcover", err)
	}
	// Entry check: with the budget already spent (or the flow cancelled)
	// the greedy cover is the whole result.
	if s := checkCtx(ctx); s != stopNone {
		g, err := GreedyCover(sets, universe)
		if err != nil {
			return CoverResult{}, err
		}
		res := CoverResult{Selected: g, Gap: 1, Degradation: fmerr.DegradeIncumbent}
		recordSolve(ctx, 0, 0, false, 1)
		if s == stopCanceled {
			return res, fmerr.Wrap(fmerr.StageSolve, "setcover", ctx.Err())
		}
		return res, nil
	}
	res := CoverResult{}
	uncovered := universe.Clone()
	alive := make([]bool, len(sets))
	for i := range alive {
		alive[i] = true
	}
	var chosen []int
	// Pooled masked copies for the dominance pass, allocated lazily on
	// the first pass and refreshed in place (CopyFrom) as uncovered
	// shrinks — the presolve loop used to clone every set per iteration.
	var maskPool []*bitset.Set

	// Presolve loop: essential columns and column dominance.
	for {
		changed := false
		// Essential: an element covered by exactly one alive set forces
		// that set into the solution.
		for e := uncovered.NextSet(0); e >= 0; e = uncovered.NextSet(e + 1) {
			cnt, only := 0, -1
			for j, s := range sets {
				if alive[j] && s.Has(e) {
					cnt++
					only = j
					if cnt > 1 {
						break
					}
				}
			}
			if cnt == 1 {
				chosen = append(chosen, only)
				uncovered.AndNot(sets[only])
				alive[only] = false
				changed = true
				break // uncovered changed; restart scan
			}
		}
		if changed {
			continue
		}
		// Drop sets that no longer help.
		for j, s := range sets {
			if alive[j] && s.IntersectionCount(uncovered) == 0 {
				alive[j] = false
			}
		}
		// Column dominance (bounded effort): a set whose uncovered part
		// is a subset of another's can be dropped. Columns are ordered by
		// popcount — a column can only be dominated by one at least as
		// large — and pairs are screened by a 64-bit signature
		// (a ⊆ b requires fp(a) &^ fp(b) == 0) before the word-level
		// subset test runs.
		aliveIdx := aliveList(alive)
		if len(aliveIdx) <= 1024 {
			if maskPool == nil {
				maskPool = make([]*bitset.Set, len(sets))
			}
			type col struct {
				j   int
				cnt int
				fp  uint64
			}
			cols := make([]col, 0, len(aliveIdx))
			for _, j := range aliveIdx {
				m := maskPool[j]
				if m == nil {
					m = bitset.New(0)
					maskPool[j] = m
				}
				m.CopyFrom(sets[j])
				m.And(uncovered)
				cols = append(cols, col{j: j, cnt: m.Count(), fp: m.Fingerprint()})
			}
			sort.Slice(cols, func(a, b int) bool {
				if cols[a].cnt != cols[b].cnt {
					return cols[a].cnt < cols[b].cnt
				}
				return cols[a].j < cols[b].j
			})
			for a := range cols {
				ca := cols[a]
				if !alive[ca.j] {
					continue
				}
				for b := a + 1; b < len(cols); b++ {
					cb := cols[b]
					if !alive[cb.j] {
						continue
					}
					if ca.fp&^cb.fp != 0 {
						continue // signature rules out ca ⊆ cb
					}
					if !maskPool[ca.j].SubsetOf(maskPool[cb.j]) {
						continue
					}
					if ca.cnt == cb.cnt {
						// Equal masked sets: keep the smaller index.
						alive[cb.j] = false
						changed = true
						continue
					}
					alive[ca.j] = false
					changed = true
					break
				}
			}
		}
		if !changed {
			break
		}
	}

	if uncovered.Empty() {
		sort.Ints(chosen)
		res.Selected, res.Optimal = chosen, true
		recordSolve(ctx, 0, 0, true, 0)
		return res, nil
	}

	aliveIdx := aliveList(alive)
	sub := make([]*bitset.Set, len(aliveIdx))
	for i, j := range aliveIdx {
		s := sets[j].Clone()
		s.And(uncovered)
		sub[i] = s
	}
	// Element -> covering set indices (into sub) as a dense table indexed
	// by element id: the branching loop reads it once per candidate per
	// node, where the former map cost a hash lookup each time.
	elems := uncovered.Members(nil)
	coverOf := make([][]int, universe.Len())
	for i, s := range sub {
		for _, e := range s.Members(nil) {
			coverOf[e] = append(coverOf[e], i)
		}
	}

	// Greedy incumbent. Coverability was established above, so a greedy
	// failure here is an internal inconsistency worth surfacing.
	incumbent, err := GreedyCover(sub, uncovered)
	if err != nil {
		return CoverResult{}, err
	}

	// Branch on the element with the fewest covering sets; children try
	// each covering set in decreasing gain order (index ascending on
	// ties). Subtrees are pruned only when strictly worse than the
	// incumbent so every optimal cover stays reachable and the bestList
	// tie-break makes the outcome interleaving-independent.
	workers := par.ClampWorkers(opts.Workers)
	best := newBestList(incumbent, 0)
	frec := obs.From(ctx).Flight()
	// Resolved once: the injector never changes mid-solve, and the nil
	// injector is a valid no-op (see chaos package doc).
	inj := chaos.From(ctx)
	var (
		nodes, incumbents, stolen atomic.Int64
		stop                      stopFlag
	)
	fr := par.NewFrontier[coverTask](workers)
	fr.Push(0, coverTask{unc: uncovered.Clone()})
	par.Run(workers, func(id int) {
		defer func() {
			// A worker dying mid-search must not strand its peers in Pop.
			if r := recover(); r != nil {
				fr.Abort()
				panic(r)
			}
		}()
		// Per-depth scratch: the DFS is strictly nested, so one uncovered
		// set and one candidate list per depth replace the per-node clones
		// and sorts that dominated the allocation profile. Values are
		// identical to the cloning version; only the storage is reused.
		var uncScratch []*bitset.Set
		uncAt := func(d int) *bitset.Set {
			for len(uncScratch) <= d {
				uncScratch = append(uncScratch, bitset.New(universe.Len()))
			}
			return uncScratch[d]
		}
		type candList struct{ idx, gain []int }
		var candScratch []candList
		localNodes := int64(0)
		// poll is the once-per-window slow path of node accounting: see the
		// PartialCover twin for the determinism argument. Totals stay
		// exact: the sub-window remainder is flushed when the worker exits.
		poll := func() bool {
			nodes.Add(pollMask + 1)
			if stop.get() != stopNone {
				return false
			}
			if s := checkCtx(ctx); s != stopNone {
				stop.set(s)
				fr.Abort()
				return false
			}
			inj.Disturb(ctx, ptNode)
			return true
		}
		// dead flips when poll observes an abort; it is a plain per-worker
		// bool so every recursion level can bail immediately without an
		// atomic read per node.
		dead := false
		var dfs func(unc *bitset.Set, cur []int)
		dfs = func(unc *bitset.Set, cur []int) {
			if dead {
				return
			}
			localNodes++
			if localNodes&pollMask == 0 && !poll() {
				dead = true
				return
			}
			if unc.Empty() {
				inj.Disturb(ctx, ptIncumbent)
				if best.offer(cur, 0) {
					frec.Record(flight.Event{Kind: flight.KindIncumbent, Name: "ilp.cover", Stage: "solve",
						Detail: strconv.Itoa(len(cur)) + " sets", Value: incumbents.Add(1)})
				}
				return
			}
			if len(cur)+lowerBound(sub, unc) > best.bound() {
				return
			}
			// Pick the uncovered element with fewest alive covering sets.
			pickE, pickCnt := -1, 1<<30
			for _, e := range elems {
				if !unc.Has(e) {
					continue
				}
				cnt := 0
				for _, si := range coverOf[e] {
					if sub[si].IntersectionCount(unc) > 0 {
						cnt++
					}
				}
				if cnt < pickCnt {
					pickE, pickCnt = e, cnt
					if cnt <= 1 {
						break
					}
				}
			}
			depth := len(cur)
			for len(candScratch) <= depth {
				candScratch = append(candScratch, candList{})
			}
			cands := append(candScratch[depth].idx[:0], coverOf[pickE]...)
			gains := candScratch[depth].gain[:0]
			for _, si := range cands {
				gains = append(gains, sub[si].IntersectionCount(unc))
			}
			// Insertion sort by (gain descending, index ascending): the
			// same total order the sort.Slice comparator produced.
			for i := 1; i < len(cands); i++ {
				ci, gi := cands[i], gains[i]
				j := i - 1
				for j >= 0 && (gains[j] < gi || (gains[j] == gi && cands[j] > ci)) {
					cands[j+1], gains[j+1] = cands[j], gains[j]
					j--
				}
				cands[j+1], gains[j+1] = ci, gi
			}
			candScratch[depth] = candList{idx: cands, gain: gains}
			if len(cands) > 1 && workers > 1 && fr.Hungry() {
				// Offload every sibling but the first; pushed in reverse
				// so the LIFO pool hands them out in serial order.
				for i := len(cands) - 1; i >= 1; i-- {
					si := cands[i]
					nu := unc.Clone()
					nu.AndNot(sub[si])
					nc := make([]int, len(cur)+1)
					copy(nc, cur)
					nc[len(cur)] = si
					fr.Push(id, coverTask{unc: nu, cur: nc})
				}
				cands = cands[:1]
			}
			for _, si := range cands {
				next := uncAt(depth)
				next.SetAndNot(unc, sub[si])
				cur = append(cur, si)
				dfs(next, cur)
				cur = cur[:len(cur)-1]
			}
		}
		for {
			t, st, ok := fr.Pop(id)
			if !ok {
				break
			}
			if st {
				stolen.Add(1)
			}
			dfs(t.unc, t.cur)
		}
		nodes.Add(localNodes & pollMask)
	})
	stopped := stop.get()
	rootLB := len(chosen) + lowerBound(sub, uncovered)
	res.Nodes = int(nodes.Load())
	res.Incumbents = int(incumbents.Load())

	sel := append([]int(nil), chosen...)
	for _, si := range best.snapshot() {
		sel = append(sel, aliveIdx[si])
	}
	sort.Ints(sel)
	res.Selected = sel
	res.Optimal = stopped == stopNone
	if !res.Optimal {
		res.Degradation = fmerr.DegradeIncumbent
		if total := len(sel); total > rootLB && total > 0 {
			res.Gap = float64(total-rootLB) / float64(total)
		}
	}
	recordSolve(ctx, res.Nodes, res.Incumbents, res.Optimal, res.Gap)
	recordPool(ctx, workers, stolen.Load())
	if stopped == stopCanceled {
		return res, fmerr.Wrap(fmerr.StageSolve, "setcover", ctx.Err())
	}
	return res, nil
}

// lowerBound returns a valid lower bound on the number of additional sets
// needed: ⌈|U|/maxGain⌉, where U is the uncovered set and maxGain the
// largest number of its elements any one set covers. It returns 1<<20 when
// no set covers any of U, so the branch is pruned. The stronger
// sum-of-shares bound Σ_{e∈U} 1/max_{S∋e}|S∩U| is not computed; stronger
// bounds are step 3 of the open ROADMAP.md item "Exact covering".
func lowerBound(sub []*bitset.Set, unc *bitset.Set) int {
	maxGain := 0
	for _, s := range sub {
		if g := s.IntersectionCount(unc); g > maxGain {
			maxGain = g
		}
	}
	if maxGain == 0 {
		return 1 << 20 // uncoverable remainder: prune hard
	}
	u := unc.Count()
	return (u + maxGain - 1) / maxGain
}

func aliveList(alive []bool) []int {
	var out []int
	for i, a := range alive {
		if a {
			out = append(out, i)
		}
	}
	return out
}

// coverPool recycles the masked-set scratch of GreedyPartialCover across
// calls; the schedule builder runs one partial cover per period candidate.
var coverPool bitset.Pool

// GreedyPartialCover picks sets by maximum marginal gain until at least
// quota elements of the universe are covered. It returns an error if the
// quota exceeds the coverable count.
func GreedyPartialCover(sets []*bitset.Set, universe *bitset.Set, quota int) ([]int, error) {
	covered := bitset.New(universe.Len())
	// Mask each set to the universe once; the per-round marginal gain is
	// then one word-level sweep instead of a Clone+And+AndNot+Count pass
	// per set per round.
	masked := make([]*bitset.Set, len(sets))
	for i, s := range sets {
		m := coverPool.CloneOf(s)
		m.And(universe)
		masked[i] = m
	}
	defer func() {
		for _, m := range masked {
			coverPool.Put(m)
		}
	}()
	var out []int
	for covered.IntersectionCount(universe) < quota {
		best, bestGain := -1, 0
		for i, m := range masked {
			if g := m.AndNotCount(covered); g > bestGain {
				best, bestGain = i, g
			}
		}
		if best < 0 {
			return nil, fmerr.Errorf(fmerr.StageSolve, "greedy-partial",
				"quota %d unreachable (covered %d)", quota, covered.IntersectionCount(universe))
		}
		out = append(out, best)
		covered.Or(sets[best])
	}
	sort.Ints(out)
	return out, nil
}

// partialTask is one subproblem of the PartialCover search: the next
// position in the size-ordered set list, the sets chosen so far, and the
// elements they cover. Each task owns its slice and bitset.
type partialTask struct {
	pos     int
	cur     []int
	covered *bitset.Set
	cnt     int
}

// PartialCover finds a minimum number of sets covering at least quota
// elements of the universe (the Table III "cov ≥ x%" selection). Solved by
// include/exclude branch-and-bound with a sum-of-largest-sets bound, run
// on the same work-sharing frontier and deterministic incumbent
// discipline as SetCover (Options.Workers; identical Selected for every
// worker count). The context contract matches SetCover: deadline = soft
// budget, cancellation = incumbent plus error.
func PartialCover(ctx context.Context, sets []*bitset.Set, universe *bitset.Set, quota int, opts Options) (CoverResult, error) {
	res := CoverResult{}
	if quota <= 0 {
		res.Optimal = true
		return res, nil
	}
	incumbent, err := GreedyPartialCover(sets, universe, quota)
	if err != nil {
		return CoverResult{}, err
	}
	if err := chaos.Point(ctx, ptSolve); err != nil {
		return CoverResult{}, fmerr.Wrap(fmerr.StageSolve, "partialcover", err)
	}
	// Entry check: see SetCover.
	if s := checkCtx(ctx); s != stopNone {
		res.Selected = incumbent
		res.Gap = 1
		res.Degradation = fmerr.DegradeIncumbent
		recordSolve(ctx, 0, 0, false, 1)
		if s == stopCanceled {
			return res, fmerr.Wrap(fmerr.StageSolve, "partialcover", ctx.Err())
		}
		return res, nil
	}

	// Restrict sets to the universe once; sizes are static afterwards, so
	// they are computed once here instead of per node in the bound.
	sub := make([]*bitset.Set, len(sets))
	size := make([]int, len(sets))
	for i, s := range sets {
		c := s.Clone()
		c.And(universe)
		sub[i] = c
		size[i] = c.Count()
	}
	// Order sets by decreasing size for the bound and the branching.
	order := make([]int, len(sub))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := size[order[a]], size[order[b]]
		if ca != cb {
			return ca > cb
		}
		return order[a] < order[b]
	})
	// prefix[i] is the total size of the i largest sets: the per-node
	// sum-of-largest-sets bound becomes a binary search over these sums
	// instead of a popcount loop.
	prefix := make([]int64, len(order)+1)
	for i, oi := range order {
		prefix[i+1] = prefix[i] + int64(size[oi])
	}

	workers := par.ClampWorkers(opts.Workers)
	seedCov := bitset.New(universe.Len())
	for _, si := range incumbent {
		seedCov.Or(sub[si])
	}
	best := newBestList(incumbent, seedCov.Count())
	frec := obs.From(ctx).Flight()
	// The injector travels in the context and never changes mid-solve;
	// resolving it once keeps the per-incumbent disturb off the
	// context-chain walk (nil injectors are valid no-ops).
	inj := chaos.From(ctx)
	var (
		nodes, incumbents, stolen atomic.Int64
		stop                      stopFlag
	)
	fr := par.NewFrontier[partialTask](workers)
	fr.Push(0, partialTask{covered: bitset.New(universe.Len())})
	par.Run(workers, func(id int) {
		defer func() {
			if r := recover(); r != nil {
				fr.Abort()
				panic(r)
			}
		}()
		// Per-depth scratch: include children at selection depth d always
		// finish before the parent includes again at the same depth, so one
		// covered set per depth replaces the per-node Clone that dominated
		// the allocation profile. Values are identical to the cloning
		// version; only the storage is reused.
		var covScratch []*bitset.Set
		covAt := func(d int) *bitset.Set {
			for len(covScratch) <= d {
				covScratch = append(covScratch, bitset.New(universe.Len()))
			}
			return covScratch[d]
		}
		localNodes := int64(0)
		// poll is the once-per-window slow path of node accounting: flush
		// the local tally into the shared atomic, notice peer aborts, poll
		// the context. Stop reasons only arise on abort paths
		// (cancellation, budget), so checking them per window instead of
		// per node leaves the deterministic no-abort search untouched;
		// node totals stay exact because the sub-window remainder is
		// flushed when the worker exits.
		poll := func() bool {
			nodes.Add(pollMask + 1)
			if stop.get() != stopNone {
				return false
			}
			if s := checkCtx(ctx); s != stopNone {
				stop.set(s)
				fr.Abort()
				return false
			}
			inj.Disturb(ctx, ptNode)
			return true
		}
		// dead flips when poll observes an abort; it is a plain per-worker
		// bool so every recursion level can bail immediately without an
		// atomic read per node.
		dead := false
		// The exclude branch is tail-recursive (same covered set, next
		// position), so it runs as a loop; each iteration is one node. The
		// include branch recurses when "take order[pos]" has a positive
		// marginal gain — an optimal selection never contains a
		// zero-marginal set (dropping it would shrink the solution), so the
		// filter cannot hide an optimum from the tie-break.
		var dfs func(pos int, cur []int, covered *bitset.Set, cnt int)
		dfs = func(pos int, cur []int, covered *bitset.Set, cnt int) {
			// m tracks the bound's prefix-sum crossing point. Along the
			// exclude chain the deficit is constant and prefix[pos] grows,
			// so the crossing point only moves right: advancing it linearly
			// from the previous node costs O(1) amortized per node where a
			// fresh search would pay O(log) every time.
			m := pos + 1
			for {
				if dead {
					return
				}
				localNodes++
				if localNodes&pollMask == 0 && !poll() {
					dead = true
					return
				}
				if cnt >= quota {
					inj.Disturb(ctx, ptIncumbent)
					if best.offer(cur, cnt) {
						frec.Record(flight.Event{Kind: flight.KindIncumbent, Name: "ilp.partial", Stage: "solve",
							Detail: strconv.Itoa(len(cur)) + " sets", Value: incumbents.Add(1)})
					}
					return
				}
				bnd := best.bound()
				if len(cur)+1 > bnd { // any completion costs ≥ len(cur)+1
					return
				}
				if pos >= len(order) {
					return
				}
				// Bound: adding the k largest remaining sets gains at most
				// the sum of their sizes; m-pos is the smallest k whose size
				// prefix reaches the deficit.
				target := prefix[pos] + int64(quota-cnt)
				for m < len(order) && prefix[m] < target {
					m++
				}
				if prefix[m] < target {
					return // even taking every remaining set falls short
				}
				if len(cur)+(m-pos) > bnd {
					return
				}
				si := order[pos]
				if workers > 1 && fr.Hungry() {
					// Offload the exclude subtree, recurse include locally
					// (serial order is include first).
					fr.Push(id, partialTask{
						pos:     pos + 1,
						cur:     append([]int(nil), cur...),
						covered: covered.Clone(),
						cnt:     cnt,
					})
					if marginal := sub[si].AndNotCount(covered); marginal > 0 {
						nc := covAt(len(cur))
						nc.SetOr(covered, sub[si])
						dfs(pos+1, append(cur, si), nc, cnt+marginal)
					}
					return
				}
				if marginal := sub[si].AndNotCount(covered); marginal > 0 {
					nc := covAt(len(cur))
					nc.SetOr(covered, sub[si])
					cur = append(cur, si)
					dfs(pos+1, cur, nc, cnt+marginal)
					cur = cur[:len(cur)-1]
				}
				pos++ // exclude order[pos]: same covered set, next position
			}
		}
		for {
			t, st, ok := fr.Pop(id)
			if !ok {
				break
			}
			if st {
				stolen.Add(1)
			}
			dfs(t.pos, t.cur, t.covered, t.cnt)
		}
		nodes.Add(localNodes & pollMask)
	})
	stopped := stop.get()
	// Root bound for the exit gap: covering the quota needs at least as
	// many sets as the largest-first size prefix reaching it.
	rootLB, gain := 0, 0
	for i := 0; i < len(order) && gain < quota; i++ {
		gain += sub[order[i]].Count()
		rootLB++
	}
	res.Nodes = int(nodes.Load())
	res.Incumbents = int(incumbents.Load())
	res.Selected = best.snapshot()
	res.Optimal = stopped == stopNone
	if !res.Optimal {
		res.Degradation = fmerr.DegradeIncumbent
		if total := len(res.Selected); total > rootLB && total > 0 {
			res.Gap = float64(total-rootLB) / float64(total)
		}
	}
	recordSolve(ctx, res.Nodes, res.Incumbents, res.Optimal, res.Gap)
	recordPool(ctx, workers, stolen.Load())
	if stopped == stopCanceled {
		return res, fmerr.Wrap(fmerr.StageSolve, "partialcover", ctx.Err())
	}
	return res, nil
}
