package chaos

import (
	"context"
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	"fastmon/internal/fmerr"
)

func TestNilInjectorIsInert(t *testing.T) {
	ctx := context.Background()
	if From(ctx) != nil {
		t.Fatal("empty context carries an injector")
	}
	if err := Point(ctx, "nil.point"); err != nil {
		t.Fatalf("nil injector injected: %v", err)
	}
	Disturb(ctx, "nil.point")
	data := []byte("payload")
	got, err := Mutate(ctx, "nil.point", data)
	if err != nil || string(got) != "payload" {
		t.Fatalf("nil Mutate: %q, %v", got, err)
	}
	var in *Injector
	if in.Fired() != 0 || in.Snapshot() != nil {
		t.Fatal("nil accessor not inert")
	}
}

// points returns every registered injection point name, sorted.
func points() []string {
	regMu.RLock()
	out := make([]string, 0, len(regPts))
	for n := range regPts {
		out = append(out, n)
	}
	regMu.RUnlock()
	sort.Strings(out)
	return out
}

func TestRegistryEnumeratesPoints(t *testing.T) {
	name := Register("chaos_test.alpha", fmerr.StageDetect)
	Register("chaos_test.alpha", fmerr.StageATPG) // idempotent: first stage wins
	if name != "chaos_test.alpha" {
		t.Fatalf("Register returned %q", name)
	}
	found := false
	for _, p := range points() {
		if p == "chaos_test.alpha" {
			found = true
		}
	}
	if !found {
		t.Fatalf("registered point missing from the registry: %v", points())
	}
	if got := StageOfPoint("chaos_test.alpha"); got != fmerr.StageDetect {
		t.Fatalf("stage = %q, want detect", got)
	}
}

// TestDeterministicDecisions: two injectors with the same seed make the
// same fire/kind decisions call for call; a different seed diverges.
func TestDeterministicDecisions(t *testing.T) {
	run := func(seed int64) []string {
		in := New(Config{Seed: seed, Rate: 0.3, Kinds: []Kind{KindError, KindDelay}, MaxDelay: time.Microsecond})
		ctx := context.Background()
		var out []string
		for i := 0; i < 400; i++ {
			if err := in.Point(ctx, "det.point"); err != nil {
				var inj *Injected
				if !AsInjected(err, &inj) {
					t.Fatalf("untyped injection: %v", err)
				}
				out = append(out, inj.Error())
			} else {
				out = append(out, "")
			}
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d: %q vs %q", i, a[i], b[i])
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical decision streams")
	}
}

// TestDecisionsStableUnderConcurrency: the multiset of per-point
// decisions does not depend on which goroutine draws them.
func TestDecisionsStableUnderConcurrency(t *testing.T) {
	count := func(workers int) int64 {
		in := New(Config{Seed: 42, Rate: 0.2, Kinds: []Kind{KindError}})
		ctx := context.Background()
		var wg sync.WaitGroup
		per := 1000 / workers
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					_ = in.Point(ctx, "conc.point") //nolint:errcheck // counting via Fired
				}
			}()
		}
		wg.Wait()
		return in.Fired()
	}
	if a, b := count(1), count(4); a != b {
		t.Fatalf("fired count depends on concurrency: %d vs %d", a, b)
	}
}

func TestRateZeroAndOverrides(t *testing.T) {
	ctx := context.Background()
	in := New(Config{Seed: 1, Rate: 1, Rates: map[string]float64{"off.point": 0}, Kinds: []Kind{KindError}})
	if err := in.Point(ctx, "off.point"); err != nil {
		t.Fatalf("overridden-off point fired: %v", err)
	}
	if err := in.Point(ctx, "on.point"); err == nil {
		t.Fatal("rate-1 point did not fire")
	}
	if in.Fired() != 1 {
		t.Fatalf("fired = %d, want 1", in.Fired())
	}
	snap := in.Snapshot()
	if snap["on.point"] != 1 || snap["off.point"] != 0 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestBudgetCapsInjections(t *testing.T) {
	ctx := context.Background()
	in := New(Config{Seed: 3, Rate: 1, Budget: 5, Kinds: []Kind{KindError}})
	n := 0
	for i := 0; i < 100; i++ {
		if in.Point(ctx, "budget.point") != nil {
			n++
		}
	}
	if n != 5 || in.Fired() != 5 {
		t.Fatalf("injected %d (fired %d), want 5", n, in.Fired())
	}
}

func TestPanicKindCarriesInjected(t *testing.T) {
	ctx := context.Background()
	in := New(Config{Seed: 9, Rate: 1, Kinds: []Kind{KindPanic}})
	Register("panic.point", fmerr.StageSolve)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic kind did not panic")
		}
		inj, ok := r.(*Injected)
		if !ok || inj.Kind != KindPanic || inj.Point != "panic.point" {
			t.Fatalf("panic value = %#v", r)
		}
		if got := StageOf(r, fmerr.StageExper); got != fmerr.StageSolve {
			t.Fatalf("StageOf(panic) = %q, want solve", got)
		}
	}()
	_ = in.Point(ctx, "panic.point") //nolint:errcheck // panics
}

func TestDelayKindHonorsCancellation(t *testing.T) {
	in := New(Config{Seed: 2, Rate: 1, Kinds: []Kind{KindDelay}, MaxDelay: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := in.Point(ctx, "delay.point"); err != nil {
		t.Fatalf("delay returned error: %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("delay ignored cancellation")
	}
}

func TestMutateShortWriteAndBitFlip(t *testing.T) {
	data := []byte(`{"name":"s9234","payload":"0123456789abcdef"}`)
	short := New(Config{Seed: 11, Rate: 1, DataKinds: []Kind{KindShortWrite}})
	got, err := short.Mutate("mut.point", data)
	var inj *Injected
	if err == nil || !AsInjected(err, &inj) || inj.Kind != KindShortWrite {
		t.Fatalf("short write err = %v", err)
	}
	if len(got) >= len(data) {
		t.Fatalf("short write did not truncate: %d >= %d", len(got), len(data))
	}
	if string(got) != string(data[:len(got)]) {
		t.Fatal("short write is not a prefix")
	}

	flip := New(Config{Seed: 12, Rate: 1, DataKinds: []Kind{KindBitFlip}})
	got, err = flip.Mutate("mut.point", data)
	if err != nil {
		t.Fatalf("bit flip reported an error: %v", err)
	}
	if len(got) != len(data) {
		t.Fatalf("bit flip changed length: %d != %d", len(got), len(data))
	}
	diff := 0
	for i := range got {
		if got[i] != data[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("bit flip touched %d bytes, want 1", diff)
	}
	// The input buffer is never mutated in place.
	if string(data) != `{"name":"s9234","payload":"0123456789abcdef"}` {
		t.Fatal("Mutate corrupted the caller's buffer")
	}
}

func TestStageOfFallsBack(t *testing.T) {
	if got := StageOf("some panic", fmerr.StageDetect); got != fmerr.StageDetect {
		t.Fatalf("fallback stage = %q", got)
	}
	wrapped := fmerr.Wrap(fmerr.StageCache, "put",
		&Injected{Point: "p", Stage: fmerr.StageIO, Kind: KindError})
	if got := StageOf(error(wrapped.(error)), fmerr.StageExper); got != fmerr.StageIO {
		t.Fatalf("StageOf(wrapped error) = %q, want io", got)
	}
	if got := StageOf(errors.New("plain"), fmerr.StageATPG); got != fmerr.StageATPG {
		t.Fatalf("plain error fallback = %q", got)
	}
}
