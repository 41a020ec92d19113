package cache

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"fastmon/internal/chaos"
	"fastmon/internal/obs"
	"fastmon/internal/safeio"
)

type payload struct {
	Name string
	Vals []int
}

func testKey(t *testing.T, s string) Key {
	t.Helper()
	return NewHasher("test").Str("id", s).Key()
}

func TestStoreRoundTrip(t *testing.T) {
	ctx := context.Background()
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(t, "a")
	want := payload{Name: "x", Vals: []int{1, 2, 3}}
	var got payload
	if s.Get(ctx, k, &got) {
		t.Fatal("Get on empty store reported a hit")
	}
	s.Put(ctx, k, want)
	if !s.Get(ctx, k, &got) {
		t.Fatal("Get after Put missed")
	}
	if got.Name != want.Name || len(got.Vals) != 3 || got.Vals[2] != 3 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	r := s.Report()
	if r.Hits != 1 || r.Misses != 1 || r.Puts != 1 {
		t.Fatalf("report = %+v, want 1 hit / 1 miss / 1 put", r)
	}
}

func TestStoreNilSafe(t *testing.T) {
	ctx := context.Background()
	var s *Store
	var got payload
	if s.Get(ctx, testKey(t, "a"), &got) {
		t.Fatal("nil store hit")
	}
	s.Put(ctx, testKey(t, "a"), payload{})
	if s.Report() != nil || s.Dir() != "" || s.Len() != 0 || s.Bytes() != 0 {
		t.Fatal("nil store accessors not zero")
	}
	v, err := Memo(ctx, s, testKey(t, "a"), func(context.Context) (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("nil-store Memo = %d, %v", v, err)
	}
	if From(ctx) != nil {
		t.Fatal("From on bare context not nil")
	}
	if With(ctx, nil) != ctx {
		t.Fatal("With(nil) should return ctx unchanged")
	}
}

func TestStoreCorruptEntryIsMiss(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(t, "a")
	s.Put(ctx, k, payload{Name: "x"})
	path := filepath.Join(dir, k.String()+".json")

	for name, mutate := range map[string]func([]byte) []byte{
		"bitflip":  func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b },
		"truncate": func(b []byte) []byte { return b[:len(b)/2] },
		"empty":    func([]byte) []byte { return nil },
		"garbage":  func([]byte) []byte { return []byte("not a record") },
	} {
		s.Put(ctx, k, payload{Name: "x"})
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
			t.Fatal(err)
		}
		var got payload
		if s.Get(ctx, k, &got) {
			t.Fatalf("%s: corrupt entry reported as hit", name)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s: corrupt entry not removed", name)
		}
	}
	if s.Report().Corrupt != 4 {
		t.Fatalf("corrupt count = %d, want 4", s.Report().Corrupt)
	}
}

// FuzzStoreGet writes arbitrary bytes at one key's entry path and checks
// the read contract: Get never panics; a miss removes the entry and counts
// it corrupt; Memo then computes once, and the next Get returns the
// computed value. Seeds cover the corruption classes: a valid record, its
// two halves (torn writes), a one-bit flip, a version-skewed envelope,
// naked JSON, an empty file and null.
func FuzzStoreGet(f *testing.F) {
	want := payload{Name: "x", Vals: []int{1, 2, 3}}
	good, err := safeio.MarshalRecord(want)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[len(good)/2:])
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)
	f.Add([]byte(`{"v":99,"crc32":"00000000","payload":{}}`))
	f.Add([]byte(`{"Name":"x","Vals":[1,2,3]}`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		ctx := context.Background()
		dir := t.TempDir()
		k := NewHasher("fuzz").Str("id", "entry").Key()
		path := filepath.Join(dir, k.String()+entrySuffix)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		var got payload
		if s.Get(ctx, k, &got) {
			return // an intact record is a hit
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("missed entry not removed: %v", err)
		}
		if n := s.Report().Corrupt; n != 1 {
			t.Fatalf("corrupt count = %d, want 1", n)
		}
		computes := 0
		v, err := Memo(ctx, s, k, func(context.Context) (payload, error) {
			computes++
			return want, nil
		})
		if err != nil || computes != 1 || !reflect.DeepEqual(v, want) {
			t.Fatalf("Memo after a miss = %+v, %v after %d computes", v, err, computes)
		}
		var back payload
		if !s.Get(ctx, k, &back) || !reflect.DeepEqual(back, want) {
			t.Fatalf("Get after Memo = %+v, want %+v", back, want)
		}
	})
}

func TestStoreAdoptsExistingEntries(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s1, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(t, "a")
	s1.Put(ctx, k, payload{Name: "persisted"})

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("reopened store indexed %d entries, want 1", s2.Len())
	}
	var got payload
	if !s2.Get(ctx, k, &got) || got.Name != "persisted" {
		t.Fatalf("reopened store Get = %+v", got)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	// Budget fits roughly two entries of this payload size.
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	big := payload{Name: "x", Vals: make([]int, 200)}
	s.Put(ctx, testKey(t, "probe"), big)
	budget := s.Bytes()*2 + 64
	s.drop(testKey(t, "probe").String())

	s, err = Open(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2, k3 := testKey(t, "1"), testKey(t, "2"), testKey(t, "3")
	s.Put(ctx, k1, big)
	s.Put(ctx, k2, big)
	// Touch k1 so k2 becomes the LRU victim.
	var got payload
	if !s.Get(ctx, k1, &got) {
		t.Fatal("k1 missing before eviction")
	}
	s.Put(ctx, k3, big)

	if s.Get(ctx, k2, &got) {
		t.Fatal("k2 survived eviction; expected LRU victim")
	}
	if !s.Get(ctx, k1, &got) || !s.Get(ctx, k3, &got) {
		t.Fatal("k1/k3 evicted; expected k2 only")
	}
	r := s.Report()
	if r.Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
	if r.Bytes > budget {
		t.Fatalf("indexed bytes %d exceed budget %d", r.Bytes, budget)
	}
}

// TestMemoConcurrentSameKey starts concurrent Memo calls on one key. Each
// caller either hits or misses, computes and stores; all of them return
// the value, and the atomic writes leave one whole entry behind.
func TestMemoConcurrentSameKey(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(t, "shared")
	want := payload{Name: "computed", Vals: []int{42}}
	var computes atomic.Int64
	start := make(chan struct{})

	const callers = 8
	var wg sync.WaitGroup
	results := make([]payload, callers)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, err := Memo(ctx, s, k, func(context.Context) (payload, error) {
				computes.Add(1)
				return payload{Name: want.Name, Vals: []int{42}}, nil
			})
			if err != nil {
				t.Errorf("Memo: %v", err)
			}
			results[i] = v
		}(i)
	}
	close(start)
	wg.Wait()

	for i, v := range results {
		if !reflect.DeepEqual(v, want) {
			t.Fatalf("caller %d got %+v", i, v)
		}
	}
	r := s.Report()
	t.Logf("%d of %d callers computed", computes.Load(), callers)
	if n := computes.Load(); r.Misses != n || r.Puts != n || r.Hits+r.Misses != callers || r.Corrupt != 0 {
		t.Fatalf("%d computes, report %+v: want a put per miss, a hit or miss per caller, nothing corrupt", n, r)
	}
	info, err := os.Stat(filepath.Join(dir, k.String()+entrySuffix))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || s.Bytes() != info.Size() {
		t.Fatalf("store holds %d entries of %d bytes, want 1 of %d", s.Len(), s.Bytes(), info.Size())
	}
	var got payload
	if !s.Get(ctx, k, &got) || !reflect.DeepEqual(got, want) {
		t.Fatalf("Get after the concurrent calls = %+v", got)
	}
}

func TestMemoErrorNotCached(t *testing.T) {
	ctx := context.Background()
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(t, "err")
	boom := fmt.Errorf("boom")
	if _, err := Memo(ctx, s, k, func(context.Context) (payload, error) {
		return payload{}, boom
	}); err != boom {
		t.Fatalf("Memo error = %v, want boom", err)
	}
	ran := false
	if _, err := Memo(ctx, s, k, func(context.Context) (payload, error) {
		ran = true
		return payload{Name: "ok"}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("failed compute was cached; second Memo did not run")
	}
}

func TestChaosInjectionDegradesToMiss(t *testing.T) {
	// Arm only the cache's own injection points at rate 1: every write is
	// mutated on its way to disk and every read is mutated again, so each
	// Get must degrade to a miss — never an error, never wrong data.
	inj := chaos.New(chaos.Config{Seed: 7,
		Rates: map[string]float64{PointRead: 1, PointWrite: 1}})
	ctx := chaos.With(context.Background(), inj)
	o := obs.New(nil)
	ctx = obs.With(ctx, o)

	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	misses := 0
	for i := 0; i < 16; i++ {
		k := testKey(t, fmt.Sprintf("chaos-%d", i))
		v, err := Memo(ctx, s, k, func(context.Context) (payload, error) {
			return payload{Name: "v", Vals: []int{i}}, nil
		})
		if err != nil {
			t.Fatalf("Memo under chaos returned error: %v", err)
		}
		if v.Name != "v" || v.Vals[0] != i {
			t.Fatalf("Memo under chaos returned wrong value: %+v", v)
		}
		var got payload
		if s.Get(ctx, k, &got) {
			// A hit is only acceptable if the data is intact.
			if got.Name != "v" || got.Vals[0] != i {
				t.Fatalf("chaos produced a wrong-value hit: %+v", got)
			}
		} else {
			misses++
		}
	}
	if misses == 0 {
		t.Fatal("rate-1 chaos on cache I/O produced no misses")
	}
	if s.Report().Corrupt == 0 {
		t.Fatal("corrupt counter not incremented under cache chaos")
	}
	if o.Counter("cache.corrupt").Value() == 0 {
		t.Fatal("obs cache.corrupt counter not incremented")
	}
}
