package flight

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestNilRecorderIsNoop(t *testing.T) {
	var r *Recorder
	r.Record(Event{Kind: KindCache, Name: "x"})
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil snapshot = %v", got)
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WriteJSONL = %v, %d bytes", err, buf.Len())
	}
	if path, err := r.AutoDump("test"); err != nil || path != "" {
		t.Fatalf("nil AutoDump = %q, %v", path, err)
	}
	if r.Cap() != 0 || r.Recorded() != 0 {
		t.Fatalf("nil Cap/Recorded = %d/%d", r.Cap(), r.Recorded())
	}
	// The zero value (not constructed with New) must drop events too.
	var zero Recorder
	zero.Record(Event{Kind: KindCache})
	if got := zero.Snapshot(); got != nil {
		t.Fatalf("zero-value snapshot = %v", got)
	}
}

func TestCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultCapacity}, {-5, DefaultCapacity}, {1, 1}, {2, 2}, {3, 4}, {1000, 1024},
	} {
		if got := New(tc.in).Cap(); got != tc.want {
			t.Errorf("New(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestRecordAndSnapshotOrder(t *testing.T) {
	r := New(8)
	for i := 0; i < 5; i++ {
		r.Record(Event{Kind: KindCache, Value: int64(i)})
	}
	evs := r.Snapshot()
	if len(evs) != 5 {
		t.Fatalf("snapshot has %d events, want 5", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i) || ev.Value != int64(i) {
			t.Fatalf("event %d = seq %d value %d", i, ev.Seq, ev.Value)
		}
		if ev.Time.IsZero() {
			t.Fatalf("event %d has zero time", i)
		}
	}
}

func TestWraparoundKeepsNewest(t *testing.T) {
	r := New(8)
	const total = 100
	for i := 0; i < total; i++ {
		r.Record(Event{Kind: KindCache, Value: int64(i)})
	}
	evs := r.Snapshot()
	if len(evs) != 8 {
		t.Fatalf("snapshot has %d events, want 8", len(evs))
	}
	for i, ev := range evs {
		want := uint64(total - 8 + i)
		if ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
	if r.Recorded() != total {
		t.Fatalf("Recorded = %d, want %d", r.Recorded(), total)
	}
}

// TestConcurrentWriters hammers the ring from many goroutines through
// several wraparounds (run under -race in CI): every surviving event must
// be internally consistent — its Value must round-trip the writer/index
// encoding — and the snapshot must be strictly seq-ordered.
func TestConcurrentWriters(t *testing.T) {
	r := New(256)
	const writers = 8
	const perWriter = 4096 // 128 wraparounds
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Record(Event{
					Kind:   KindCache,
					Name:   "pool",
					Detail: "tick",
					Value:  int64(w)<<32 | int64(i),
				})
			}
		}(w)
	}
	// Concurrent readers must never observe a torn event.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			for _, ev := range r.Snapshot() {
				if ev.Kind != KindCache || ev.Name != "pool" || ev.Detail != "tick" {
					t.Errorf("torn event observed: %+v", ev)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if r.Recorded() != writers*perWriter {
		t.Fatalf("Recorded = %d, want %d", r.Recorded(), writers*perWriter)
	}
	evs := r.Snapshot()
	if len(evs) != 256 {
		t.Fatalf("snapshot has %d events, want full ring of 256", len(evs))
	}
	seen := map[uint64]bool{}
	for i, ev := range evs {
		if i > 0 && ev.Seq <= evs[i-1].Seq {
			t.Fatalf("snapshot out of order at %d: %d after %d", i, ev.Seq, evs[i-1].Seq)
		}
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
		w, i2 := ev.Value>>32, ev.Value&0xffffffff
		if w < 0 || w >= writers || i2 < 0 || i2 >= perWriter {
			t.Fatalf("event value decodes to writer %d index %d", w, i2)
		}
	}
}

func TestWriteJSONLRoundTrip(t *testing.T) {
	r := New(16)
	r.Record(Event{Kind: KindPanic, Name: "ilp.node", Stage: "solve", Detail: "boom", Value: 7})
	r.Record(Event{Kind: KindSpanEnd, Name: "s9234/detect", Value: 12345})
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var got []Event
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		got = append(got, ev)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d events, want 2", len(got))
	}
	if got[0].Kind != KindPanic || got[0].Name != "ilp.node" || got[0].Stage != "solve" ||
		got[0].Detail != "boom" || got[0].Value != 7 {
		t.Fatalf("event 0 = %+v", got[0])
	}
	if got[1].Kind != KindSpanEnd || got[1].Name != "s9234/detect" {
		t.Fatalf("event 1 = %+v", got[1])
	}
}

func TestAutoDump(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flight.jsonl")
	r := New(16)
	r.DumpPath = path
	r.Record(Event{Kind: KindPanic, Name: "detect", Stage: "detect", Detail: "boom"})
	got, err := r.AutoDump("recovered panic")
	if err != nil {
		t.Fatal(err)
	}
	if got != path {
		t.Fatalf("AutoDump returned %q, want %q", got, path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"kind":"panic"`)) {
		t.Fatalf("dump missing panic event:\n%s", data)
	}
	// The dump trigger itself is journaled last.
	if !bytes.Contains(data, []byte(`"detail":"recovered panic"`)) {
		t.Fatalf("dump missing trigger event:\n%s", data)
	}
	// No configured path: no-op, no error.
	r2 := New(16)
	r2.Record(Event{Kind: KindCache})
	if p, err := r2.AutoDump("x"); err != nil || p != "" {
		t.Fatalf("AutoDump without path = %q, %v", p, err)
	}
}
