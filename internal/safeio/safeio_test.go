package safeio

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"fastmon/internal/chaos"
	"fastmon/internal/fmerr"
)

func TestWriteFileAtomicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rec.json")
	ctx := context.Background()
	if err := WriteFileAtomic(ctx, path, []byte("hello"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read back: %q, %v", got, err)
	}
	// Overwrite in place.
	if err := WriteFileAtomic(ctx, path, []byte("world"), 0o644); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != "world" {
		t.Fatalf("after rewrite: %q", got)
	}
	// No stray temp files.
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("stray files in dir: %v", ents)
	}
}

func TestWriteFileAtomicCleansTempOnError(t *testing.T) {
	dir := t.TempDir()
	// Destination is a directory → rename must fail.
	dest := filepath.Join(dir, "blocked")
	if err := os.Mkdir(dest, 0o755); err != nil {
		t.Fatal(err)
	}
	err := WriteFileAtomic(context.Background(), dest, []byte("x"), 0o644)
	if err == nil {
		t.Fatal("rename over directory succeeded")
	}
	if fmerr.StageOf(err) != fmerr.StageIO {
		t.Fatalf("stage = %q, want io", fmerr.StageOf(err))
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("temp file left behind: %v", ents)
	}
}

func TestWriteFileAtomicChaosShortWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rec.json")
	in := chaos.New(chaos.Config{Seed: 5, Rate: 1, DataKinds: []chaos.Kind{chaos.KindShortWrite}})
	ctx := chaos.With(context.Background(), in)
	data := []byte(strings.Repeat("abcdefgh", 16))
	err := WriteFileAtomic(ctx, path, data, 0o644)
	var inj *chaos.Injected
	if err == nil || !chaos.AsInjected(err, &inj) || inj.Kind != chaos.KindShortWrite {
		t.Fatalf("short write err = %v", err)
	}
	if !IsTransient(err) {
		t.Fatal("injected short write not classified transient")
	}
	// The torn bytes reached the final path — exactly like a crash.
	got, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatalf("torn file missing: %v", rerr)
	}
	if len(got) >= len(data) {
		t.Fatalf("file not torn: %d bytes", len(got))
	}
}

func TestRecordRoundTrip(t *testing.T) {
	type payload struct {
		Name string `json:"name"`
		N    int    `json:"n"`
	}
	rec, err := MarshalRecord(payload{Name: "s9234", N: 7})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got payload
	if err := UnmarshalRecord(rec, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.Name != "s9234" || got.N != 7 {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestRecordDetectsTruncation(t *testing.T) {
	rec, _ := MarshalRecord(map[string]string{"k": strings.Repeat("v", 100)})
	var v map[string]string
	for _, n := range []int{0, 1, len(rec) / 2, len(rec) - 2} {
		err := UnmarshalRecord(rec[:n], &v)
		if err == nil {
			t.Fatalf("truncated record (%d bytes) accepted", n)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated record (%d bytes): untyped error %v", n, err)
		}
	}
}

// TestRecordRejectsVersionSkew raises the envelope version in both
// layouts, the compact one MarshalRecord writes and the indented one of
// MarshalRecordIndent (and of records written before compaction): both
// must read as corrupt, with nothing decoded.
func TestRecordRejectsVersionSkew(t *testing.T) {
	compact, _ := MarshalRecord(map[string]int{"a": 1})
	indented, _ := MarshalRecordIndent(map[string]int{"a": 1})
	for _, c := range []struct {
		layout   string
		rec      []byte
		from, to string
	}{
		{"compact", compact, `"v":1`, `"v":99`},
		{"indented", indented, `"v": 1`, `"v": 99`},
	} {
		skewed := strings.Replace(string(c.rec), c.from, c.to, 1)
		if skewed == string(c.rec) {
			t.Fatalf("%s: no %s in %s", c.layout, c.from, c.rec)
		}
		var v map[string]int
		if err := UnmarshalRecord([]byte(skewed), &v); !errors.Is(err, ErrCorrupt) || v != nil {
			t.Fatalf("%s version-skewed record: err %v, decoded %v", c.layout, err, v)
		}
	}
}

// TestRecordNakedJSONIsCorrupt: JSON without the envelope is not a record,
// so it reads as corrupt, with nothing decoded.
func TestRecordNakedJSONIsCorrupt(t *testing.T) {
	for _, data := range []string{`{"a": 1}`, `{"v": 1, "a": 1}`, `[1]`, `null`} {
		var v map[string]int
		if err := UnmarshalRecord([]byte(data), &v); !errors.Is(err, ErrCorrupt) || v != nil {
			t.Fatalf("naked JSON %s: err %v, decoded %v; want ErrCorrupt", data, err, v)
		}
	}
}

// TestRecordSurvivesReindentation re-indents a compact record and
// compacts an indented one, as a tool rewriting the file might: both
// still verify, since the CRC covers the compact payload.
func TestRecordSurvivesReindentation(t *testing.T) {
	rec, _ := MarshalRecord(map[string]int{"a": 1, "b": 2})
	var tabbed bytes.Buffer
	if err := json.Indent(&tabbed, rec, "", "\t"); err != nil {
		t.Fatal(err)
	}
	indented, _ := MarshalRecordIndent(map[string]int{"a": 1, "b": 2})
	flat := strings.NewReplacer("\n", "", "  ", "").Replace(string(indented))
	for _, data := range []string{tabbed.String(), flat} {
		var v map[string]int
		if err := UnmarshalRecord([]byte(data), &v); err != nil {
			t.Fatalf("re-indented record rejected: %v\n%s", err, data)
		}
		if v["a"] != 1 || v["b"] != 2 {
			t.Fatalf("payload lost: %v", v)
		}
	}
}

// indentedRecord is a record in the two-space indented layout every
// record had before MarshalRecord wrote compact ones; result caches
// written then hold entries like it.
const indentedRecord = "{\n  \"v\": 1,\n  \"crc32\": \"c1575711\",\n  \"payload\": {\n" +
	"    \"n\": 7,\n    \"name\": \"s9234\",\n    \"vals\": [\n      1,\n      2,\n      3\n    ]\n  }\n}\n"

func TestRecordReadsIndentedLayout(t *testing.T) {
	var got struct {
		Name string `json:"name"`
		N    int    `json:"n"`
		Vals []int  `json:"vals"`
	}
	if err := UnmarshalRecord([]byte(indentedRecord), &got); err != nil {
		t.Fatalf("indented record: %v", err)
	}
	if got.Name != "s9234" || got.N != 7 || !reflect.DeepEqual(got.Vals, []int{1, 2, 3}) {
		t.Fatalf("indented record decoded to %+v", got)
	}
	// The compact record of the same payload carries the same stamp.
	rec, _ := MarshalRecord(map[string]any{"name": "s9234", "n": 7, "vals": []int{1, 2, 3}})
	if !bytes.Contains(rec, []byte(`"crc32":"c1575711"`)) {
		t.Fatalf("compact record stamped differently: %s", rec)
	}
}

// TestRecordDetectsBitFlip: a flip that keeps a compact record's payload
// valid JSON reads as corrupt, and no single-bit flip in the stamp or the
// payload decodes into v — the one-pass path never decodes bytes whose
// CRC failed. A flip elsewhere may only be read as the intact record
// (encoding/json matches the envelope's keys case-insensitively).
func TestRecordDetectsBitFlip(t *testing.T) {
	want := map[string]int{"a": 1, "b": 2}
	rec, _ := MarshalRecord(want)
	i := bytes.Index(rec, []byte(`"a":1`)) + len(`"a":`)
	flipped := bytes.Clone(rec)
	flipped[i] ^= 0x01 // 1 -> 0
	var v map[string]int
	if err := UnmarshalRecord(flipped, &v); !errors.Is(err, ErrCorrupt) || v != nil {
		t.Fatalf("payload flip %s: err %v, decoded %v", flipped, err, v)
	}
	stamp := len(recordHead)
	payload := stamp + 8 + len(payloadHead)
	for i := range rec {
		checked := i >= stamp && i < stamp+8 || i >= payload && i < len(rec)-2
		for bit := 0; bit < 8; bit++ {
			c := bytes.Clone(rec)
			c[i] ^= 1 << bit
			var v map[string]int
			err := UnmarshalRecord(c, &v)
			if err == nil && !checked && reflect.DeepEqual(v, want) {
				continue
			}
			if err == nil || v != nil {
				t.Fatalf("bit %d of byte %d flipped (%q): err %v, decoded %v", bit, i, c, err, v)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("bit %d of byte %d flipped: untyped error %v", bit, i, err)
			}
		}
	}
}

// TestRecordLayoutsMatchEnvelope pins both writers to encoding/json's
// encoding of the envelope: MarshalRecord to json.Marshal, and
// MarshalRecordIndent to json.MarshalIndent with two spaces (the layout
// of run.json and BENCH_*.json), each plus a newline.
func TestRecordLayoutsMatchEnvelope(t *testing.T) {
	for _, v := range []any{
		map[string]int{"a": 1, "b": 2},
		struct {
			S string
			F []float64
			L []any
		}{"<a & b> \u2028 é \"q\"", []float64{1e21, 0.1, -0}, []any{nil, true, map[string]any{}}},
		nil,
		[]string{},
	} {
		payload, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		env := envelope{V: recordVersion, CRC32: fmt.Sprintf("%08x", crc32.Checksum(payload, castagnoli)), Payload: payload}
		want, _ := json.Marshal(env)
		wantIndent, _ := json.MarshalIndent(env, "", "  ")
		got, err := MarshalRecord(v)
		if err != nil || string(got) != string(want)+"\n" {
			t.Fatalf("MarshalRecord(%v) = %s, %v; want %s", v, got, err, want)
		}
		gotIndent, err := MarshalRecordIndent(v)
		if err != nil || string(gotIndent) != string(wantIndent)+"\n" {
			t.Fatalf("MarshalRecordIndent(%v) = %s, %v; want %s", v, gotIndent, err, wantIndent)
		}
	}
}

// FuzzUnmarshalRecord checks UnmarshalRecord against the verifying path
// alone on arbitrary bytes: both decode the same value or both fail, and
// a failure is always ErrCorrupt. The two paths differ on one input only,
// a compact-layout stamp computed over a payload stored with whitespace,
// which no writer produces: the one-pass path serves those bytes as
// stamped, the verifying path compacts them first. Such inputs are
// skipped.
func FuzzUnmarshalRecord(f *testing.F) {
	rec, _ := MarshalRecord(map[string]any{"name": "s9234", "vals": []int{1, 2, 3}})
	indented, _ := MarshalRecordIndent(map[string]any{"name": "s9234", "vals": []int{1, 2, 3}})
	flipped := bytes.Clone(rec)
	flipped[len(flipped)/2] ^= 0x04
	for _, seed := range [][]byte{
		rec, indented, rec[:len(rec)-1], rec[:len(rec)/2], flipped, []byte(indentedRecord),
		bytes.Replace(rec, []byte(`"v":1`), []byte(`"v":2`), 1),
		[]byte(`{"v":1,"crc32":"00000000","payload":}`), []byte(`{"a": 1}`), []byte(``), []byte(`null`),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if payload, ok := compactPayload(data); ok {
			var c bytes.Buffer
			if json.Compact(&c, payload) == nil && !bytes.Equal(c.Bytes(), payload) {
				t.Skip("stamp over a payload stored with whitespace")
			}
		}
		var got, want any
		err := UnmarshalRecord(data, &got)
		refErr := unmarshalVerified(data, &want)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%q: error %v, verifying path %v", data, err, refErr)
		}
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%q: error %v, want ErrCorrupt", data, err)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decoded %v, verifying path %v", data, got, want)
		}
	})
}

// stubSleep replaces Retry's backoff sleep for the test with fn.
func stubSleep(t *testing.T, fn func(context.Context, time.Duration) error) {
	t.Helper()
	old := sleep
	sleep = fn
	t.Cleanup(func() { sleep = old })
}

func noSleep(context.Context, time.Duration) error { return nil }

// flaky returns a chaos-injected fault, the one kind of error Retry
// retries.
func flaky() error { return &chaos.Injected{Point: "p", Stage: fmerr.StageIO, Kind: chaos.KindError} }

func TestRetrySucceedsAfterTransients(t *testing.T) {
	stubSleep(t, noSleep)
	calls := 0
	err := Retry(context.Background(), "op", func() error {
		calls++
		if calls < 3 {
			return flaky()
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestRetryStopsOnPermanentError(t *testing.T) {
	stubSleep(t, noSleep)
	calls := 0
	perm := errors.New("permanent")
	err := Retry(context.Background(), "op", func() error {
		calls++
		return perm
	})
	if calls != 1 {
		t.Fatalf("retried a permanent error %d times", calls)
	}
	if !errors.Is(err, perm) {
		t.Fatalf("lost the typed error: %v", err)
	}
	if fmerr.StageOf(err) != fmerr.StageIO {
		t.Fatalf("stage = %q", fmerr.StageOf(err))
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	stubSleep(t, noSleep)
	calls := 0
	last := flaky()
	err := Retry(context.Background(), "op", func() error {
		calls++
		return last
	})
	if calls != retryAttempts {
		t.Fatalf("calls = %d, want %d", calls, retryAttempts)
	}
	if !errors.Is(err, last) {
		t.Fatalf("lost last error: %v", err)
	}
}

// TestRetryNeverRetriesAfterCancel: whichever backoff the context is
// cancelled in, Retry must never invoke fn again after the cancellation,
// and must always return the last typed error fn produced (not a bare
// context error) once fn has run.
func TestRetryNeverRetriesAfterCancel(t *testing.T) {
	for cancelAfter := 0; cancelAfter < retryAttempts; cancelAfter++ {
		ctx, cancel := context.WithCancel(context.Background())
		typed := &chaos.Injected{Point: "p", Stage: fmerr.StageIO, Kind: chaos.KindError}
		calls, callsAtCancel := 0, -1
		sleeps := 0
		stubSleep(t, func(c context.Context, _ time.Duration) error {
			if sleeps == cancelAfter {
				cancel()
				callsAtCancel = calls
			}
			sleeps++
			return c.Err()
		})
		err := Retry(ctx, "op", func() error {
			calls++
			return typed
		})
		cancel()
		if callsAtCancel >= 0 && calls != callsAtCancel {
			t.Fatalf("cancel in backoff %d: fn called %d times after cancellation", cancelAfter, calls-callsAtCancel)
		}
		var inj *chaos.Injected
		if !chaos.AsInjected(err, &inj) {
			t.Fatalf("cancel in backoff %d: lost the typed error, got %v", cancelAfter, err)
		}
		if errors.Is(err, context.Canceled) {
			t.Fatalf("cancel in backoff %d: returned context error instead of typed op error: %v", cancelAfter, err)
		}
	}
}

// TestRetryCancelledBeforeFirstAttempt: if the context is already dead
// and fn never ran, the context error is the only truthful answer.
func TestRetryCancelledBeforeFirstAttempt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := Retry(ctx, "op", func() error { calls++; return nil })
	if calls != 0 {
		t.Fatalf("fn ran %d times on a dead context", calls)
	}
	if !fmerr.IsCanceled(err) {
		t.Fatalf("err = %v, want cancellation", err)
	}
}

// TestRetryBackoffDeterministicAndBounded: the backoffs between the four
// attempts are fixed: 2 ms, doubling each time.
func TestRetryBackoffDeterministicAndBounded(t *testing.T) {
	var got []time.Duration
	stubSleep(t, func(_ context.Context, d time.Duration) error {
		got = append(got, d)
		return nil
	})
	Retry(context.Background(), "op", func() error { return flaky() })
	want := []time.Duration{2 * time.Millisecond, 4 * time.Millisecond, 8 * time.Millisecond}
	if !slices.Equal(got, want) {
		t.Fatalf("backoffs %v, want %v", got, want)
	}
}

func TestIsTransientClassification(t *testing.T) {
	if IsTransient(nil) {
		t.Fatal("nil transient")
	}
	if IsTransient(context.Canceled) {
		t.Fatal("cancellation transient")
	}
	inj := &chaos.Injected{Point: "p", Kind: chaos.KindError}
	if !IsTransient(fmerr.Wrap(fmerr.StageIO, "w", inj)) {
		t.Fatal("wrapped chaos fault not transient")
	}
	if IsTransient(errors.New("plain")) {
		t.Fatal("plain error transient")
	}
}
