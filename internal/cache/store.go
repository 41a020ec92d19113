package cache

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"fastmon/internal/chaos"
	"fastmon/internal/fmerr"
	"fastmon/internal/obs"
	"fastmon/internal/obs/flight"
	"fastmon/internal/safeio"
)

// Chaos injection points for the cache's own I/O. PointRead mutates entry
// bytes after they are read (modelling on-disk rot), PointWrite mutates them
// before they are written (modelling torn or bit-flipped writes). Both
// degrade to misses on the next read — the CRC envelope catches them.
var (
	PointRead  = chaos.Register("cache.read", fmerr.StageCache)
	PointWrite = chaos.Register("cache.write", fmerr.StageCache)
)

// entrySuffix is the on-disk extension of every cache entry.
const entrySuffix = ".json"

// Store is a disk-backed content-addressed memo for stage results. A nil
// *Store is valid and disables caching (every Get misses, every Put is
// dropped), mirroring the nil-safety of obs.Observer and chaos.Injector.
//
// Entries live flat in dir as "<stage>-<sha256>.json" CRC-enveloped records.
// The store keeps an in-memory LRU index (seeded from file mtimes at Open)
// and evicts least-recently-used entries whenever the configured byte budget
// is exceeded; eviction is an atomic os.Remove, so a concurrent reader either
// sees the whole entry or a miss.
type Store struct {
	dir string
	max int64 // byte budget; <= 0 means unlimited

	mu      sync.Mutex
	entries map[string]*entry
	seq     int64
	size    int64

	hits      atomic.Int64
	misses    atomic.Int64
	corrupt   atomic.Int64
	evictions atomic.Int64
	puts      atomic.Int64
	writeErrs atomic.Int64
}

type entry struct {
	size int64
	seq  int64
}

// Open creates (if needed) and indexes a cache directory. maxBytes <= 0
// disables the size budget. Existing entries are adopted with their file
// modification time as the initial LRU order, so a warm directory survives
// process restarts.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmerr.Wrap(fmerr.StageCache, "open", err)
	}
	s := &Store{
		dir:     dir,
		max:     maxBytes,
		entries: make(map[string]*entry),
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmerr.Wrap(fmerr.StageCache, "open", err)
	}
	type seed struct {
		name string
		size int64
		mod  int64
	}
	var seeds []seed
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), entrySuffix) ||
			strings.Contains(de.Name(), ".tmp") {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		seeds = append(seeds, seed{de.Name(), info.Size(), info.ModTime().UnixNano()})
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i].mod < seeds[j].mod })
	for _, sd := range seeds {
		s.seq++
		s.entries[strings.TrimSuffix(sd.name, entrySuffix)] = &entry{size: sd.size, seq: s.seq}
		s.size += sd.size
	}
	return s, nil
}

// Dir returns the cache directory ("" on a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

func (s *Store) path(k string) string {
	return filepath.Join(s.dir, k+entrySuffix)
}

// Get decodes the entry for key into v and reports whether it was present
// and intact. Every failure mode — absent file, read error, truncated or
// bit-flipped bytes, record version skew — is a miss; corrupt entries are
// additionally removed and counted so they are recomputed and rewritten.
func (s *Store) Get(ctx context.Context, key Key, v any) bool {
	if s == nil {
		return false
	}
	k := key.String()
	o := obs.From(ctx)
	data, err := os.ReadFile(s.path(k))
	if err == nil {
		// Chaos: model on-disk corruption surfacing at read time.
		data, _ = chaos.Mutate(ctx, PointRead, data)
		if err = safeio.UnmarshalRecord(data, v); err != nil {
			s.corrupt.Add(1)
			s.drop(k)
			o.Counter("cache.corrupt").Inc()
			o.Flight().Record(flight.Event{
				Kind: flight.KindCache, Name: k, Stage: string(fmerr.StageCache),
				Detail: "corrupt", Value: int64(len(data)),
			})
		}
	}
	if err != nil {
		s.misses.Add(1)
		o.Counter("cache.misses").Inc()
		o.Counter("cache.misses." + key.stage).Inc()
		return false
	}
	s.touch(k, int64(len(data)))
	s.hits.Add(1)
	o.Counter("cache.hits").Inc()
	o.Counter("cache.hits." + key.stage).Inc()
	o.Flight().Record(flight.Event{
		Kind: flight.KindCache, Name: k, Stage: string(fmerr.StageCache),
		Detail: "hit", Value: int64(len(data)),
	})
	return true
}

// Put stores v under key, best-effort: marshal or write failures are counted
// and swallowed (the pipeline already holds the computed value).
func (s *Store) Put(ctx context.Context, key Key, v any) {
	if s == nil {
		return
	}
	o := obs.From(ctx)
	rec, err := safeio.MarshalRecord(v)
	if err != nil {
		s.writeErrs.Add(1)
		o.Counter("cache.write_errors").Inc()
		return
	}
	k := key.String()
	// Chaos: model torn or bit-flipped writes. The mutated bytes still
	// land on disk so the corruption is durable; the CRC envelope turns
	// it into a miss on the next read.
	out, _ := chaos.Mutate(ctx, PointWrite, rec)
	if err := safeio.WriteFileAtomic(ctx, s.path(k), out, 0o644); err != nil {
		s.writeErrs.Add(1)
		o.Counter("cache.write_errors").Inc()
		return
	}
	s.puts.Add(1)
	o.Counter("cache.puts").Inc()
	o.Flight().Record(flight.Event{
		Kind: flight.KindCache, Name: k, Stage: string(fmerr.StageCache),
		Detail: "put", Value: int64(len(out)),
	})
	s.index(ctx, k, int64(len(out)))
}

// touch records an entry's size and bumps its LRU position, indexing it if
// it is new: freshly written, or a file that appeared behind the store's
// back.
func (s *Store) touch(k string, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	if e, ok := s.entries[k]; ok {
		s.size += size - e.size
		e.size = size
		e.seq = s.seq
		return
	}
	s.entries[k] = &entry{size: size, seq: s.seq}
	s.size += size
}

// drop removes a (corrupt) entry from disk and index.
func (s *Store) drop(k string) {
	os.Remove(s.path(k))
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[k]; ok {
		s.size -= e.size
		delete(s.entries, k)
	}
}

// index records a freshly written entry and evicts least-recently-used
// entries while the byte budget is exceeded.
func (s *Store) index(ctx context.Context, k string, size int64) {
	s.touch(k, size)
	var evicted []string
	s.mu.Lock()
	for s.max > 0 && s.size > s.max && len(s.entries) > 1 {
		oldest, oldestSeq := "", int64(0)
		for name, e := range s.entries {
			if name == k {
				continue // never evict the entry we just wrote
			}
			if oldest == "" || e.seq < oldestSeq {
				oldest, oldestSeq = name, e.seq
			}
		}
		if oldest == "" {
			break
		}
		s.size -= s.entries[oldest].size
		delete(s.entries, oldest)
		evicted = append(evicted, oldest)
	}
	bytes := s.size
	s.mu.Unlock()

	o := obs.From(ctx)
	for _, name := range evicted {
		os.Remove(s.path(name))
		s.evictions.Add(1)
		o.Counter("cache.evictions").Inc()
		o.Flight().Record(flight.Event{
			Kind: flight.KindCache, Name: name, Stage: string(fmerr.StageCache),
			Detail: "evict",
		})
	}
	o.Gauge("cache.bytes").Set(float64(bytes))
}

// Bytes returns the indexed size of the cache in bytes.
func (s *Store) Bytes() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Len returns the number of indexed entries.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Report summarizes the store for the run manifest. Nil stores report nil.
func (s *Store) Report() *obs.CacheReport {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	entries, bytes := len(s.entries), s.size
	s.mu.Unlock()
	return &obs.CacheReport{
		Dir:         s.dir,
		MaxBytes:    s.max,
		Entries:     entries,
		Bytes:       bytes,
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Corrupt:     s.corrupt.Load(),
		Evictions:   s.evictions.Load(),
		Puts:        s.puts.Load(),
		WriteErrors: s.writeErrs.Load(),
	}
}

// Memo returns the cached value for key, or computes, stores and returns it.
// Compute errors are never cached. Concurrent callers with the same key
// each miss, compute and store; the atomic write keeps one whole entry. A
// nil store calls compute directly.
func Memo[T any](ctx context.Context, s *Store, key Key, compute func(context.Context) (T, error)) (T, error) {
	var v T
	if s.Get(ctx, key, &v) {
		return v, nil
	}
	v, err := compute(ctx)
	if err == nil {
		s.Put(ctx, key, v)
	}
	return v, err
}

// ctxKey carries the store on a context.
type ctxKey struct{}

// With attaches a store to the context. Attaching nil is a no-op context.
func With(ctx context.Context, s *Store) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// From extracts the store riding the context, or nil when caching is off.
// The nil result is a valid no-op store.
func From(ctx context.Context) *Store {
	s, _ := ctx.Value(ctxKey{}).(*Store)
	return s
}
