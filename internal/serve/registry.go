package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/rewrite"
	"eva/internal/store"
)

// Registry is a concurrent, LRU-bounded cache of compiled programs keyed by
// content hash. Compilation of a distinct (program, options) pair happens at
// most once even under concurrent load: the first request compiles while
// later requests for the same key wait for that result (singleflight-style
// deduplication). Entries are evicted least-recently-used once the capacity
// is exceeded; eviction only removes an entry from the cache, never
// invalidates it — execution contexts holding the compiled result keep it
// alive (and keep executing it, though without the constant cache, which
// eviction releases).
//
// With a durable artifact store attached the registry is a cache in front
// of the store rather than the source of truth: every fresh compilation
// writes the program's canonical source and options through to the store,
// and a lookup that misses the cache reloads the artifact and recompiles it
// (compilation is deterministic, so the rebuilt entry is identical). A
// server restarted onto the same store therefore serves every previously
// compiled program id without clients re-submitting anything.
type Registry struct {
	capacity int
	store    store.Store // nil = cache only, no durability
	log      *slog.Logger

	mu       sync.Mutex
	byID     map[string]*list.Element // values are *Entry
	lru      *list.List               // front = most recently used
	inflight map[string]*flight

	hits        uint64 // lookups answered from the cache
	joins       uint64 // lookups that waited on an in-flight compilation
	misses      uint64 // lookups that triggered a compilation
	evictions   uint64
	storeLoads  uint64 // cache misses answered by recompiling a stored artifact
	storeMisses uint64 // lookups absent from both the cache and the store
}

// kindProgram is the artifact-store kind under which compiled programs are
// persisted: the canonical serialized source plus the exact compile options,
// keyed by the content-hash program id.
const kindProgram = "program"

// programRecord is the stored form of one compiled program.
type programRecord struct {
	// Source is the canonical serialized program (deterministic JSON).
	Source json.RawMessage `json:"source"`
	// Options is the exact compile.Options the id was derived from.
	Options compile.Options `json:"options"`
	// CreatedAt is when the program was first compiled.
	CreatedAt time.Time `json:"created_at"`
}

// flight is one in-progress compilation that concurrent requests join.
type flight struct {
	done  chan struct{}
	entry *Entry
	err   error
}

// Entry is one compiled program in the registry.
type Entry struct {
	// ID is the content hash of the canonical serialized program plus the
	// compile options, so identical submissions map to the same entry.
	ID string
	// Source is the canonical serialized form of the input program.
	Source []byte
	// Options are the compile options the entry was built with.
	Options compile.Options
	// Result is the compiled program.
	Result *compile.Result
	// CompileTime is how long the (single) compilation took.
	CompileTime time.Duration
	// CreatedAt is when the compilation finished.
	CreatedAt time.Time

	mu   sync.Mutex
	hits uint64
}

// Hits returns how many registry lookups this entry has served.
func (e *Entry) Hits() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hits
}

func (e *Entry) recordHit() {
	e.mu.Lock()
	e.hits++
	e.mu.Unlock()
}

// NewRegistryWithStore returns a registry holding at most capacity compiled
// programs, backed by a durable artifact store: compilations write through
// to it and cache misses fall back to it. st may be nil for a cache-only
// registry. The capacity is clamped to at least 1: capacity <= 0 means the
// default of registryCapacity, so a registry can never evict entries the
// moment they are inserted. A stored program that cannot be rebuilt is
// logged to log as a warning.
func NewRegistryWithStore(capacity int, st store.Store, log *slog.Logger) *Registry {
	if capacity <= 0 {
		capacity = registryCapacity
	}
	return &Registry{
		capacity: capacity,
		store:    st,
		log:      log,
		byID:     map[string]*list.Element{},
		lru:      list.New(),
		inflight: map[string]*flight{},
	}
}

// ProgramID returns the registry key for a program and options: a truncated
// SHA-256 over the canonical serialized program and the options. The
// program's serialized form is deterministic (terms are written in
// topological order), so structurally identical submissions hash alike
// regardless of JSON formatting.
func ProgramID(source []byte, opts compile.Options) (string, error) {
	optJSON, err := json.Marshal(opts)
	if err != nil {
		return "", fmt.Errorf("serve: hashing options: %w", err)
	}
	h := sha256.New()
	h.Write(source)
	h.Write([]byte{0})
	h.Write(optJSON)
	return hex.EncodeToString(h.Sum(nil))[:24], nil
}

// GetOrCompile returns the registry entry for the program, compiling it if —
// and only if — no equivalent program is cached or already being compiled.
// The second return value reports whether the call was served without a new
// compilation (a cache hit or a join on an in-flight one).
func (r *Registry) GetOrCompile(p *core.Program, opts compile.Options) (*Entry, bool, error) {
	source, err := p.SerializeBytes()
	if err != nil {
		return nil, false, fmt.Errorf("serve: canonicalizing program: %w", err)
	}
	id, err := ProgramID(source, opts)
	if err != nil {
		return nil, false, err
	}

	r.mu.Lock()
	if elem, ok := r.byID[id]; ok {
		r.lru.MoveToFront(elem)
		r.hits++
		r.mu.Unlock()
		e := elem.Value.(*Entry)
		e.recordHit()
		return e, true, nil
	}
	if f, ok := r.inflight[id]; ok {
		r.joins++
		r.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, false, f.err
		}
		f.entry.recordHit()
		return f.entry, true, nil
	}
	f := &flight{done: make(chan struct{})}
	r.inflight[id] = f
	r.misses++
	r.mu.Unlock()

	start := time.Now()
	res, err := compile.Compile(p, opts)
	if err == nil {
		f.entry = &Entry{
			ID:          id,
			Source:      source,
			Options:     opts,
			Result:      res,
			CompileTime: time.Since(start),
			CreatedAt:   time.Now(),
		}
		// Write the artifact through to the durable store before the entry
		// becomes visible: once a client holds the program id, a restart
		// must be able to serve it. Persistence failure fails the compile —
		// handing out an id that would not survive is worse than a 422.
		if perr := r.persist(f.entry); perr != nil {
			f.entry, f.err = nil, perr
		}
	} else {
		f.err = fmt.Errorf("serve: compiling %s: %w", id, err)
	}

	r.mu.Lock()
	delete(r.inflight, id)
	if f.err == nil {
		r.insertLocked(f.entry)
	}
	r.mu.Unlock()
	close(f.done)
	return f.entry, false, f.err
}

// insertLocked adds a compiled entry at the front of the LRU, evicting
// beyond capacity. Caller holds r.mu.
func (r *Registry) insertLocked(e *Entry) {
	if old, ok := r.byID[e.ID]; ok {
		// A concurrent path (store load vs. compile) already inserted the
		// id; keep the existing entry object so contexts pinning it and
		// this call's caller agree, and just refresh recency.
		r.lru.MoveToFront(old)
		return
	}
	elem := r.lru.PushFront(e)
	r.byID[e.ID] = elem
	for r.lru.Len() > r.capacity {
		oldest := r.lru.Back()
		if oldest == elem {
			// Never evict the entry this call is about to hand out: a
			// /compile response whose program id immediately 404s on
			// /contexts is worse than briefly exceeding the capacity.
			// (Unreachable while NewRegistry clamps capacity >= 1, but
			// cheap insurance against a future constructor bypass.)
			break
		}
		r.lru.Remove(oldest)
		evicted := oldest.Value.(*Entry)
		delete(r.byID, evicted.ID)
		r.evictions++
		// The compiled program's constant cache dies with the registry entry:
		// its cached constants go back to the plan-cache budget now, not when
		// the last context pinning the program lets go of it. Such a context
		// keeps working, encoding constants per run.
		compile.ReleasePlan(evicted.Result)
	}
}

// persist writes a compiled program's source artifact to the store.
func (r *Registry) persist(e *Entry) error {
	if r.store == nil {
		return nil
	}
	rec, err := json.Marshal(programRecord{
		Source:    json.RawMessage(e.Source),
		Options:   e.Options,
		CreatedAt: e.CreatedAt,
	})
	if err != nil {
		return fmt.Errorf("serve: encoding program record %s: %w", e.ID, err)
	}
	if err := r.store.Put(kindProgram, e.ID, rec); err != nil {
		return fmt.Errorf("serve: persisting program %s: %w", e.ID, err)
	}
	return nil
}

// errRetiredOptions refuses a stored program whose compile options the
// /compile wire cannot express: a rescale or modulus-switch strategy other
// than the EVA pipeline's, or a waterline override, recorded by an older
// server. Such a program could not be re-submitted to a peer under its id
// (OptionsJSON drops those fields), so it reads as unknown; recompile it.
var errRetiredOptions = errors.New("stored program uses compile options the wire no longer expresses")

// decodeProgramRecord decodes one stored program record, refusing retired
// options.
func decodeProgramRecord(id string, data []byte) (programRecord, error) {
	var rec programRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("serve: decoding program record %s: %w", id, err)
	}
	if o := rec.Options; o.Rescale != rewrite.RescaleWaterline || o.ModSwitch != rewrite.ModSwitchEager || o.WaterlineLog != 0 {
		return rec, fmt.Errorf("serve: program %s: %w (rescale strategy %d, mod-switch strategy %d, waterline %g)",
			id, errRetiredOptions, o.Rescale, o.ModSwitch, o.WaterlineLog)
	}
	return rec, nil
}

// loadFromStore rebuilds a registry entry from the persisted artifact:
// deserialize the canonical source and recompile it with the stored
// options. Compilation is deterministic, so the rebuilt entry matches the
// one the id was originally handed out for.
func (r *Registry) loadFromStore(id string) (*Entry, error) {
	data, err := r.store.Get(kindProgram, id)
	if err != nil {
		return nil, err
	}
	rec, err := decodeProgramRecord(id, data)
	if err != nil {
		return nil, err
	}
	prog, err := core.DeserializeBytes(rec.Source)
	if err != nil {
		return nil, fmt.Errorf("serve: stored program %s: %w", id, err)
	}
	start := time.Now()
	res, err := compile.Compile(prog, rec.Options)
	if err != nil {
		return nil, fmt.Errorf("serve: recompiling stored program %s: %w", id, err)
	}
	created := rec.CreatedAt
	if created.IsZero() {
		created = time.Now()
	}
	return &Entry{
		ID:          id,
		Source:      []byte(rec.Source),
		Options:     rec.Options,
		Result:      res,
		CompileTime: time.Since(start),
		CreatedAt:   created,
	}, nil
}

// Get returns a cached entry by id, refreshing its LRU position and
// counting the lookup against the entry's hit counter. When the id misses
// the cache but its artifact is in the durable store, the entry is rebuilt
// (recompiled) from the store — concurrent lookups of the same id join the
// one in-flight rebuild.
func (r *Registry) Get(id string) (*Entry, bool) {
	r.mu.Lock()
	if elem, ok := r.byID[id]; ok {
		r.lru.MoveToFront(elem)
		r.mu.Unlock()
		e := elem.Value.(*Entry)
		e.recordHit()
		return e, true
	}
	if r.store == nil {
		r.mu.Unlock()
		return nil, false
	}
	if f, ok := r.inflight[id]; ok {
		r.joins++
		r.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, false
		}
		f.entry.recordHit()
		return f.entry, true
	}
	f := &flight{done: make(chan struct{})}
	r.inflight[id] = f
	r.mu.Unlock()

	entry, err := r.loadFromStore(id)
	r.mu.Lock()
	delete(r.inflight, id)
	if err == nil {
		f.entry = entry
		r.storeLoads++
		r.insertLocked(entry)
	} else {
		f.err = err
		if errors.Is(err, store.ErrNotFound) {
			r.storeMisses++
		}
	}
	r.mu.Unlock()
	close(f.done)
	if f.err != nil {
		if !errors.Is(f.err, store.ErrNotFound) {
			r.log.Warn("stored program not rebuilt; it reads as unknown",
				slog.String("program_id", id), slog.String("error", f.err.Error()))
		}
		return nil, false
	}
	f.entry.recordHit()
	return f.entry, true
}

// Source returns the canonical serialized source and compile options for a
// program id, consulting the cache first and falling back to the stored
// artifact without forcing a recompilation. The cluster tier uses it to
// ship programs between nodes.
func (r *Registry) Source(id string) (json.RawMessage, compile.Options, bool) {
	r.mu.Lock()
	if elem, ok := r.byID[id]; ok {
		e := elem.Value.(*Entry)
		r.mu.Unlock()
		return json.RawMessage(e.Source), e.Options, true
	}
	r.mu.Unlock()
	if r.store == nil {
		return nil, compile.Options{}, false
	}
	data, err := r.store.Get(kindProgram, id)
	if err != nil {
		return nil, compile.Options{}, false
	}
	rec, err := decodeProgramRecord(id, data)
	if err != nil {
		return nil, compile.Options{}, false
	}
	return rec.Source, rec.Options, true
}

// List returns every cached entry, most recently used first.
func (r *Registry) List() []*Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Entry, 0, r.lru.Len())
	for elem := r.lru.Front(); elem != nil; elem = elem.Next() {
		out = append(out, elem.Value.(*Entry))
	}
	return out
}

// CacheStats is a snapshot of the registry's cache counters.
type CacheStats struct {
	Size      int    `json:"size"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Joins     uint64 `json:"joins"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// StoreLoads counts cache misses answered by recompiling a stored
	// artifact; StoreMisses counts ids absent from both cache and store.
	StoreLoads  uint64 `json:"store_loads,omitempty"`
	StoreMisses uint64 `json:"store_misses,omitempty"`
}

// HitRate returns the fraction of lookups served without a fresh compilation.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Joins + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Joins) / float64(total)
}

// Stats returns a snapshot of the cache counters.
func (r *Registry) Stats() CacheStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return CacheStats{
		Size:        r.lru.Len(),
		Capacity:    r.capacity,
		Hits:        r.hits,
		Joins:       r.joins,
		Misses:      r.misses,
		Evictions:   r.evictions,
		StoreLoads:  r.storeLoads,
		StoreMisses: r.storeMisses,
	}
}
