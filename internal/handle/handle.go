// Package handle implements content-addressed ciphertext handles: durable,
// immutable references to encrypted values stored server-side, so the output
// of one encrypted program can feed the input of the next without a client
// round-trip (the stateful dataflow layer under POST /pipelines).
//
// A handle's id is the SHA-256 of the serialized ciphertext bound to the
// context id it was stored under, so identical ciphertexts deduplicate and a
// handle can never silently refer to different bytes on different nodes.
// Alongside the ciphertext the registry stores what the ciphertext is — its
// context, parameter fingerprint, level, log2 scale and slot width — and
// nothing about what it may feed: whether it fits a program input is the
// consuming program's decision (compile.Result.Bind).
package handle

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"eva/internal/store"
)

// Kind is the artifact-store kind ciphertext handles are stored under.
const Kind = "ct"

// Meta is the metadata stored with (and returned for) every handle.
type Meta struct {
	ID        string `json:"id"`
	ContextID string `json:"context_id"`
	// ParamsID fingerprints the encryption parameters the ciphertext lives
	// under (ckks.Parameters.Fingerprint).
	ParamsID string `json:"params_id,omitempty"`
	// Level is the ciphertext's remaining position in the modulus chain.
	Level int `json:"level"`
	// LogScale is the log2 of the ciphertext's actual scale.
	LogScale float64 `json:"log_scale"`
	// Width is the slot width (the producing program's vector size).
	Width int `json:"width"`
	// Bytes is the serialized ciphertext size.
	Bytes     int       `json:"bytes"`
	CreatedAt time.Time `json:"created_at"`
}

// Record is the stored envelope: the metadata plus the ciphertext wire bytes
// (base64 on the wire via encoding/json).
type Record struct {
	Meta Meta   `json:"meta"`
	Data []byte `json:"data"`
}

// ID derives a handle's content address: SHA-256 over the context id and the
// serialized ciphertext.
func ID(contextID string, ct []byte) string {
	h := sha256.New()
	h.Write([]byte(contextID))
	h.Write([]byte{0})
	h.Write(ct)
	return hex.EncodeToString(h.Sum(nil))
}

// ErrNotFound reports an unknown handle id.
var ErrNotFound = errors.New("handle: not found")

// ErrQuotaExceeded reports that storing a handle would exceed the registry's
// byte quota.
var ErrQuotaExceeded = errors.New("handle: quota exceeded")

// A registry's fixed bounds. The package's tests shrink them through
// Config's unexported fields.
const (
	// quotaBytes bounds the resident handle bytes; puts beyond it fail with
	// ErrQuotaExceeded.
	quotaBytes = 4 << 30
	// retention bounds a handle's lifetime: Sweep deletes older handles.
	retention = 24 * time.Hour
)

// Config configures a Registry.
type Config struct {
	// Store is the backing artifact store (required).
	Store store.Store

	// Zero means the constant of the same name.
	quotaBytes int64
	retention  time.Duration
}

// Stats is a snapshot of a registry's contents and traffic.
type Stats struct {
	Entries    int   `json:"entries"`
	Bytes      int64 `json:"bytes"`
	QuotaBytes int64 `json:"quota_bytes"`
	// Puts counts stored handles, Dedups the puts that hit an existing
	// content address.
	Puts   uint64 `json:"puts"`
	Dedups uint64 `json:"dedups"`
	// Resolves counts handle reads (input resolution and fetches), Misses
	// the reads of unknown ids.
	Resolves uint64 `json:"resolves"`
	Misses   uint64 `json:"misses"`
	Deletes  uint64 `json:"deletes"`
	// Swept counts handles reclaimed by retention sweeps, QuotaRejected the
	// puts refused by the byte quota.
	Swept         uint64 `json:"swept"`
	QuotaRejected uint64 `json:"quota_rejected"`
}

// Registry stores ciphertext handles in an artifact store under Kind,
// enforcing a byte quota on writes and a retention window on sweeps.
type Registry struct {
	cfg Config

	puts, dedups, resolves, misses, deletes, swept, rejected atomic.Uint64
}

// NewRegistry builds a handle registry over a store.
func NewRegistry(cfg Config) *Registry {
	cfg.quotaBytes = cmp.Or(cfg.quotaBytes, quotaBytes)
	cfg.retention = cmp.Or(cfg.retention, retention)
	return &Registry{cfg: cfg}
}

func (r *Registry) usedBytes() int64 { return r.cfg.Store.Stats().PerKind[Kind].Bytes }

// Put stores a ciphertext under its content address, filling the meta's ID,
// Bytes, and CreatedAt. Storing bytes that already exist is a cheap dedup
// (content addressing guarantees the stored record is identical).
func (r *Registry) Put(meta Meta, data []byte) (Meta, error) {
	meta.ID = ID(meta.ContextID, data)
	meta.Bytes = len(data)
	if meta.CreatedAt.IsZero() {
		meta.CreatedAt = time.Now().UTC()
	}
	if existing, err := r.Stat(meta.ID); err == nil {
		r.dedups.Add(1)
		return existing, nil
	}
	rec, err := json.Marshal(Record{Meta: meta, Data: data})
	if err != nil {
		return Meta{}, fmt.Errorf("handle: encoding record: %w", err)
	}
	if r.usedBytes()+int64(len(rec)) > r.cfg.quotaBytes {
		r.rejected.Add(1)
		return Meta{}, fmt.Errorf("%w: %d handle bytes resident, quota %d",
			ErrQuotaExceeded, r.usedBytes(), r.cfg.quotaBytes)
	}
	if err := r.cfg.Store.Put(Kind, meta.ID, rec); err != nil {
		return Meta{}, fmt.Errorf("handle: persisting %s: %w", meta.ID, err)
	}
	r.puts.Add(1)
	return meta, nil
}

// Get returns a handle's metadata and ciphertext bytes.
func (r *Registry) Get(id string) (Meta, []byte, error) {
	rec, err := r.load(id)
	if err != nil {
		return Meta{}, nil, err
	}
	r.resolves.Add(1)
	return rec.Meta, rec.Data, nil
}

// Stat returns a handle's metadata without counting a resolve.
func (r *Registry) Stat(id string) (Meta, error) {
	rec, err := r.load(id)
	if err != nil {
		return Meta{}, err
	}
	return rec.Meta, nil
}

func (r *Registry) load(id string) (*Record, error) {
	data, err := r.cfg.Store.Get(Kind, id)
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			r.misses.Add(1)
			return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		return nil, fmt.Errorf("handle: loading %s: %w", id, err)
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("handle: decoding %s: %w", id, err)
	}
	return &rec, nil
}

// Install stores a record fetched from elsewhere (a peer node) verbatim,
// verifying that its bytes really match its content address.
func (r *Registry) Install(rec *Record) (Meta, error) {
	if got := ID(rec.Meta.ContextID, rec.Data); got != rec.Meta.ID {
		return Meta{}, fmt.Errorf("handle: record %s fails content verification (hashes to %s)", rec.Meta.ID, got)
	}
	return r.Put(rec.Meta, rec.Data)
}

// Delete removes a handle. Deleting an unknown id returns ErrNotFound.
func (r *Registry) Delete(id string) error {
	if _, err := r.Stat(id); err != nil {
		return err
	}
	if err := r.cfg.Store.Delete(Kind, id); err != nil {
		return fmt.Errorf("handle: deleting %s: %w", id, err)
	}
	r.deletes.Add(1)
	return nil
}

// List returns every handle's metadata, ordered by the store's listing.
func (r *Registry) List() ([]Meta, error) {
	ids, err := r.cfg.Store.List(Kind)
	if err != nil {
		return nil, fmt.Errorf("handle: listing: %w", err)
	}
	metas := make([]Meta, 0, len(ids))
	for _, id := range ids {
		rec, err := r.load(id)
		if err != nil {
			continue // deleted concurrently
		}
		metas = append(metas, rec.Meta)
	}
	return metas, nil
}

// Sweep deletes handles older than the retention window and returns how many
// it reclaimed.
func (r *Registry) Sweep() int {
	ids, err := r.cfg.Store.List(Kind)
	if err != nil {
		return 0
	}
	cutoff := time.Now().Add(-r.cfg.retention)
	swept := 0
	for _, id := range ids {
		rec, err := r.load(id)
		if err != nil {
			continue
		}
		if rec.Meta.CreatedAt.Before(cutoff) {
			if r.cfg.Store.Delete(Kind, id) == nil {
				swept++
			}
		}
	}
	r.swept.Add(uint64(swept))
	return swept
}

// Stats snapshots the registry counters and the store's handle-kind usage.
func (r *Registry) Stats() Stats {
	ks := r.cfg.Store.Stats().PerKind[Kind]
	return Stats{
		Entries:       ks.Entries,
		Bytes:         ks.Bytes,
		QuotaBytes:    r.cfg.quotaBytes,
		Puts:          r.puts.Load(),
		Dedups:        r.dedups.Load(),
		Resolves:      r.resolves.Load(),
		Misses:        r.misses.Load(),
		Deletes:       r.deletes.Load(),
		Swept:         r.swept.Load(),
		QuotaRejected: r.rejected.Load(),
	}
}
