package handle

import (
	"errors"
	"strings"
	"testing"
	"time"

	"eva/internal/store"
)

func newTestRegistry(t *testing.T, cfg Config) *Registry {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store = store.NewMemory()
	}
	return NewRegistry(cfg)
}

func TestIDDeterministicAndContextBound(t *testing.T) {
	data := []byte("ciphertext-bytes")
	if ID("ctx1", data) != ID("ctx1", data) {
		t.Fatal("id is not deterministic")
	}
	if ID("ctx1", data) == ID("ctx2", data) {
		t.Fatal("id ignores the context id")
	}
	if ID("ctx1", data) == ID("ctx1", []byte("other")) {
		t.Fatal("id ignores the ciphertext bytes")
	}
	// The id must be a well-formed store name (hex SHA-256).
	if id := ID("ctx1", data); len(id) != 64 {
		t.Fatalf("id %q is not a sha-256 hex digest", id)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	r := newTestRegistry(t, Config{})
	meta, err := r.Put(Meta{ContextID: "c1", ParamsID: "p1", Level: 2, LogScale: 30, Width: 8}, []byte("ct"))
	if err != nil {
		t.Fatal(err)
	}
	if meta.ID == "" || meta.Bytes != 2 || meta.CreatedAt.IsZero() {
		t.Fatalf("put did not fill derived fields: %+v", meta)
	}
	got, data, err := r.Get(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "ct" || got.Level != 2 || got.Width != 8 || got.ParamsID != "p1" {
		t.Fatalf("round trip mismatch: %+v %q", got, data)
	}
	if _, _, err := r.Get("deadbeef"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown id: %v, want ErrNotFound", err)
	}
}

func TestPutDeduplicates(t *testing.T) {
	r := newTestRegistry(t, Config{})
	first, err := r.Put(Meta{ContextID: "c1", Level: 3}, []byte("same"))
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Put(Meta{ContextID: "c1", Level: 3}, []byte("same"))
	if err != nil {
		t.Fatal(err)
	}
	if first.ID != second.ID {
		t.Fatalf("ids differ: %s vs %s", first.ID, second.ID)
	}
	st := r.Stats()
	if st.Entries != 1 || st.Puts != 1 || st.Dedups != 1 {
		t.Fatalf("stats = %+v, want 1 entry, 1 put, 1 dedup", st)
	}
}

func TestQuota(t *testing.T) {
	r := newTestRegistry(t, Config{quotaBytes: 1024})
	if _, err := r.Put(Meta{ContextID: "c"}, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put(Meta{ContextID: "c"}, make([]byte, 4096)); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("oversized put: %v, want ErrQuotaExceeded", err)
	}
	if st := r.Stats(); st.QuotaRejected != 1 {
		t.Fatalf("quota_rejected = %d, want 1", st.QuotaRejected)
	}
}

func TestDeleteAndList(t *testing.T) {
	r := newTestRegistry(t, Config{})
	m1, _ := r.Put(Meta{ContextID: "c"}, []byte("a"))
	m2, _ := r.Put(Meta{ContextID: "c"}, []byte("b"))
	metas, err := r.List()
	if err != nil || len(metas) != 2 {
		t.Fatalf("list = %d metas, err %v; want 2", len(metas), err)
	}
	if err := r.Delete(m1.ID); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(m1.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v, want ErrNotFound", err)
	}
	if _, err := r.Stat(m2.ID); err != nil {
		t.Fatalf("surviving handle lost: %v", err)
	}
}

func TestSweepHonorsRetention(t *testing.T) {
	r := newTestRegistry(t, Config{retention: time.Minute})
	old, _ := r.Put(Meta{ContextID: "c", CreatedAt: time.Now().Add(-time.Hour)}, []byte("old"))
	fresh, _ := r.Put(Meta{ContextID: "c"}, []byte("fresh"))
	if n := r.Sweep(); n != 1 {
		t.Fatalf("swept %d, want 1", n)
	}
	if _, err := r.Stat(old.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired handle survived: %v", err)
	}
	if _, err := r.Stat(fresh.ID); err != nil {
		t.Fatalf("fresh handle swept: %v", err)
	}
}

func TestInstallVerifiesContentAddress(t *testing.T) {
	r := newTestRegistry(t, Config{})
	good := Record{Meta: Meta{ContextID: "c"}, Data: []byte("x")}
	good.Meta.ID = ID("c", good.Data)
	if _, err := r.Install(&good); err != nil {
		t.Fatal(err)
	}
	bad := Record{Meta: Meta{ID: "0000", ContextID: "c"}, Data: []byte("tampered")}
	if _, err := r.Install(&bad); err == nil || !strings.Contains(err.Error(), "content verification") {
		t.Fatalf("tampered record accepted: %v", err)
	}
}
