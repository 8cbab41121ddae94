package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"

	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/handle"
)

// The handle surface: PUT /handles stores a client ciphertext under its
// content address, GET /handles lists, GET /handles/{id} fetches the record
// (metadata + ciphertext bytes; also the cluster's node-to-node fetch path),
// DELETE /handles/{id} removes it. Stored handles feed back into execution as
// {"handles": {"input": "<id>"}} batch references on every entry point, and
// jobs with "output": "handle" persist their outputs as new handles.

// Output modes of an execution: "" returns payloads (decrypting in demo
// mode), outputHandle persists encrypted outputs as handles and returns ids,
// outputValues forces decryption (pipelines' final stage on demo contexts).
const (
	outputHandle = "handle"
	outputValues = "values"
)

func validOutputMode(mode string) error {
	switch mode {
	case "", outputHandle, outputValues:
		return nil
	}
	return fmt.Errorf("unknown output mode %q (want \"handle\" or \"values\")", mode)
}

// resolvedHandle is a handle pulled into memory for execution: its metadata
// plus the deserialized ciphertext. The executor treats input ciphertexts as
// read-only, so one resolved handle is safely shared across inputs, batches,
// and pipeline stages without copying.
type resolvedHandle struct {
	meta handle.Meta
	ct   *ckks.Ciphertext
}

// handleCache shares resolved handles across the batches (and pipeline
// stages) of one request, so a handle referenced many times is fetched and
// deserialized once. Safe for the concurrent batch fan-out.
type handleCache struct {
	mu sync.Mutex
	m  map[string]*resolvedHandle
}

func newHandleCache() *handleCache {
	return &handleCache{m: map[string]*resolvedHandle{}}
}

// resolveHandle loads a handle for execution: from the request cache, the
// local registry, or — when the cluster tier installed a fetcher — a peer
// node (remote records are re-verified against their content address and
// cached locally, best effort).
func (s *Server) resolveHandle(stdctx context.Context, id string, cache *handleCache) (*resolvedHandle, error) {
	cache.mu.Lock()
	rh, ok := cache.m[id]
	cache.mu.Unlock()
	if ok {
		return rh, nil
	}
	meta, data, err := s.handles.Get(id)
	if err != nil {
		if !errors.Is(err, handle.ErrNotFound) {
			return nil, err
		}
		if s.handleFetch == nil {
			return nil, fmt.Errorf("%w: %s", handle.ErrNotFound, id)
		}
		rec, ferr := s.handleFetch(stdctx, id)
		if ferr != nil || rec == nil {
			return nil, fmt.Errorf("%w: %s (remote fetch: %v)", handle.ErrNotFound, id, ferr)
		}
		// Cache the fetched record locally; a quota rejection degrades to
		// using the record once without keeping it.
		if m, ierr := s.handles.Install(rec); ierr == nil {
			meta, data = m, rec.Data
		} else if got := handle.ID(rec.Meta.ContextID, rec.Data); got != rec.Meta.ID {
			return nil, fmt.Errorf("handle %s: peer record fails content verification", id)
		} else {
			meta, data = rec.Meta, rec.Data
		}
	}
	ct := &ckks.Ciphertext{}
	if err := ct.UnmarshalBinary(data); err != nil {
		return nil, fmt.Errorf("handle %s: decoding ciphertext: %w", id, err)
	}
	rh = &resolvedHandle{meta: meta, ct: ct}
	cache.mu.Lock()
	cache.m[id] = rh
	cache.mu.Unlock()
	return rh, nil
}

// storeHandle stores ct, serialized as data (nil: serialize it here), as a
// content-addressed handle under the context ce.
func (s *Server) storeHandle(ce *contextEntry, ct *ckks.Ciphertext, data []byte) (handle.Meta, error) {
	if data == nil {
		var err error
		if data, err = ct.MarshalBinary(); err != nil {
			return handle.Meta{}, err
		}
	}
	return s.handles.Put(handle.Meta{
		ContextID: ce.ID,
		ParamsID:  ce.Ctx.Params.Fingerprint(),
		Level:     ct.Level,
		LogScale:  math.Log2(ct.Scale),
		Width:     ce.Entry.Result.VecSize,
	}, data)
}

// Incompat is one input contract violation in a 422 body: which stage (the
// batch index on /jobs), the handle or upstream stage output the input's
// ciphertext came from (empty for an inline one), and the mismatch.
type Incompat struct {
	Stage    int    `json:"stage,omitempty"`
	HandleID string `json:"handle,omitempty"`
	compile.Mismatch
}

// --- /handles handlers ---

// HandlePutRequest is the body of PUT /handles: a client-encrypted
// ciphertext (base64 ckks wire format) to store under a context's content
// address.
type HandlePutRequest struct {
	ContextID string `json:"context_id"`
	Cipher    string `json:"cipher"`
}

// HandleRecordJSON is the body of GET /handles/{id}: the metadata plus the
// ciphertext bytes. It is also the cluster's node-to-node transfer format.
type HandleRecordJSON struct {
	Meta   handle.Meta `json:"meta"`
	Cipher []byte      `json:"cipher"`
}

// HandleListResponse is the body of GET /handles.
type HandleListResponse struct {
	Handles []handle.Meta `json:"handles"`
	Stats   handle.Stats  `json:"stats"`
}

func (s *Server) handleHandlePut(w http.ResponseWriter, r *http.Request) {
	var req HandlePutRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	ce, ok := s.lookupContext(req.ContextID)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown context %q; POST /contexts first", req.ContextID)
		return
	}
	if req.Cipher == "" {
		writeError(w, http.StatusBadRequest, "\"cipher\" is required")
		return
	}
	ct, data, err := decodeCiphertext(req.Cipher)
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding ciphertext: %v", err)
		return
	}
	if err := ct.Validate(ce.Ctx.Params); err != nil {
		writeError(w, http.StatusUnprocessableEntity, "ciphertext does not fit context %q: %v", req.ContextID, err)
		return
	}
	meta, err := s.storeHandle(ce, ct, data)
	if err != nil {
		if errors.Is(err, handle.ErrQuotaExceeded) {
			writeError(w, http.StatusInsufficientStorage, "%v", err)
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, meta)
}

func (s *Server) handleHandleList(w http.ResponseWriter, r *http.Request) {
	metas, err := s.handles.List()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, HandleListResponse{Handles: metas, Stats: s.handles.Stats()})
}

func (s *Server) handleHandleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	meta, data, err := s.handles.Get(id)
	if err != nil {
		if errors.Is(err, handle.ErrNotFound) {
			writeError(w, http.StatusNotFound, "unknown handle %q", id)
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, HandleRecordJSON{Meta: meta, Cipher: data})
}

func (s *Server) handleHandleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.handles.Delete(id); err != nil {
		if errors.Is(err, handle.ErrNotFound) {
			writeError(w, http.StatusNotFound, "unknown handle %q", id)
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}
