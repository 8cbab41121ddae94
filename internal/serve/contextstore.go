package serve

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"eva/internal/ckks"
	"eva/internal/execute"
	"eva/internal/jobs"
	"eva/internal/obs"
)

// Artifact-store kinds for installed contexts and finished job results.
const (
	kindContext = "context"
	kindResult  = "result"
)

// ContextBundle is the portable, durable form of an installed execution
// context: the program it belongs to plus every key needed to rebuild the
// CKKS runtime objects, each in the ckks binary wire format (base64). For
// contexts created by server-side keygen (demo mode) the bundle also
// carries the secret and public keys — the server already held them — so a
// restored or replicated demo context can keep encrypting plaintext values
// and decrypting outputs. Client-keygen bundles carry public evaluation
// material only, preserving the paper's threat model.
//
// The bundle doubles as the context's artifact-store record and as the wire
// body of the cluster replication surface (GET /contexts/{id}/bundle and
// the "bundle" clause of POST /contexts).
type ContextBundle struct {
	ProgramID string    `json:"program_id"`
	Demo      bool      `json:"demo,omitempty"`
	CreatedAt time.Time `json:"created_at,omitempty"`

	Relin       string `json:"relin,omitempty"`
	RotationSet string `json:"rotation_set,omitempty"`
	Secret      string `json:"secret,omitempty"` // demo contexts only
	Public      string `json:"public,omitempty"` // demo contexts only
}

func marshalKeyB64(m interface{ MarshalBinary() ([]byte, error) }) (string, error) {
	data, err := m.MarshalBinary()
	if err != nil {
		return "", err
	}
	return base64.StdEncoding.EncodeToString(data), nil
}

// buildBundle assembles the portable form of a context from its in-memory
// keys. rlk and rtk may be nil when the program needs neither; keys is nil
// for client-keygen contexts.
func buildBundle(programID string, keys *execute.KeyMaterial, rlk *ckks.RelinearizationKey, rtk *ckks.RotationKeySet, createdAt time.Time) (*ContextBundle, error) {
	b := &ContextBundle{ProgramID: programID, CreatedAt: createdAt}
	var err error
	if rlk != nil {
		if b.Relin, err = marshalKeyB64(rlk); err != nil {
			return nil, fmt.Errorf("serve: bundling relinearization key: %w", err)
		}
	}
	if rtk != nil {
		if b.RotationSet, err = marshalKeyB64(rtk); err != nil {
			return nil, fmt.Errorf("serve: bundling rotation keys: %w", err)
		}
	}
	if keys != nil {
		b.Demo = true
		if b.Secret, err = marshalKeyB64(keys.Secret); err != nil {
			return nil, fmt.Errorf("serve: bundling secret key: %w", err)
		}
		if b.Public, err = marshalKeyB64(keys.Public); err != nil {
			return nil, fmt.Errorf("serve: bundling public key: %w", err)
		}
	}
	return b, nil
}

func decodeKeyB64(b64, what string, m interface{ UnmarshalBinary([]byte) error }) error {
	data, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return fmt.Errorf("serve: %s: %w", what, err)
	}
	if err := m.UnmarshalBinary(data); err != nil {
		return fmt.Errorf("serve: %s: %w", what, err)
	}
	return nil
}

// restoreContext rebuilds a live execution context from a bundle: the
// program is resolved through the registry (which recompiles from the
// durable store on a cache miss) and the keys are validated the same way a
// fresh client upload would be.
func (s *Server) restoreContext(id string, b *ContextBundle) (*contextEntry, error) {
	entry, ok := s.registry.Get(b.ProgramID)
	if !ok {
		return nil, fmt.Errorf("serve: context %s: unknown program %q", id, b.ProgramID)
	}
	var rlk *ckks.RelinearizationKey
	var rtk *ckks.RotationKeySet
	if b.Relin != "" {
		rlk = &ckks.RelinearizationKey{}
		if err := decodeKeyB64(b.Relin, "relinearization key", rlk); err != nil {
			return nil, err
		}
	}
	if b.RotationSet != "" {
		rtk = &ckks.RotationKeySet{}
		if err := decodeKeyB64(b.RotationSet, "rotation keys", rtk); err != nil {
			return nil, err
		}
	}
	ctx, err := execute.NewEvaluationContext(entry.Result, rlk, rtk)
	if err != nil {
		return nil, fmt.Errorf("serve: restoring context %s: %w", id, err)
	}
	ce := &contextEntry{ID: id, Entry: entry, Ctx: ctx, CreatedAt: b.CreatedAt}
	if ce.CreatedAt.IsZero() {
		ce.CreatedAt = time.Now()
	}
	if b.Demo {
		if b.Secret == "" || b.Public == "" {
			return nil, fmt.Errorf("serve: context %s: demo bundle is missing key material", id)
		}
		sk := &ckks.SecretKey{}
		if err := decodeKeyB64(b.Secret, "secret key", sk); err != nil {
			return nil, err
		}
		pk := &ckks.PublicKey{}
		if err := decodeKeyB64(b.Public, "public key", pk); err != nil {
			return nil, err
		}
		ce.Keys = &execute.KeyMaterial{Secret: sk, Public: pk, Relin: rlk, Rot: rtk}
	}
	if s.cfg.AllowContextTransfer {
		ce.Bundle = b
	}
	return ce, nil
}

// persistContext writes a context's bundle to the durable store.
func (s *Server) persistContext(id string, b *ContextBundle) error {
	if s.cfg.Store == nil {
		return nil
	}
	data, err := json.Marshal(b)
	if err != nil {
		return fmt.Errorf("serve: encoding context %s: %w", id, err)
	}
	if err := s.cfg.Store.Put(kindContext, id, data); err != nil {
		return fmt.Errorf("serve: persisting context %s: %w", id, err)
	}
	return nil
}

// loadContext restores a context from the durable store and installs it in
// the LRU table, so execution against a context id survives restarts and
// LRU eviction.
func (s *Server) loadContext(id string) (*contextEntry, bool) {
	if s.cfg.Store == nil {
		return nil, false
	}
	data, err := s.cfg.Store.Get(kindContext, id)
	if err != nil {
		return nil, false
	}
	var b ContextBundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, false
	}
	ce, err := s.restoreContext(id, &b)
	if err != nil {
		return nil, false
	}
	return s.installContext(ce), true
}

// installContext inserts a context at the front of the LRU table, evicting
// beyond maxContexts. If the id is already installed (a concurrent load or
// a replayed create), the existing entry wins so everyone agrees on one
// object.
func (s *Server) installContext(ce *contextEntry) *contextEntry {
	s.ctxMu.Lock()
	defer s.ctxMu.Unlock()
	if elem, ok := s.contexts[ce.ID]; ok {
		s.ctxLRU.MoveToFront(elem)
		return elem.Value.(*contextEntry)
	}
	s.contexts[ce.ID] = s.ctxLRU.PushFront(ce)
	for s.ctxLRU.Len() > s.cfg.maxContexts {
		oldest := s.ctxLRU.Back()
		s.ctxLRU.Remove(oldest)
		delete(s.contexts, oldest.Value.(*contextEntry).ID)
	}
	return ce
}

// lookupContext returns an installed context, falling back to the durable
// store on a miss.
func (s *Server) lookupContext(id string) (*contextEntry, bool) {
	s.ctxMu.Lock()
	if elem, ok := s.contexts[id]; ok {
		s.ctxLRU.MoveToFront(elem)
		ce := elem.Value.(*contextEntry)
		s.ctxMu.Unlock()
		return ce, true
	}
	s.ctxMu.Unlock()
	return s.loadContext(id)
}

// handleContextBundle serves GET /contexts/{id}/bundle: the context's
// portable key bundle, for cluster replication. Gated by
// Config.AllowContextTransfer because demo bundles include the secret key.
func (s *Server) handleContextBundle(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.AllowContextTransfer {
		writeError(w, http.StatusForbidden, "context transfer is disabled on this server")
		return
	}
	id := r.PathValue("id")
	ce, ok := s.lookupContext(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown context %q", id)
		return
	}
	if ce.Bundle == nil {
		// Installed before transfer was enabled, or rebuilt without a
		// bundle; reconstruct from the store if possible.
		if s.cfg.Store != nil {
			if data, err := s.cfg.Store.Get(kindContext, id); err == nil {
				var b ContextBundle
				if json.Unmarshal(data, &b) == nil {
					writeJSON(w, http.StatusOK, &b)
					return
				}
			}
		}
		writeError(w, http.StatusNotFound, "context %q has no exportable bundle", id)
		return
	}
	writeJSON(w, http.StatusOK, ce.Bundle)
}

// resultRecord is the stored form of a finished job's results.
type resultRecord struct {
	JobID      string        `json:"job_id"`
	Status     string        `json:"status"`
	Results    []BatchResult `json:"results"`
	FinishedAt time.Time     `json:"finished_at"`
}

// persistJobResult is the jobs.Manager OnFinish hook: completed results are
// written to the durable store before the job turns terminal, so a client
// that observes "done" can fetch the result even across a restart or after
// the in-memory TTL eviction. A failed write is logged at warn and leaves
// the result in memory only; the job still succeeds.
func (s *Server) persistJobResult(snap jobs.Snapshot, result any, traceID string) {
	if s.cfg.Store == nil || snap.Status != jobs.StatusDone {
		return
	}
	results, ok := result.([]BatchResult)
	if !ok {
		return
	}
	data, err := json.Marshal(resultRecord{
		JobID:      snap.ID,
		Status:     string(snap.Status),
		Results:    results,
		FinishedAt: snap.Finished,
	})
	if err == nil {
		err = s.cfg.Store.Put(kindResult, snap.ID, data)
	}
	if err != nil {
		s.log.Warn("job result not persisted; it survives only in memory",
			slog.String(obs.LogJobID, snap.ID),
			slog.String(obs.LogTraceID, traceID),
			slog.String("error", err.Error()))
	}
}

// fetchStoredResult serves the fetch-once contract from the durable store.
// The get-and-delete pair runs under resultMu so two concurrent fetches of
// a restart-survived result cannot both win. A result is handed out only
// once its record is deleted: when the delete fails, the record stays for a
// later fetch and the error is returned (and logged) instead of the result.
// No record and no error means there is nothing stored.
func (s *Server) fetchStoredResult(id string) (*resultRecord, error) {
	if s.cfg.Store == nil {
		return nil, nil
	}
	s.resultMu.Lock()
	defer s.resultMu.Unlock()
	data, err := s.cfg.Store.Get(kindResult, id)
	if err != nil {
		return nil, nil
	}
	var rec resultRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, nil
	}
	if err := s.cfg.Store.Delete(kindResult, id); err != nil {
		s.log.Warn("stored job result not served: deleting it failed, so it stays stored for a retry",
			slog.String(obs.LogJobID, id),
			slog.String("error", err.Error()))
		return nil, err
	}
	return &rec, nil
}

// resultJanitor sweeps persisted artifacts whose lifetime exceeded their
// retention window — unfetched job results and stored ciphertext handles —
// so abandoned jobs and forgotten handles cannot grow the store without
// bound. The in-memory TTL still governs the job table; this only reclaims
// the durable copies. The tick is an eighth of the result retention (which
// is never longer than the handle registry's), clamped to [1s, 5min].
func (s *Server) resultJanitor() {
	defer s.janitorWG.Done()
	ticker := time.NewTicker(min(max(s.cfg.resultRetention/8, time.Second), 5*time.Minute))
	defer ticker.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-ticker.C:
			if s.cfg.Store != nil {
				s.sweepResults(s.cfg.resultRetention)
			}
			s.handles.Sweep()
		}
	}
}

func (s *Server) sweepResults(retention time.Duration) {
	ids, err := s.cfg.Store.List(kindResult)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-retention)
	for _, id := range ids {
		s.resultMu.Lock()
		data, err := s.cfg.Store.Get(kindResult, id)
		if err == nil {
			var rec resultRecord
			if json.Unmarshal(data, &rec) != nil || rec.FinishedAt.Before(cutoff) {
				s.cfg.Store.Delete(kindResult, id)
			}
		}
		s.resultMu.Unlock()
	}
}

// dropStoredResult removes a persisted result (after an in-memory fetch
// already delivered it, preserving fetch-once).
func (s *Server) dropStoredResult(id string) {
	if s.cfg.Store == nil {
		return
	}
	if err := s.cfg.Store.Delete(kindResult, id); err != nil {
		s.log.Warn("delivered job result not deleted from the store; a restart could deliver it again",
			slog.String(obs.LogJobID, id),
			slog.String("error", err.Error()))
	}
}

// storedResultExists reports whether an unfetched persisted result exists
// (without consuming it), for status queries about restart-survived jobs.
func (s *Server) storedResultExists(id string) (resultRecord, bool) {
	if s.cfg.Store == nil {
		return resultRecord{}, false
	}
	data, err := s.cfg.Store.Get(kindResult, id)
	if err != nil {
		return resultRecord{}, false
	}
	var rec resultRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return resultRecord{}, false
	}
	return rec, true
}
