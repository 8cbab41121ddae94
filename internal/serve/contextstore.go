package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"eva/internal/ckks"
	"eva/internal/execute"
	"eva/internal/jobs"
	"eva/internal/obs"
	"eva/internal/store"
)

// Artifact-store kinds for installed contexts and finished job results.
const (
	kindContext = "context"
	kindResult  = "result"
)

// ContextBundle is the portable, durable form of an installed execution
// context: the program it belongs to plus every key needed to rebuild the
// CKKS runtime objects, each in the ckks binary wire format. Client-keygen
// bundles carry the uploaded evaluation keys exactly as they arrived, so
// they hold public material only, preserving the paper's threat model. For
// contexts created by server-side keygen (demo mode) the bundle also
// carries the secret key — the server already held it — so a restored or
// replicated demo context can keep encrypting plaintext values and
// decrypting outputs.
//
// The bundle doubles as the context's artifact-store record and as the wire
// body of the cluster replication surface (GET /contexts/{id}/bundle and
// the "bundle" clause of POST /contexts).
type ContextBundle struct {
	ProgramID string    `json:"program_id"`
	Demo      bool      `json:"demo,omitempty"`
	CreatedAt time.Time `json:"created_at,omitempty"`
	EvalKeysJSON
	Secret []byte `json:"secret,omitempty"` // demo contexts only
}

// errMalformedKey marks key bytes that do not decode at all, as opposed to
// keys that decode but do not fit the program.
var errMalformedKey = errors.New("malformed key")

// decode turns the uploaded keys into their ckks forms; a key that is
// absent stays nil.
func (k *EvalKeysJSON) decode() (*ckks.RelinearizationKey, *ckks.RotationKeySet, error) {
	var rlk *ckks.RelinearizationKey
	var rtk *ckks.RotationKeySet
	if len(k.Relin) > 0 {
		rlk = &ckks.RelinearizationKey{}
		if err := rlk.UnmarshalBinary(k.Relin); err != nil {
			return nil, nil, fmt.Errorf("%w: relin key: %w", errMalformedKey, err)
		}
	}
	if len(k.RotationSet) > 0 {
		rtk = &ckks.RotationKeySet{}
		if err := rtk.UnmarshalBinary(k.RotationSet); err != nil {
			return nil, nil, fmt.Errorf("%w: rotation set: %w", errMalformedKey, err)
		}
	}
	return rlk, rtk, nil
}

// buildBundle assembles the portable form of a context whose keys the
// server generated itself.
func buildBundle(programID string, keys *execute.KeyMaterial, createdAt time.Time) (*ContextBundle, error) {
	b := &ContextBundle{ProgramID: programID, Demo: true, CreatedAt: createdAt}
	var err error
	if keys.Relin != nil {
		if b.Relin, err = keys.Relin.MarshalBinary(); err != nil {
			return nil, fmt.Errorf("serve: bundling relinearization key: %w", err)
		}
	}
	if keys.Rot != nil {
		if b.RotationSet, err = keys.Rot.MarshalBinary(); err != nil {
			return nil, fmt.Errorf("serve: bundling rotation keys: %w", err)
		}
	}
	if b.Secret, err = keys.Secret.MarshalBinary(); err != nil {
		return nil, fmt.Errorf("serve: bundling secret key: %w", err)
	}
	return b, nil
}

// restoreContext builds a live execution context for entry's program from
// uploaded keys: a client's evaluation keys, a peer's bundle or the durable
// store's record. The keys are validated the same way on every path.
func (s *Server) restoreContext(id string, entry *Entry, b *ContextBundle) (*contextEntry, error) {
	rlk, rtk, err := b.decode()
	if err != nil {
		return nil, fmt.Errorf("serve: context %s: %w", id, err)
	}
	ctx, err := execute.NewEvaluationContext(entry.Result, rlk, rtk)
	if err != nil {
		return nil, fmt.Errorf("serve: context %s: %w", id, err)
	}
	ce := &contextEntry{ID: id, Entry: entry, Ctx: ctx, CreatedAt: b.CreatedAt}
	if ce.CreatedAt.IsZero() {
		ce.CreatedAt = time.Now()
	}
	if b.Demo {
		if len(b.Secret) == 0 {
			return nil, fmt.Errorf("serve: context %s: demo bundle is missing key material", id)
		}
		sk := &ckks.SecretKey{}
		if err := sk.UnmarshalBinary(b.Secret); err != nil {
			return nil, fmt.Errorf("serve: context %s: %w: secret key: %w", id, errMalformedKey, err)
		}
		ce.Keys = &execute.KeyMaterial{Secret: sk, Relin: rlk, Rot: rtk}
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
// LRU eviction. A record that exists but cannot be read or restored is
// logged; the context then reads as unknown.
func (s *Server) loadContext(id string) (*contextEntry, bool) {
	if s.cfg.Store == nil {
		return nil, false
	}
	data, err := s.cfg.Store.Get(kindContext, id)
	if errors.Is(err, store.ErrNotFound) {
		return nil, false
	}
	var ce *contextEntry
	if err == nil {
		var b ContextBundle
		if err = json.Unmarshal(data, &b); err == nil {
			entry, ok := s.registry.Get(b.ProgramID)
			if !ok {
				err = fmt.Errorf("unknown program %q", b.ProgramID)
			} else {
				ce, err = s.restoreContext(id, entry, &b)
			}
		}
	}
	if err != nil {
		s.log.Warn("stored context not restored; it reads as unknown",
			slog.String("context_id", id),
			slog.String("error", err.Error()))
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

// sweepResults deletes the stored results older than retention. A failed
// listing or delete is logged at warn; the next sweep tries again.
func (s *Server) sweepResults(retention time.Duration) {
	ids, err := s.cfg.Store.List(kindResult)
	if err != nil {
		s.log.Warn("stored job results not swept: listing them failed", slog.String("error", err.Error()))
		return
	}
	cutoff := time.Now().Add(-retention)
	for _, id := range ids {
		s.resultMu.Lock()
		data, err := s.cfg.Store.Get(kindResult, id)
		if err == nil {
			var rec resultRecord
			if json.Unmarshal(data, &rec) != nil || rec.FinishedAt.Before(cutoff) {
				if err := s.cfg.Store.Delete(kindResult, id); err != nil {
					s.log.Warn("expired job result not deleted from the store; the next sweep retries it",
						slog.String(obs.LogJobID, id),
						slog.String("error", err.Error()))
				}
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
