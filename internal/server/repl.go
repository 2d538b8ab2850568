package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"verlog/internal/replication"
)

// Replication endpoints. These are thin HTTP shims over the replication
// node — parameter parsing and the error envelope live here, the
// semantics (acks, retention, epoch fencing, promotion) in
// internal/replication.

// maxStreamWait caps the long-poll window a follower may request, so a
// stream request always returns within the server's write timeout.
const maxStreamWait = 55 * time.Second

// rejectIfReadOnly answers a mutating request on a replication follower
// with the 403 read_only envelope (carrying the primary's URL) and
// reports that the request is done. Mutations on a follower would fork
// its journal from the primary's — the one thing replication must never
// allow.
func (s *Server) rejectIfReadOnly(w http.ResponseWriter, r *http.Request) bool {
	if s.repl == nil {
		return false
	}
	ro, primary := s.repl.ReadOnly()
	if !ro {
		return false
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusForbidden)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(errorEnvelope{Error: errorBody{
		Code:      CodeReadOnly,
		Message:   "server: this node is a replication follower; send writes to the primary",
		Primary:   primary,
		RequestID: RequestID(r.Context()),
	}})
	return true
}

// handleReplStream serves GET /v1/repl/stream?after=N&wait=D&id=F: a
// long-poll returning CRC-framed journal records with seq > after, the
// same bytes the primary's journal holds. The response carries
// X-Verlog-Epoch and X-Verlog-Seq; a resume point older than the
// snapshot is answered 409 snapshot_required.
func (s *Server) handleReplStream(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	after, err := strconv.Atoi(q.Get("after"))
	if err != nil || after < 0 {
		writeErrorCode(w, r, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("server: bad after %q (want a non-negative integer)", q.Get("after")))
		return
	}
	wait := 25 * time.Second
	if v := q.Get("wait"); v != "" {
		wait, err = time.ParseDuration(v)
		if err != nil || wait < 0 {
			writeErrorCode(w, r, http.StatusBadRequest, CodeBadRequest,
				fmt.Errorf("server: bad wait %q (want a duration like 25s)", v))
			return
		}
		if wait > maxStreamWait {
			wait = maxStreamWait
		}
	}
	// The follower's own epoch; absent (0) is treated as maximally behind,
	// so the fence computation stays conservative.
	var epoch uint64
	if v := q.Get("epoch"); v != "" {
		epoch, err = strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeErrorCode(w, r, http.StatusBadRequest, CodeBadRequest,
				fmt.Errorf("server: bad epoch %q (want a non-negative integer)", v))
			return
		}
	}
	batch, err := s.repl.Stream(r.Context(), q.Get("id"), after, epoch, wait)
	if err != nil {
		if errors.Is(err, replication.ErrSnapshotRequired) {
			writeErrorCode(w, r, http.StatusConflict, CodeSnapshotRequired, err)
			return
		}
		writeError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-verlog-journal")
	w.Header().Set(replication.HeaderEpoch, strconv.FormatUint(batch.Epoch, 10))
	w.Header().Set(replication.HeaderSeq, strconv.Itoa(batch.HeadSeq))
	if batch.HasFence {
		w.Header().Set(replication.HeaderFenceSeq, strconv.Itoa(batch.FenceSeq))
	}
	w.WriteHeader(http.StatusOK)
	w.Write(batch.Frames)
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// handleReplSnapshot serves GET /v1/repl/snapshot: the published head as
// a framed snapshot (base, seq and the constraint set in force) for
// follower bootstrap. The stamped seq is the resume point the follower
// streams from afterwards.
func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	snap := s.def.Repo().Export()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(replication.HeaderEpoch, strconv.FormatUint(s.def.Repo().Epoch(), 10))
	w.Header().Set(replication.HeaderSeq, strconv.Itoa(snap.Seq))
	w.WriteHeader(http.StatusOK)
	if err := snap.Save(w); err != nil {
		// Headers are out; all we can do is log via the middleware status.
		s.logger.Error("snapshot transfer failed", "error", err.Error())
	}
}

// handleReplStatus serves GET /v1/repl/status: role, epoch, head seq and
// staleness (follower) or the follower ack table (primary).
func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.repl.Status())
}

// promoteResponse reports a completed promotion.
type promoteResponse struct {
	Role  string `json:"role"`
	Epoch uint64 `json:"epoch"`
	Seq   int    `json:"head_seq"`
}

// handleReplPromote serves POST /v1/repl/promote: stop following, advance
// the epoch, accept writes. Idempotent — promoting a primary reports its
// current epoch. An optional ?epoch=N names the target epoch, for
// operators that must issue more than one promotion per failover and need
// the epochs to stay distinct (epochs fence only while unique).
func (s *Server) handleReplPromote(w http.ResponseWriter, r *http.Request) {
	var target uint64
	if v := r.URL.Query().Get("epoch"); v != "" {
		var err error
		target, err = strconv.ParseUint(v, 10, 64)
		if err != nil || target == 0 {
			writeErrorCode(w, r, http.StatusBadRequest, CodeBadRequest,
				fmt.Errorf("server: bad epoch %q (want a positive integer)", v))
			return
		}
	}
	epoch, err := s.repl.Promote(target)
	if err != nil {
		if errors.Is(err, replication.ErrBadPromoteTarget) {
			writeErrorCode(w, r, http.StatusConflict, CodeConflict, err)
			return
		}
		writeError(w, r, err)
		return
	}
	st := s.repl.Status()
	writeJSON(w, promoteResponse{Role: st.Role, Epoch: epoch, Seq: st.HeadSeq})
}
