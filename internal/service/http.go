package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/jobs"
)

// API surface (all JSON):
//
//	POST /v1/jobs       submit a Request; 202 + Job when queued, 200 + Job
//	                    when coalesced onto an identical in-flight job,
//	                    400 on a bad request, 429 "shed", 503 "busy" or
//	                    "draining" (error bodies: {"error", "code"})
//	GET  /v1/jobs       list job summaries in submission order
//	GET  /v1/jobs/{id}  one job, including its Result when done; 410 once
//	                    the record has been evicted from history
//	POST /v1/sweeps     scatter a sweep Request into prioritized
//	                    per-architecture legs; async by default — 202 +
//	                    SweepStatus handle, poll GET /v1/sweeps/{id} for
//	                    incremental per-leg results. ?wait=1 blocks and
//	                    answers 200 + SweepResult (the pre-async contract).
//	GET  /v1/sweeps     list sweep-handle summaries
//	GET  /v1/sweeps/{id} one sweep handle, legs filling in as they
//	                    complete; 410 once the handle has been evicted
//	GET  /v1/stats      Stats: job counters, dedup rate, per-priority queue
//	                    occupancy gauges, sweep-handle gauges, cache
//	                    statistics
//	POST /v1/snapshot   persist the cache snapshot now; 200 + SnapshotInfo
//	GET  /v1/snapshot   stream the versioned cache snapshot (gob) — the pull
//	                    a cold shard seeds its caches from on join
//	PUT  /v1/snapshot   restore the caches from a streamed snapshot — the
//	                    push a draining shard hands its slice over with;
//	                    200 + SnapshotInfo, 409 when the snapshot is stale
//	POST /v1/drain      flip into draining (reject new jobs, health goes
//	                    503) ahead of snapshot handoff and removal
//	GET  /v1/healthz    liveness probe; 503 while draining
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.sweeps.Register(mux)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/trace", s.handleTrace)
	mux.HandleFunc("POST /v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /v1/snapshot", s.handleSnapshotPull)
	mux.HandleFunc("PUT /v1/snapshot", s.handleSnapshotPush)
	mux.HandleFunc("POST /v1/drain", s.handleDrain)
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	return mux
}

// Code is the typed failure code of an error body or a failed job record.
// A code exists only where one HTTP status means more than one thing; an
// untyped 400, 404, 410 or 500 carries none and its body is unchanged.
type Code string

const (
	CodeShed     Code = "shed"      // 429: admission control refused; retry after Retry-After
	CodeBusy     Code = "busy"      // 503: backlog full or idle gate shut; retry after Retry-After
	CodeDraining Code = "draining"  // 503, no Retry-After: leaving the fleet; go elsewhere
	CodeNoShards Code = "no_shards" // 503: the router has no shard admitting work
	CodeShutdown Code = "shutdown"  // failed job record: the daemon shut down before it ran
)

// Wired is an error that carries its own wire answer: HTTP status, code and
// Retry-After hint (zero for none). The daemon's and the router's refusals
// implement it, and so does a shard's answer as the client decoded it, which
// is how the router relays that answer unchanged.
type Wired interface {
	error
	Wire() (status int, code Code, retryAfter time.Duration)
}

// WireError is a refusal with a fixed wire answer (ErrBusy, ErrDraining, the
// router's no-shards sentinel).
type WireError struct {
	Status     int
	Code       Code
	RetryAfter time.Duration
	Msg        string
}

func (e *WireError) Error() string { return e.Msg }

// Wire implements Wired.
func (e *WireError) Wire() (int, Code, time.Duration) { return e.Status, e.Code, e.RetryAfter }

type errorBody struct {
	Error string `json:"error"`
	Code  Code   `json:"code,omitempty"`
}

// WriteJSON answers with status and v as a JSON body. Both tiers (daemon
// and router) render every response through it, so their bytes agree.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// WriteError answers with status and a {"error": msg} JSON body.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, errorBody{Error: msg})
}

// WriteFailure is the one place an error becomes an HTTP answer, on both
// tiers: a Wired error answers with its own status, code and Retry-After
// (whole seconds, rounded up); the handle store's sentinels answer 410 and
// 404; anything else answers fallback with an untyped body.
func WriteFailure(w http.ResponseWriter, err error, fallback int) {
	status, code, after := fallback, Code(""), time.Duration(0)
	var wired Wired
	switch {
	case errors.As(err, &wired):
		status, code, after = wired.Wire()
	case errors.Is(err, jobs.ErrGone):
		status = http.StatusGone
	case errors.Is(err, jobs.ErrUnknown):
		status = http.StatusNotFound
	}
	if after > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(int64((after+time.Second-1)/time.Second), 10))
	}
	WriteJSON(w, status, errorBody{Error: err.Error(), Code: code})
}

// MaxRequestBytes bounds a job-submission body; a Request is a handful of
// short fields, so anything near the bound is garbage and a streaming
// client cannot pin handler memory.
const MaxRequestBytes = 1 << 20

// DecodeRequest reads a Request body for a handler, answering 400 itself
// (and reporting false) when the body is not one.
func DecodeRequest(w http.ResponseWriter, r *http.Request) (Request, bool) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	// A typo'd field must fail loudly, not silently run the default job.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return req, false
	}
	return req, true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, ok := DecodeRequest(w, r)
	if !ok {
		return
	}
	j, coalesced, err := s.Submit(req)
	switch {
	case err != nil:
		WriteFailure(w, err, http.StatusBadRequest)
	case coalesced:
		WriteJSON(w, http.StatusOK, j)
	default:
		WriteJSON(w, http.StatusAccepted, j)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.Job(id)
	if !ok {
		if s.JobGone(id) {
			WriteError(w, http.StatusGone, "job "+id+" evicted from history")
			return
		}
		WriteError(w, http.StatusNotFound, "unknown job "+id)
		return
	}
	WriteJSON(w, http.StatusOK, j)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Trace())
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	info, err := s.SaveSnapshot()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, info)
}

// handleSnapshotPull streams the live cache snapshot (header+body gob, the
// snapshot-file layout) so a joining shard can seed its caches from a warm
// peer. The receiver validates the versioned header and discards mismatched
// schemes, so serving the stream is always safe.
func (s *Server) handleSnapshotPull(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := s.WriteSnapshotTo(w); err != nil {
		// Headers are already out; the truncated gob stream fails the
		// receiver's decode, which is the correct failure signal mid-stream.
		return
	}
}

// handleSnapshotPush restores the caches from a snapshot streamed in the
// request body — the receiving half of a drain: the inheritors of a
// departing shard's fingerprints absorb its warm slice before the shard is
// removed, so their first post-drain hits are warm. A scheme or predictor
// mismatch is a 409: the pusher's keys cannot be trusted here.
func (s *Server) handleSnapshotPush(w http.ResponseWriter, r *http.Request) {
	info, err := s.RestoreSnapshotFrom(r.Body)
	switch {
	case errors.Is(err, ErrStaleSnapshot):
		WriteError(w, http.StatusConflict, err.Error())
	case err != nil:
		WriteError(w, http.StatusBadRequest, err.Error())
	default:
		WriteJSON(w, http.StatusOK, info)
	}
}

// handleDrain flips the daemon into draining (idempotent): the routing tier
// calls it first in a DELETE /v1/shards flow so the victim stops taking work
// while its snapshot is handed to the inheritors.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.BeginDrain()
	WriteJSON(w, http.StatusOK, s.Stats())
}

// handleHealth is the routing tier's admission signal, so a draining daemon
// reports unhealthy: it still answers job polls and snapshot pulls, but must
// stop receiving new routed work immediately.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
