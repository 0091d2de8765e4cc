package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobs"
)

// Async sweeps: a sweep is a first-class job with a durable handle. POST
// /v1/sweeps returns 202 plus a handle ID immediately; the handle collects
// per-architecture results incrementally as legs complete, so a client can
// consume partial Table II rows while the tail is still running, and the
// merged record — assembled in sweep order from exactly the per-leg Results
// the synchronous path would have gathered — is byte-identical to a
// synchronous single-node sweep.
//
// One orchestrator, Sweeps, runs this state machine for both tiers: the
// handle store, leg fold-in (first completion wins), expire-vs-fail, the
// merge, the sweep's absolute deadline and the dispatch order exist once.
// A tier only says how one leg runs, through a LegRunner: the daemon submits
// the leg as a local job and waits on it (localLegs below); the router
// serves it from its result cache or drives it across the fleet with
// failover (internal/shard).
//
// Dispatch is SupraX-style critical-path-first: the merge barrier waits on
// the slowest leg, so the legs gating the most downstream work (estimated
// by the architecture's die count, which bounds the strategy space the leg
// explores) are dispatched first at the highest within-class criticality,
// and light legs fill the remaining worker slots. Legs ride the sweep's own
// demand class; an unlabelled or prefetch-labelled sweep rides "sweep-leg"
// (see ExpandSweep).

// SweepLeg is the live status of one scattered sweep part inside a handle.
type SweepLeg struct {
	Config      string `json:"config"`
	JobID       string `json:"job_id,omitempty"`
	Fingerprint string `json:"fingerprint"`
	// Criticality is the leg's dispatch weight (die count of its arch).
	Criticality int   `json:"criticality"`
	State       State `json:"state"`
	// Shard names the backend the leg ran on (router-filled).
	Shard     string `json:"shard,omitempty"`
	Coalesced bool   `json:"coalesced,omitempty"`
	Error     string `json:"error,omitempty"`
	// Result is the leg's completed record — the partial Table II row a
	// poller can consume before the sweep finishes.
	Result *Result `json:"result,omitempty"`
	// Degraded marks a leg the router could not complete (every replica
	// exhausted or the leg's deadline expired in flight) that was absorbed
	// instead of failing the sweep: the merged record carries the leg's
	// arch with a degraded status — or a cached prior result — and the
	// sweep still answers. Always false on a single daemon, which has no
	// replica set to degrade across.
	Degraded bool `json:"degraded,omitempty"`
}

// SweepStatus is the durable, pollable handle of an async sweep.
type SweepStatus struct {
	ID          string `json:"id"`
	State       State  `json:"state"`
	Fingerprint string `json:"fingerprint"`
	Total       int    `json:"total_legs"`
	// Completed counts terminal legs (done or failed).
	Completed   int        `json:"completed_legs"`
	Legs        []SweepLeg `json:"legs"`
	Error       string     `json:"error,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	FinishedAt  time.Time  `json:"finished_at,omitzero"`
	// Deadline is the sweep's absolute admission deadline (zero when the
	// request carried no deadline_ms): all legs spend from this one budget,
	// retries and failovers included.
	Deadline time.Time `json:"deadline,omitzero"`
	// Result is the merged record set, byte-identical (Canonical) to the
	// same sweep run synchronously on a single daemon. Set on done.
	Result *Result `json:"result,omitempty"`
}

// Terminal reports whether the sweep has finished (done or failed) — the
// jobs.Handle contract that starts the handle's retention clock.
func (s SweepStatus) Terminal() bool { return s.State.Terminal() }

// SweepSummary is the listing form of a sweep handle (no leg payloads).
type SweepSummary struct {
	ID          string    `json:"id"`
	State       State     `json:"state"`
	Fingerprint string    `json:"fingerprint"`
	Total       int       `json:"total_legs"`
	Completed   int       `json:"completed_legs"`
	SubmittedAt time.Time `json:"submitted_at"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
}

// cloneSweepStatus deep-copies a handle for reads outside the store lock:
// legs are mutated in place as they complete, so the slice must not be
// shared. Results are written once and read-only afterwards.
func cloneSweepStatus(s SweepStatus) SweepStatus {
	s.Legs = append([]SweepLeg(nil), s.Legs...)
	return s
}

// ToResult converts a terminal handle into the synchronous SweepResult
// payload — the shared conversion the server's sync path and the client's
// submit-and-wait path both use, so both render one representation.
func (s SweepStatus) ToResult() (SweepResult, error) {
	switch {
	case s.State == StateFailed || s.State == StateExpired:
		return SweepResult{}, errors.New("service: " + s.Error)
	case s.State != StateDone:
		return SweepResult{}, fmt.Errorf("service: sweep %s still %s", s.ID, s.State)
	}
	out := SweepResult{Fingerprint: s.Fingerprint, Result: s.Result}
	for _, leg := range s.Legs {
		out.Jobs = append(out.Jobs, SweepJobRef{
			Config:      leg.Config,
			JobID:       leg.JobID,
			Fingerprint: leg.Fingerprint,
			Shard:       leg.Shard,
			Coalesced:   leg.Coalesced,
			Degraded:    leg.Degraded,
		})
	}
	return out, nil
}

// sweepDispatchOrder returns leg indices in dispatch order: criticality
// descending, sweep order ascending on ties — deterministic critical-path-
// first submission.
func sweepDispatchOrder(legs []SweepLeg) []int {
	order := make([]int, len(legs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return legs[order[a]].Criticality > legs[order[b]].Criticality
	})
	return order
}

// LegRunner runs sweep legs on one tier for the Sweeps orchestrator.
type LegRunner interface {
	// Ready refuses a whole sweep before its handle is minted (the
	// router's empty fleet); nil lets it through.
	Ready() error
	// Admit starts one leg on the submitting goroutine, in dispatch order.
	// An error fails the sweep synchronously. A terminal leg (a cache hit)
	// folds in at once; otherwise its job ID and coalescing are recorded
	// and Finish completes it.
	Admit(part Request) (SweepLeg, error)
	// Finish runs on the leg's own goroutine and returns the admitted leg
	// made terminal. deadline is the sweep's absolute budget (zero = none),
	// shared by every leg.
	Finish(part Request, admitted SweepLeg, deadline time.Time) SweepLeg
}

// Sweeps is the sweep-handle orchestrator both tiers serve /v1/sweeps from:
// a bounded store of durable handles, the done channels synchronous waiters
// block on, and the count of sweeps merged.
type Sweeps struct {
	run    LegRunner
	limits func() (ttl time.Duration, history int)

	once   sync.Once
	store  *jobs.Store[SweepStatus]
	merged atomic.Uint64

	mu   sync.Mutex
	done map[string]chan struct{} // closed when a handle goes terminal
}

// NewSweeps returns an orchestrator driving legs through run. limits yields
// the handle store's TTL and size cap (see jobs.Options); it is read once,
// on first use, so a tier may set its limits after construction.
func NewSweeps(run LegRunner, limits func() (ttl time.Duration, history int)) *Sweeps {
	return &Sweeps{run: run, limits: limits, done: make(map[string]chan struct{})}
}

func (sw *Sweeps) handles() *jobs.Store[SweepStatus] {
	sw.once.Do(func() {
		ttl, history := sw.limits()
		sw.store = jobs.NewStore[SweepStatus](jobs.Options{
			Prefix:     "swp",
			TTL:        ttl,
			MaxEntries: history,
		}, cloneSweepStatus)
	})
	return sw.store
}

// Start expands a sweep request, registers a durable handle, and dispatches
// the legs — heaviest first — returning the handle immediately. Legs finish
// on their own goroutines, outliving the submitting request; Lookup polls
// the handle, Wait blocks on it. An admission failure (backpressure,
// draining) fails the handle and is returned as the error.
func (sw *Sweeps) Start(req Request) (SweepStatus, error) {
	norm, parts, err := ExpandSweep(req)
	if err != nil {
		return SweepStatus{}, err
	}
	if err := sw.run.Ready(); err != nil {
		return SweepStatus{}, err
	}
	legs := make([]SweepLeg, len(parts))
	for i, p := range parts {
		legs[i] = SweepLeg{
			Config:      p.Config,
			Fingerprint: p.Fingerprint(),
			Criticality: p.Criticality,
			State:       StateQueued,
		}
	}
	// The deadline budget is absolute from here: every leg shares it, and
	// retries or failovers spend from it rather than restarting it.
	now := time.Now()
	deadline := norm.Deadline(now)
	store := sw.handles()
	id, _ := store.Create(func(id string) SweepStatus {
		return SweepStatus{
			ID:          id,
			State:       StateRunning,
			Fingerprint: norm.Fingerprint(),
			Total:       len(parts),
			Legs:        legs,
			SubmittedAt: now,
			Deadline:    deadline,
		}
	})
	sw.mu.Lock()
	sw.done[id] = make(chan struct{})
	sw.mu.Unlock()

	for _, i := range sweepDispatchOrder(legs) {
		leg, err := sw.run.Admit(parts[i])
		if err != nil {
			msg := fmt.Sprintf("sweep part %s: %v", parts[i].Config, err)
			sw.update(id, func(st *SweepStatus) {
				if st.State == StateRunning {
					st.State, st.Error, st.FinishedAt = StateFailed, msg, time.Now()
				}
			})
			st, _ := store.Get(id)
			return st, fmt.Errorf("service: sweep part %s: %w", parts[i].Config, err)
		}
		if leg.State.Terminal() {
			sw.fold(id, i, leg)
			continue
		}
		store.Update(id, func(st *SweepStatus) {
			st.Legs[i].JobID, st.Legs[i].Coalesced = leg.JobID, leg.Coalesced
		})
		go func() { sw.fold(id, i, sw.run.Finish(parts[i], leg, deadline)) }()
	}
	return store.Get(id)
}

// fold records a terminal leg in the handle; a leg's first completion wins
// (a failover race may report it twice). A failed or expired leg ends the
// sweep — a leg killed by its own deadline as deadline_exceeded, budget
// exhaustion rather than a fault — unless the runner absorbed it as
// Degraded. The last leg to land triggers the merge.
func (sw *Sweeps) fold(id string, idx int, leg SweepLeg) {
	sw.update(id, func(st *SweepStatus) {
		dst := &st.Legs[idx]
		if dst.State.Terminal() {
			return
		}
		leg.Config, leg.Fingerprint, leg.Criticality = dst.Config, dst.Fingerprint, dst.Criticality
		if leg.JobID == "" {
			leg.JobID = dst.JobID
		}
		*dst = leg
		st.Completed++
		if leg.State != StateDone && !leg.Degraded && st.State == StateRunning {
			if leg.State == StateExpired {
				st.State, st.Error = StateExpired, fmt.Sprintf("sweep part %s deadline exceeded: %s", leg.Config, leg.Error)
			} else {
				st.State, st.Error = StateFailed, fmt.Sprintf("sweep part %s failed: %s", leg.Config, leg.Error)
			}
			st.FinishedAt = time.Now()
		}
		if st.State == StateRunning && st.Completed == st.Total {
			sw.merge(st)
		}
	})
}

// merge assembles a handle whose every leg has landed. MergeSweepDegraded
// runs only when a degraded leg has no row to contribute; its record
// carries marker rows and is never byte-identical to a healthy sweep.
func (sw *Sweeps) merge(st *SweepStatus) {
	results := make([]*Result, st.Total)
	configs := make([]string, st.Total)
	reasons := make([]string, st.Total)
	degraded := false
	for i, leg := range st.Legs {
		results[i], configs[i] = leg.Result, leg.Config
		if leg.Degraded && leg.Result == nil {
			degraded, reasons[i] = true, leg.Error
		}
	}
	var merged *Result
	var err error
	if degraded {
		merged, err = MergeSweepDegraded(results, configs, reasons)
	} else {
		merged, err = MergeSweep(results)
	}
	st.FinishedAt = time.Now()
	if err != nil {
		st.State, st.Error = StateFailed, err.Error()
		return
	}
	st.State, st.Result = StateDone, merged
	sw.merged.Add(1)
}

// update mutates a handle and, once it is terminal, wakes its waiters. A
// handle evicted mid-flight is left alone: there is nothing to fold into.
func (sw *Sweeps) update(id string, fn func(*SweepStatus)) {
	terminal := false
	err := sw.handles().Update(id, func(st *SweepStatus) {
		fn(st)
		terminal = st.State.Terminal()
	})
	if err != nil || !terminal {
		return
	}
	sw.mu.Lock()
	if ch, ok := sw.done[id]; ok {
		close(ch)
		delete(sw.done, id)
	}
	sw.mu.Unlock()
}

// Lookup returns a snapshot of a sweep handle: jobs.ErrGone for an evicted
// handle (HTTP 410), jobs.ErrUnknown for a never-issued ID (404).
func (sw *Sweeps) Lookup(id string) (SweepStatus, error) {
	return sw.handles().Get(id)
}

// Wait blocks until the sweep handle goes terminal or ctx ends.
func (sw *Sweeps) Wait(ctx context.Context, id string) (SweepStatus, error) {
	sw.mu.Lock()
	ch := sw.done[id]
	sw.mu.Unlock()
	if ch != nil {
		select {
		case <-ch:
		case <-ctx.Done():
			return SweepStatus{}, ctx.Err()
		}
	}
	return sw.handles().Get(id)
}

// Run is the synchronous facade: Start, Wait, and render the SweepResult
// payload. The blocking and the 202-handle flows share one code path, which
// keeps the merged Canonical byte-identical between them.
func (sw *Sweeps) Run(ctx context.Context, req Request) (SweepResult, error) {
	st, err := sw.Start(req)
	if err != nil {
		return SweepResult{}, err
	}
	return sw.result(ctx, st.ID)
}

func (sw *Sweeps) result(ctx context.Context, id string) (SweepResult, error) {
	st, err := sw.Wait(ctx, id)
	if err != nil {
		return SweepResult{}, err
	}
	return st.ToResult()
}

// List returns the retained sweep handles, oldest first.
func (sw *Sweeps) List() []SweepSummary {
	out := []SweepSummary{}
	sw.handles().Each(func(_ string, st SweepStatus) {
		out = append(out, SweepSummary{
			ID:          st.ID,
			State:       st.State,
			Fingerprint: st.Fingerprint,
			Total:       st.Total,
			Completed:   st.Completed,
			SubmittedAt: st.SubmittedAt,
			FinishedAt:  st.FinishedAt,
		})
	})
	return out
}

// Merged counts the sweeps merged to completion.
func (sw *Sweeps) Merged() uint64 { return sw.merged.Load() }

// AddGauges adds this orchestrator's handle gauges to st: running, done and
// failed handles, terminal handles retained for polling, and handles
// evicted. The router adds its own handles on top of its shards' sums.
func (sw *Sweeps) AddGauges(st *Stats) {
	store := sw.handles()
	store.Each(func(_ string, h SweepStatus) {
		switch h.State {
		case StateRunning:
			st.SweepsRunning++
		case StateDone:
			st.SweepsDone++
		default:
			st.SweepsFailed++
		}
		if h.State.Terminal() {
			st.SweepsRetained++
		}
	})
	st.SweepsEvicted += store.Evicted()
}

// Register serves the sweep API on mux. Admission errors — the failures
// Start reports before a sweep runs — render through WriteFailure, so both
// tiers answer them alike; a sweep that ran and failed answers 500.
func (sw *Sweeps) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		req, ok := DecodeRequest(w, r)
		if !ok {
			return
		}
		// Pre-validate so bad requests stay 400 on both the async and the
		// blocking flow; later failures are admission- or execution-side.
		if _, _, err := ExpandSweep(req); err != nil {
			WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		st, err := sw.Start(req)
		switch {
		case err != nil:
			WriteFailure(w, err, http.StatusBadRequest)
		case r.URL.Query().Get("wait") == "":
			WriteJSON(w, http.StatusAccepted, st)
		default:
			// Synchronous compatibility flow: block until the merge.
			if res, err := sw.result(r.Context(), st.ID); err != nil {
				WriteError(w, http.StatusInternalServerError, err.Error())
			} else {
				WriteJSON(w, http.StatusOK, res)
			}
		}
	})
	mux.HandleFunc("GET /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, sw.List())
	})
	mux.HandleFunc("GET /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		st, err := sw.Lookup(id)
		if err != nil {
			WriteFailure(w, fmt.Errorf("sweep %s: %w", id, err), http.StatusInternalServerError)
			return
		}
		WriteJSON(w, http.StatusOK, st)
	})
}

// localLegs runs a daemon's sweep legs as local jobs: Admit submits each
// through the normal job path — identical in-flight architectures coalesce,
// every leg lands in the shared caches, interactive work overtakes bulk
// legs — and Finish blocks on the job's done channel, so no polling.
type localLegs struct{ s *Server }

// Ready lets every sweep through: a daemon refuses leg by leg, at Submit.
func (l localLegs) Ready() error { return nil }

func (l localLegs) Admit(part Request) (SweepLeg, error) {
	j, coalesced, err := l.s.Submit(part)
	return SweepLeg{JobID: j.ID, Coalesced: coalesced}, err
}

func (l localLegs) Finish(_ Request, leg SweepLeg, _ time.Time) SweepLeg {
	j, err := l.s.Wait(leg.JobID)
	if err != nil {
		j = Job{State: StateFailed, Error: err.Error()}
	}
	leg.State, leg.Result, leg.Error = j.State, j.Result, j.Error
	return leg
}
