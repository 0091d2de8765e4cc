// Package client is the typed Go client of the watosd evaluation service.
// It speaks the HTTP/JSON API of internal/service and is what cmd/watos's
// -remote path and the service benchmarks are built on.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/service"
)

// Client talks to one watosd instance — or to a watos-router front-end,
// which serves the same API surface with shard-namespaced job IDs (the IDs
// round-trip opaquely through Job/Wait, so the client is router-agnostic).
type Client struct {
	base string
	hc   *http.Client
	// PollInterval paces Wait's status polling (default 50ms).
	PollInterval time.Duration
	// Timeout bounds each request attempt end to end, including reading the
	// response body (0 = no per-attempt bound beyond the caller's context).
	// Wait's polls and submissions are quick round-trips, but synchronous
	// sweeps block until the whole scatter completes and snapshot pulls
	// stream megabytes, so the bound is per-attempt and opt-in.
	Timeout time.Duration
	// Retries bounds additional attempts after a connection-level failure
	// (dial refused, reset mid-flight); HTTP error statuses are never
	// retried. Negative disables retries. Retrying a job submission is safe:
	// a duplicate that reaches the daemon coalesces onto the in-flight
	// original or replays from warm caches, byte-identically either way.
	Retries int
	// RetryDelay is the initial backoff between attempts, doubling each
	// retry with bounded random jitter on top (default 50ms when
	// Retries > 0). The jitter decorrelates retry storms: when a shard dies
	// under a burst, every client's budget would otherwise tick on the same
	// deterministic schedule and re-dogpile the failover target in lockstep.
	RetryDelay time.Duration
	// Budget, when set, is a token-bucket retry budget shared across this
	// client's calls: every retry (connection-level or backpressure) costs a
	// token, and each success refills a fraction of one. It also unlocks
	// backpressure retries — a 429/503 carrying Retry-After is retried after
	// that delay while tokens last. nil keeps the legacy behavior: bounded
	// connection retries, HTTP statuses never retried. The bucket shape makes
	// the worst case additive: a healthy stream of successes earns back
	// retries, but a browning-out service cannot be hammered with more than
	// the initial burst.
	Budget *RetryBudget
}

// RetryBudget is a token-bucket retry budget, safe for concurrent use and
// shareable between clients (every retry anywhere draws from one bucket).
type RetryBudget struct {
	mu     sync.Mutex
	tokens float64
	max    float64
	earn   float64 // tokens credited per successful request
}

// NewRetryBudget returns a budget holding (and capped at) max tokens, earning
// earnPerSuccess tokens back per successful request (clamped to [0, 1]).
func NewRetryBudget(max int, earnPerSuccess float64) *RetryBudget {
	if max < 0 {
		max = 0
	}
	if earnPerSuccess < 0 {
		earnPerSuccess = 0
	}
	if earnPerSuccess > 1 {
		earnPerSuccess = 1
	}
	return &RetryBudget{tokens: float64(max), max: float64(max), earn: earnPerSuccess}
}

// take consumes one retry token, reporting false when the budget is dry.
func (b *RetryBudget) take() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// success credits the per-success earnings back into the bucket.
func (b *RetryBudget) success() {
	if b == nil {
		return
	}
	b.mu.Lock()
	if b.tokens += b.earn; b.tokens > b.max {
		b.tokens = b.max
	}
	b.mu.Unlock()
}

// Remaining reports the whole tokens currently in the bucket.
func (b *RetryBudget) Remaining() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return int(b.tokens)
}

// DefaultRetries is the connection-error retry budget of a fresh Client.
const DefaultRetries = 2

// New returns a client for a daemon or router address ("host:port" or a
// full "http://..." base URL).
func New(addr string) *Client {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{
		base:    strings.TrimRight(base, "/"),
		hc:      &http.Client{},
		Retries: DefaultRetries,
	}
}

// StatusError is a non-2xx response from the daemon or router, carrying the
// HTTP status so proxies (the router) and callers can distinguish a missing
// job (404) from backpressure (503) from a failed execution (500).
type StatusError struct {
	Code    int
	Message string
	// Kind is the body's typed code, where one status means more than one
	// thing (a 503 is "busy", "draining" or "no_shards"); empty otherwise.
	Kind service.Code
	// RetryAfter is the server's Retry-After hint (zero when absent): a 429
	// or 503 carrying it invites a retry after the delay (see Classify).
	RetryAfter time.Duration
}

func (e *StatusError) Error() string { return e.Message }

// Wire implements service.Wired, so the router relays a shard's answer with
// its status, code and Retry-After unchanged.
func (e *StatusError) Wire() (int, service.Code, time.Duration) {
	return e.Code, e.Kind, e.RetryAfter
}

// JobError is a job record that went terminal without a result, as an error.
type JobError struct{ Job service.Job }

func (e *JobError) Error() string { return "job failed: " + e.Job.Error }

// ErrDeadline marks work whose own deadline budget ran out: refused before
// dispatch, expired while queued or abandoned in flight. Nothing broke, and
// a retry cannot un-spend the budget.
var ErrDeadline = errors.New("deadline exceeded")

// Failure is what one failed call means to each decision that follows it.
// Classify is the only reader of failures: the client's retry loop and
// polls, the router's failover, sweep-leg re-dispatch and degrade, and the
// circuit breaker all decide from these fields.
type Failure struct {
	// Retryable: the work may succeed if sent again. Polls keep polling; a
	// sweep leg re-dispatches, and degrades rather than fails once spent.
	Retryable bool
	// Transport: no server answered; the client resends with backoff.
	Transport bool
	// Wait: a 429/503's Retry-After; with a Budget the client resends after it.
	Wait time.Duration
	// IndictsShard: the address cannot take the work (unreachable or
	// draining); the router excludes it and fails over.
	IndictsShard bool
	// BreakerFailure: the round trip counts against the address's breaker.
	BreakerFailure bool
}

// Classify maps a transport error, a wire answer (a StatusError, or an
// in-process service.Wired refusal) or a failed job record (JobError) to
// its Failure. A nil error and ErrDeadline are no failure of anyone's.
//
//	failure                  Retryable  IndictsShard  BreakerFailure
//	transport                yes        yes           yes
//	400, 410                 -          -             -
//	404 (job vanished)       yes        -             -
//	429 shed                 yes        -             -
//	500                      -          -             yes
//	502                      yes        -             yes
//	503 busy, no_shards      yes        -             yes
//	503 draining             yes        yes           yes
//	job failed: shutdown     yes        -             -
//	job failed: otherwise    -          -             -
//	deadline                 -          -             -
func Classify(err error) Failure {
	var wired service.Wired
	var je *JobError
	switch {
	case err == nil, errors.Is(err, ErrDeadline):
		return Failure{}
	case errors.As(err, &je):
		// A job the daemon dropped at shutdown never ran; any other failed
		// record is the request's deterministic answer.
		return Failure{Retryable: je.Job.Code == service.CodeShutdown}
	case !errors.As(err, &wired):
		return Failure{Retryable: true, Transport: true, IndictsShard: true, BreakerFailure: true}
	}
	status, code, after := wired.Wire()
	switch status {
	case http.StatusTooManyRequests:
		return Failure{Retryable: true, Wait: after}
	case http.StatusServiceUnavailable:
		return Failure{Retryable: true, Wait: after, IndictsShard: code == service.CodeDraining, BreakerFailure: true}
	case http.StatusNotFound:
		return Failure{Retryable: true}
	case http.StatusBadGateway:
		return Failure{Retryable: true, BreakerFailure: true}
	case http.StatusInternalServerError:
		return Failure{BreakerFailure: true}
	}
	return Failure{}
}

// retryAfter parses a Retry-After response header (delta-seconds form; the
// HTTP-date form is not used by this service's servers).
func retryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// cancelBody releases a per-attempt timeout context when the response body
// is closed. The context must outlive request() on the success path — the
// caller still has the body to read — so the cancel travels with the body
// instead of a defer.
type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// request issues one attempt and hands the open response body to the
// caller on success (2xx).
func (c *Client) request(ctx context.Context, method, path string, in []byte, contentType string) (*http.Response, error) {
	cancel := context.CancelFunc(func() {})
	if c.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
	}
	var body io.Reader
	if in != nil {
		body = bytes.NewReader(in)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		cancel()
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode >= 400 {
		// Drain to EOF before Close so the transport can reuse the
		// connection — Wait polls on a tight interval and must not open a
		// fresh TCP connection per poll.
		defer func() {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			cancel()
		}()
		var eb struct {
			Error string       `json:"error"`
			Code  service.Code `json:"code"`
		}
		msg := fmt.Sprintf("watosd %s %s: HTTP %d", method, path, resp.StatusCode)
		if json.NewDecoder(resp.Body).Decode(&eb) == nil && eb.Error != "" {
			msg = fmt.Sprintf("watosd %s %s: %s (HTTP %d)", method, path, eb.Error, resp.StatusCode)
		}
		return nil, &StatusError{Code: resp.StatusCode, Message: msg, Kind: eb.Code, RetryAfter: retryAfter(resp)}
	}
	resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

// open runs a JSON request with the bounded connection-error retry loop.
func (c *Client) open(ctx context.Context, method, path string, in any) (*http.Response, error) {
	var data []byte
	if in != nil {
		var err error
		if data, err = json.Marshal(in); err != nil {
			return nil, err
		}
	}
	return c.openData(ctx, method, path, data, "application/json")
}

// jitterRand backs the retry jitter; the global math/rand source would do,
// but a private one keeps the client from perturbing programs that seed the
// global source for reproducibility.
var (
	jitterMu   sync.Mutex
	jitterRand = rand.New(rand.NewSource(time.Now().UnixNano()))
)

// jitter draws a random addition in [0, d/2) to a backoff delay.
func jitter(d time.Duration) time.Duration {
	if d < 2 {
		return 0
	}
	jitterMu.Lock()
	defer jitterMu.Unlock()
	return time.Duration(jitterRand.Int63n(int64(d / 2)))
}

// openData runs one raw-body request with the bounded retry loop. Context
// cancellation is always terminal — before the backoff sleep, and mid-sleep
// if it fires then. Two Failure classes resend to the same address:
//
//   - Transport failures, bounded by Retries, backing off exponentially with
//     bounded jitter;
//   - with a Budget set, backpressure answers (Failure.Wait: a 429 or 503
//     carrying Retry-After), after honoring the server's delay.
//
// Every retry of either class draws a Budget token when a Budget is set; any
// other HTTP status is the request's answer and never resent.
func (c *Client) openData(ctx context.Context, method, path string, data []byte, contentType string) (*http.Response, error) {
	delay := c.RetryDelay
	if delay <= 0 {
		delay = 50 * time.Millisecond
	}
	for attempt := 0; ; attempt++ {
		resp, err := c.request(ctx, method, path, data, contentType)
		if err == nil {
			c.Budget.success()
			return resp, nil
		}
		if ctx.Err() != nil {
			return nil, err
		}
		wait := delay + jitter(delay)
		switch f := Classify(err); {
		case f.Wait > 0:
			if c.Budget == nil || !c.Budget.take() {
				return nil, err
			}
			wait = f.Wait
		case f.Transport:
			if attempt >= c.Retries || !c.Budget.take() {
				return nil, err
			}
			delay *= 2
		default:
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, err
		case <-time.After(wait):
		}
	}
}

func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	_, err := c.doStatus(ctx, method, path, in, out)
	return err
}

// doStatus is do, additionally reporting the HTTP status code of a 2xx
// response (the submit path distinguishes 202 queued from 200 coalesced).
func (c *Client) doStatus(ctx context.Context, method, path string, in, out any) (int, error) {
	resp, err := c.open(ctx, method, path, in)
	if err != nil {
		var se *StatusError
		if errors.As(err, &se) {
			return se.Code, err
		}
		return 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if out == nil {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// Submit enqueues a search job and returns its record (which may be an
// existing in-flight job the submission coalesced onto).
func (c *Client) Submit(ctx context.Context, req service.Request) (service.Job, error) {
	j, _, err := c.SubmitJob(ctx, req)
	return j, err
}

// SubmitJob is Submit, additionally reporting whether the submission
// coalesced onto an identical in-flight job (HTTP 200) instead of enqueueing
// a fresh one (HTTP 202). The router proxies this distinction through.
func (c *Client) SubmitJob(ctx context.Context, req service.Request) (service.Job, bool, error) {
	var j service.Job
	status, err := c.doStatus(ctx, http.MethodPost, "/v1/jobs", req, &j)
	return j, status == http.StatusOK, err
}

// StartSweep submits a sweep asynchronously: the daemon (or router)
// scatters per-architecture legs in the background and answers immediately
// with a durable handle to poll via SweepStatus.
func (c *Client) StartSweep(ctx context.Context, req service.Request) (service.SweepStatus, error) {
	var st service.SweepStatus
	err := c.do(ctx, http.MethodPost, "/v1/sweeps", req, &st)
	return st, err
}

// SweepStatus polls one sweep handle; legs fill in incrementally as they
// complete. An evicted handle is a 410 StatusError, a never-issued ID a 404.
func (c *Client) SweepStatus(ctx context.Context, id string) (service.SweepStatus, error) {
	var st service.SweepStatus
	err := c.do(ctx, http.MethodGet, "/v1/sweeps/"+id, nil, &st)
	return st, err
}

// WaitSweep polls a sweep handle until it goes terminal, tolerating
// transient poll failures like Wait. onLeg, when non-nil, fires once per
// leg as the poll first observes it terminal (in sweep order within a
// poll) — the hook consuming partial Table II rows while the tail runs.
func (c *Client) WaitSweep(ctx context.Context, id string, onLeg func(service.SweepLeg)) (service.SweepStatus, error) {
	seen := make(map[int]bool)
	return poll(ctx, c.PollInterval, func() (service.SweepStatus, error) { return c.SweepStatus(ctx, id) },
		func(st service.SweepStatus) bool {
			for i, leg := range st.Legs {
				if onLeg != nil && leg.State.Terminal() && !seen[i] {
					seen[i] = true
					onLeg(leg)
				}
			}
			return st.State.Terminal()
		})
}

// Sweep scatters a sweep request into per-architecture jobs (across shards
// when addressed at a router) and returns the gathered merged record set.
// The call is synchronous — submit the async handle, poll it to the merge —
// and byte-identical to the pre-async blocking flow, which ?wait=1 still
// serves for non-polling clients.
func (c *Client) Sweep(ctx context.Context, req service.Request) (service.SweepResult, error) {
	st, err := c.StartSweep(ctx, req)
	if err != nil {
		return service.SweepResult{}, err
	}
	if st, err = c.WaitSweep(ctx, st.ID, nil); err != nil {
		return service.SweepResult{}, err
	}
	return st.ToResult()
}

// Job fetches one job by ID.
func (c *Client) Job(ctx context.Context, id string) (service.Job, error) {
	var j service.Job
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &j)
	return j, err
}

// Jobs lists job summaries in submission order.
func (c *Client) Jobs(ctx context.Context) ([]service.Summary, error) {
	var out []service.Summary
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out, err
}

// waitRetries bounds consecutive retryable poll failures. A long search
// keeps running server-side whatever the poll transport does, so one reset
// connection must not cost the caller the whole result.
const waitRetries = 5

// poll fetches every interval (default 50ms) until done accepts the answer.
// A failed fetch Classify calls retryable is tolerated up to waitRetries
// times in a row; a deterministic answer (400, 410, 500) ends the wait at
// once.
func poll[T any](ctx context.Context, interval time.Duration, fetch func() (T, error), done func(T) bool) (T, error) {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	failures := 0
	for {
		v, err := fetch()
		if err != nil {
			failures++
			if failures > waitRetries || ctx.Err() != nil || !Classify(err).Retryable {
				return v, err
			}
		} else if failures = 0; done(v) {
			return v, nil
		}
		select {
		case <-ctx.Done():
			return v, ctx.Err()
		case <-time.After(interval):
		}
	}
}

// Wait polls until the job reaches a terminal state and returns it (see
// poll for which failures it rides out).
func (c *Client) Wait(ctx context.Context, id string) (service.Job, error) {
	return poll(ctx, c.PollInterval, func() (service.Job, error) { return c.Job(ctx, id) },
		func(j service.Job) bool { return j.State.Terminal() })
}

// Run submits a job and waits for its terminal state — the remote
// equivalent of one in-process search. A submission answered terminal on
// the spot (a router result-cache hit) returns without a single poll.
func (c *Client) Run(ctx context.Context, req service.Request) (service.Job, error) {
	j, err := c.Submit(ctx, req)
	if err != nil || j.State.Terminal() {
		return j, err
	}
	return c.Wait(ctx, j.ID)
}

// Stats fetches the service counters and cache statistics.
func (c *Client) Stats(ctx context.Context) (service.Stats, error) {
	var st service.Stats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// Snapshot asks the daemon to persist its cache snapshot now.
func (c *Client) Snapshot(ctx context.Context) (service.SnapshotInfo, error) {
	var info service.SnapshotInfo
	err := c.do(ctx, http.MethodPost, "/v1/snapshot", nil, &info)
	return info, err
}

// PullSnapshot streams the daemon's versioned cache snapshot (the seed a
// joining shard feeds to service.Server.RestoreSnapshotFrom, which validates
// the fingerprint scheme and predictor identity before trusting any entry).
// The caller owns closing the returned stream.
func (c *Client) PullSnapshot(ctx context.Context) (io.ReadCloser, error) {
	resp, err := c.open(ctx, http.MethodGet, "/v1/snapshot", nil)
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// PushSnapshot streams a snapshot (the bytes of a snapshot file or a
// PullSnapshot stream) into the daemon's caches — the handoff a draining
// shard's slice rides to its inheritors. The receiver validates the
// versioned header; a scheme or predictor mismatch surfaces as a 409
// StatusError wrapping service.ErrStaleSnapshot semantics.
func (c *Client) PushSnapshot(ctx context.Context, snapshot []byte) (service.SnapshotInfo, error) {
	resp, err := c.openData(ctx, http.MethodPut, "/v1/snapshot", snapshot, "application/octet-stream")
	if err != nil {
		return service.SnapshotInfo{}, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	var info service.SnapshotInfo
	return info, json.NewDecoder(resp.Body).Decode(&info)
}

// Drain flips the daemon into draining (reject new jobs, unhealthy to
// probes, in-flight work finishes) and returns its stats snapshot.
func (c *Client) Drain(ctx context.Context) (service.Stats, error) {
	var st service.Stats
	err := c.do(ctx, http.MethodPost, "/v1/drain", nil, &st)
	return st, err
}

// Health probes the daemon's liveness endpoint.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/v1/healthz", nil, nil)
}
