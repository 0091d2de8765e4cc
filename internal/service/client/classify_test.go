package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/service"
)

// TestClassify pins the failure taxonomy every retry, failover and breaker
// decision reads: one row per failure the two tiers can see.
func TestClassify(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	dc := New(dead.URL)
	dc.Retries = -1
	transport := dc.Health(context.Background())

	status := func(code int, kind service.Code, after time.Duration) error {
		return &StatusError{Code: code, Message: fmt.Sprintf("HTTP %d %s", code, kind), Kind: kind, RetryAfter: after}
	}
	failedJob := func(code service.Code) error {
		return &JobError{Job: service.Job{State: service.StateFailed, Error: "core: no feasible architecture", Code: code}}
	}
	for _, row := range []struct {
		name                        string
		err                         error
		retryable, indicts, breaker bool
		wantTransport               bool
		wantWait                    time.Duration
	}{
		{"transport", transport, true, true, true, true, 0},
		{"400", status(400, "", 0), false, false, false, false, 0},
		{"404", status(404, "", 0), true, false, false, false, 0},
		{"410", status(410, "", 0), false, false, false, false, 0},
		{"429 shed", status(429, service.CodeShed, 2*time.Second), true, false, false, false, 2 * time.Second},
		{"500", status(500, "", 0), false, false, true, false, 0},
		{"502", status(502, "", 0), true, false, true, false, 0},
		{"503 busy", status(503, service.CodeBusy, time.Second), true, false, true, false, time.Second},
		{"503 draining", status(503, service.CodeDraining, 0), true, true, true, false, 0},
		{"503 no_shards", status(503, service.CodeNoShards, 0), true, false, true, false, 0},
		{"job failed: shutdown", failedJob(service.CodeShutdown), true, false, false, false, 0},
		{"job failed: deterministic", failedJob(""), false, false, false, false, 0},
		{"leg deadline", fmt.Errorf("sweep leg %w: job abandoned in flight", ErrDeadline), false, false, false, false, 0},
	} {
		got := Classify(row.err)
		want := Failure{Retryable: row.retryable, Transport: row.wantTransport, Wait: row.wantWait,
			IndictsShard: row.indicts, BreakerFailure: row.breaker}
		if got != want {
			t.Errorf("%s: Classify(%v) = %+v, want %+v", row.name, row.err, got, want)
		}
	}
	if got := Classify(nil); got != (Failure{}) {
		t.Errorf("Classify(nil) = %+v, want no failure", got)
	}
}

// TestWireRoundTrip: what service.WriteFailure writes, the client decodes
// back unchanged — status, code and Retry-After — on either tier, and an
// untyped failure keeps its byte-identical {"error"} body.
func TestWireRoundTrip(t *testing.T) {
	for _, row := range []struct {
		name string
		err  error
	}{
		{"shed", &service.ShedError{Reason: "background queue over budget", RetryAfter: 3 * time.Second}},
		{"router shed", &service.ShedError{Reason: "deadline budget exhausted before dispatch"}},
		{"busy", service.ErrBusy},
		{"draining", service.ErrDraining},
		{"no_shards", &service.WireError{Status: http.StatusServiceUnavailable, Code: service.CodeNoShards, Msg: "shard: no healthy shards"}},
		{"relayed", &StatusError{Code: http.StatusTooManyRequests, Kind: service.CodeShed, Message: "shed upstream", RetryAfter: 7 * time.Second}},
		{"wrapped", fmt.Errorf("service: sweep part config3: %w", service.ErrBusy)},
		{"gone", fmt.Errorf("sweep swp-1: %w", jobs.ErrGone)},
		{"untyped", errors.New("unknown priority \"turbo\"")},
	} {
		t.Run(row.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				service.WriteFailure(w, row.err, http.StatusBadRequest)
			}))
			defer ts.Close()
			c := New(ts.URL)
			c.Retries = -1
			var se *StatusError
			if err := c.Health(context.Background()); !errors.As(err, &se) {
				t.Fatalf("err = %v, want a StatusError", err)
			}
			status, code, after := http.StatusBadRequest, service.Code(""), time.Duration(0)
			var wired service.Wired
			switch {
			case errors.As(row.err, &wired):
				status, code, after = wired.Wire()
			case errors.Is(row.err, jobs.ErrGone):
				status = http.StatusGone
			}
			if se.Code != status || se.Kind != code || se.RetryAfter != after {
				t.Errorf("decoded (%d, %q, %v), want (%d, %q, %v)", se.Code, se.Kind, se.RetryAfter, status, code, after)
			}
			if code != "" {
				return
			}
			resp, err := http.Get(ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if want := fmt.Sprintf("{\"error\":%q}\n", row.err.Error()); string(raw) != want {
				t.Errorf("untyped body = %q, want %q", raw, want)
			}
		})
	}
}
