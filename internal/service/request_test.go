package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRequestRejectsNegativeParallelism: a negative parallelism field would
// run as the default request under a different fingerprint, so the daemon
// refuses it with a 400 naming the field, as it does an unknown priority.
func TestRequestRejectsNegativeParallelism(t *testing.T) {
	s := NewServer(Options{EvalWorkers: 1}, nil)
	defer s.Close()
	for _, field := range []string{"fixed_tp", "fixed_pp", "max_tp", "pipeline_wafers", "deadline_ms"} {
		body := `{"model":"Llama2-30B","config":"config3","seq":2048,"` + field + `":-2}`
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "negative "+field) {
			t.Errorf("%s: HTTP %d %s, want 400 naming the field", field, rec.Code, rec.Body)
		}
	}
	if n := s.Stats().JobsSubmitted; n != 0 {
		t.Errorf("%d negative-field jobs admitted", n)
	}
}

// TestCloseMarksBacklogShutdown: Close fails the dropped backlog with the
// "shutdown" code, the typed signal that the work never ran and may be
// re-dispatched elsewhere.
func TestCloseMarksBacklogShutdown(t *testing.T) {
	s := NewServer(Options{EvalWorkers: 1, JobWorkers: 1, Backlog: 8}, nil)
	var ids []string
	for seed := int64(1); seed <= 4; seed++ {
		req := testRequest()
		req.Seed = seed
		j, _, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	s.Close()
	dropped := 0
	for _, id := range ids {
		j, _ := s.Job(id)
		switch {
		case j.State == StateFailed && j.Code == CodeShutdown:
			dropped++
		case j.State != StateDone || j.Code != "":
			t.Errorf("job %s after Close: state %s code %q", id, j.State, j.Code)
		}
	}
	if dropped == 0 {
		t.Error("Close dropped no queued job")
	}
}

// FuzzDecodeRequest feeds arbitrary bodies through the submission decoder
// and Normalize: no panic, every rejection is a 400, and every accepted
// request is a fixed point of Normalize with non-negative numeric fields.
func FuzzDecodeRequest(f *testing.F) {
	for _, r := range []Request{testRequest(), sweepRequest(), {}, {Priority: "turbo"},
		{Model: "Llama3-405B", Seq: 2048}, {Batch: 2, Micro: 4}, {FixedTP: -1}, {MaxTP: 4, FixedPP: 2},
		{PipelineWafers: 2, DeadlineMS: 500, Priority: "background"}, {UseGA: true, Seed: -3, Criticality: 5}} {
		body, _ := json.Marshal(r)
		f.Add(body)
	}
	f.Add([]byte(`{"fixed_pp":-4}`))
	f.Add([]byte(`{"no_such_field":1}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		req, ok := DecodeRequest(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		if !ok {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("decoder rejected %q with HTTP %d, want 400", body, rec.Code)
			}
			return
		}
		norm, err := req.Normalize()
		if err != nil {
			rec := httptest.NewRecorder()
			WriteFailure(rec, err, http.StatusBadRequest)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("Normalize rejection %v renders HTTP %d, want 400", err, rec.Code)
			}
			return
		}
		again, err := norm.Normalize()
		if err != nil || again != norm || again.Fingerprint() != norm.Fingerprint() {
			t.Fatalf("Normalize not idempotent on %q: %+v -> %+v (%v)", body, norm, again, err)
		}
		for _, v := range []int64{int64(norm.Batch), int64(norm.Micro), int64(norm.Seq), int64(norm.MaxTP),
			int64(norm.FixedTP), int64(norm.FixedPP), int64(norm.PipelineWafers), norm.DeadlineMS} {
			if v < 0 {
				t.Fatalf("accepted %q with a negative field: %+v", body, norm)
			}
		}
	})
}
