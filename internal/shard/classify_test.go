package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/service"
	"repro/internal/service/client"
)

// TestDeterministicSweepFailureCrossTier: a sweep whose leg runs and fails
// (no feasible architecture for Llama3-405B) fails alike on both tiers. The
// router must not absorb the failed leg as a degraded row: a job that ran
// and failed is the request's answer, not a replica-set exhaustion.
func TestDeterministicSweepFailureCrossTier(t *testing.T) {
	for _, tier := range []string{"daemon", "router"} {
		t.Run(tier, func(t *testing.T) {
			f := newFleet(t, 1)
			ctx := context.Background()
			base, c := f.rts.URL, f.client
			if tier == "daemon" {
				base = f.servers[0].URL
				c = client.New(base)
				c.PollInterval = f.client.PollInterval
			}
			if res, err := c.Sweep(ctx, service.Request{Model: "Llama3-405B", Seq: 2048}); err == nil {
				t.Fatalf("infeasible sweep succeeded: %d per-arch rows", len(res.Result.PerArch))
			}
			resp, err := http.Get(base + "/v1/sweeps")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var handles []service.SweepSummary
			if err := json.NewDecoder(resp.Body).Decode(&handles); err != nil {
				t.Fatal(err)
			}
			if len(handles) != 1 || handles[0].State != service.StateFailed {
				t.Errorf("sweep handles = %+v, want one failed", handles)
			}
			if n := f.router.Stats(ctx).Router.LegsDegraded; n != 0 {
				t.Errorf("legs_degraded = %d, want 0", n)
			}
		})
	}
}

// TestDrainingAnswerIndictsShard: a draining daemon refuses a submission with
// 503, code "draining" and no Retry-After; the client classifies that as
// indicting the shard, and the router acts on it — it excludes the owner and
// fails the submission over to the replica.
func TestDrainingAnswerIndictsShard(t *testing.T) {
	f := newFleet(t, 2)
	ctx := context.Background()
	req := testReq(11)
	owner := f.ownerIdx(t, req)
	f.shards[owner].BeginDrain()

	body, _ := json.Marshal(req)
	resp, err := http.Post(f.servers[owner].URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var eb struct {
		Error string       `json:"error"`
		Code  service.Code `json:"code"`
	}
	json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || eb.Code != service.CodeDraining {
		t.Errorf("draining answer = HTTP %d code %q, want 503 %q", resp.StatusCode, eb.Code, service.CodeDraining)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Errorf("draining answer carries Retry-After %q, want none", ra)
	}

	_, err = client.New(f.addrs[owner]).Submit(ctx, req)
	if fl := client.Classify(err); !fl.IndictsShard || fl.Transport || fl.Wait != 0 {
		t.Errorf("Classify(draining 503) = %+v, want IndictsShard without a resend", fl)
	}

	j, err := f.client.Submit(ctx, req)
	if err != nil {
		t.Fatalf("routed submission with a draining owner: %v", err)
	}
	if strings.HasPrefix(j.ID, f.addrs[owner]+"/") {
		t.Errorf("job %s landed on the draining owner", j.ID)
	}
	if b, _ := f.m.BackendByAddr(f.addrs[owner]); b.Healthy() {
		t.Error("draining owner still admitted to routing")
	}
	if n := f.router.Stats(ctx).Router.Failovers; n != 1 {
		t.Errorf("failovers = %d, want 1", n)
	}
}
