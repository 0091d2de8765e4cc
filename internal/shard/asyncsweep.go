package shard

import (
	"context"
	"errors"
	"time"

	"repro/internal/service"
	"repro/internal/service/client"
)

// Routed sweeps run on the one orchestrator the daemon uses
// (service.Sweeps): POST /v1/sweeps answers 202 with a durable handle, legs
// scatter across the fleet by fingerprint and fold back incrementally, and
// the merged record stays byte-identical to a single-node sweep. This file
// is only the router's LegRunner: a leg the fleet already answered folds in
// from the result cache; every other leg rides runLeg — bounded retries and
// replica failover — on its own goroutine, so mid-sweep shard churn is
// absorbed and the recovery is observable leg by leg. The legs' priority
// class and criticality come with the parts from service.ExpandSweep, so
// interactive traffic overtakes bulk legs fleet-wide, not just locally.
type routedLegs struct{ r *Router }

// Ready fast-fails an empty fleet with the routing sentinel (503) rather
// than minting a handle whose every leg is doomed.
func (l routedLegs) Ready() error {
	if len(l.r.Map.Healthy()) == 0 {
		return ErrNoShards
	}
	return nil
}

// Admit serves a leg from the fleet result cache without crossing a shard;
// any other leg is left to Finish.
func (l routedLegs) Admit(part service.Request) (service.SweepLeg, error) {
	fp := part.Fingerprint()
	if res, ok := l.r.Cache.Get(fp); ok {
		return service.SweepLeg{
			State:  service.StateDone,
			JobID:  "cache/" + ResultCacheKey(fp),
			Shard:  "cache",
			Result: res,
		}, nil
	}
	return service.SweepLeg{}, nil
}

// Finish drives one leg through runLeg (bounded retries, replica failover,
// the sweep's deadline) and classifies the outcome, degrading rather than
// failing where it can:
//
//   - deadline exhaustion (errLegDeadline) expires the sweep, distinctly
//     from failure — the budget ran out, nothing broke;
//   - a retryable-class exhaustion (every replica down or refusing) is
//     absorbed: the leg folds in Degraded, served from the fleet result
//     cache when a prior terminal result exists, as a marker row otherwise,
//     and the sweep still answers with every row it could gather;
//   - a deterministic failure (a job that ran and failed, a 400) fails the
//     sweep, exactly as on a single daemon (the infeasible-architecture
//     contract).
func (l routedLegs) Finish(part service.Request, _ service.SweepLeg, deadline time.Time) service.SweepLeg {
	r := l.r
	res, ref, err := r.runLeg(context.Background(), part, deadline)
	leg := service.SweepLeg{
		JobID:     ref.JobID,
		Shard:     ref.Shard,
		Coalesced: ref.Coalesced,
	}
	switch {
	case err == nil:
		leg.State = service.StateDone
		leg.Result = res
		r.Cache.Put(ref.Fingerprint, res)
	case errors.Is(err, errLegDeadline):
		leg.State = service.StateExpired
		leg.Error = err.Error()
	case client.Classify(err).Retryable:
		// The replica set is exhausted, not wrong: absorb the leg instead of
		// failing the gathered rows of every healthy shard.
		leg.Degraded = true
		leg.Error = err.Error()
		if cached, ok := r.Cache.Get(part.Fingerprint()); ok {
			// A prior terminal result for this fingerprint: serve the row
			// from the cache tier and the merge stays byte-complete.
			leg.State = service.StateDone
			leg.Result = cached
			leg.Shard = "cache"
		} else {
			leg.State = service.StateFailed
		}
		r.count(func(c *RouterCounters) { c.LegsDegraded++ })
	default:
		leg.State = service.StateFailed
		leg.Error = err.Error()
	}
	return leg
}
