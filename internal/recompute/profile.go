package recompute

import (
	"fmt"
	"math/bits"

	"repro/internal/opgraph"
)

// OpCost gives the execution cost of recomputing one operator: its forward
// latency plus the collective time of Eq 1 for the tensors exchanged between
// adjacent recomputed operators.
type OpCost struct {
	Latency  float64
	CommTime float64
}

// BuildOptions enumerates the recomputation choices of one stage — every
// subset of recomputable operators (the "Type 0/1/2..." strategies of
// Fig 7) — and returns the pareto frontier. `layers` scales per-layer costs
// to the stage; `cost` supplies per-operator recompute latencies and is
// called once per recomputable operator.
func BuildOptions(g *opgraph.LayerGraph, cost func(opgraph.Op) OpCost, layers int) ([]Option, error) {
	ops := g.Ops
	if len(ops) > 16 {
		return nil, fmt.Errorf("recompute: too many operators (%d) for subset enumeration", len(ops))
	}
	if layers <= 0 {
		return nil, fmt.Errorf("recompute: stage has no layers")
	}
	boundary := g.BoundaryBytes()
	// Query each recomputable op's cost once; a subset's extra time sums
	// these in ascending op order, as a per-subset query would.
	recomputable := 0
	opCost := make([]float64, len(ops))
	for i := range ops {
		if ops[i].Recomputable {
			c := cost(ops[i])
			opCost[i] = c.Latency + c.CommTime
			recomputable |= 1 << i
		}
	}
	// Enumerate the subsets of the recomputable ops in ascending mask
	// order: (mask − recomputable) & recomputable is the next one.
	cands := make([]candidate, 0, 1<<bits.OnesCount(uint(recomputable)))
	for mask := 0; ; mask = (mask - recomputable) & recomputable {
		var ckpt, extra float64
		for i := range ops {
			if mask&(1<<i) != 0 {
				extra += opCost[i]
			} else {
				ckpt += ops[i].CheckpointBytes
			}
		}
		cands = append(cands, candidate{
			key:   mask,
			ckpt:  (ckpt + boundary) * float64(layers),
			extra: extra * float64(layers),
		})
		if mask == recomputable {
			break
		}
	}
	front := paretoScan(cands)
	if len(front) == 0 {
		return nil, fmt.Errorf("recompute: empty pareto frontier")
	}
	// Only the survivors get their op lists.
	out := make([]Option, len(front))
	for k, c := range front {
		out[k] = Option{CkptBytesPerMB: c.ckpt, ExtraBwdTime: c.extra}
		if c.key == 0 {
			continue
		}
		recomputed := make([]int, 0, bits.OnesCount(uint(c.key)))
		for rest := uint(c.key); rest != 0; rest &= rest - 1 {
			recomputed = append(recomputed, bits.TrailingZeros(rest))
		}
		out[k].RecomputedOps = recomputed
	}
	return out, nil
}
