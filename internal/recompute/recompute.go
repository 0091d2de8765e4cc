// Package recompute implements the globally coordinated memory-efficient
// recomputation (GCMR) strategy of §IV-B (Alg 2): a dynamic program that
// distributes the wafer's aggregate checkpoint-memory budget across pipeline
// stages so the maximum stage-execution time is minimised, followed by
// Sender/Helper identification for stages whose chosen checkpoint footprint
// exceeds their local DRAM (Mem_pair construction). A naive baseline
// (uniform local-only recomputation, Fig 8a) is provided for ablations.
package recompute

import (
	"fmt"
	"math"
	"sort"
)

// Option is one point on a stage's recomputation pareto frontier: which
// operators to recompute, the per-micro-batch checkpoint bytes retained, and
// the extra backward time incurred.
type Option struct {
	// RecomputedOps lists the recomputed operator indices of the layer
	// graph (empty = full checkpointing, "Type 0" of Fig 7).
	RecomputedOps []int
	// CkptBytesPerMB is the per-die checkpoint footprint of ONE
	// micro-batch across the whole stage (layers × retained ops +
	// boundary).
	CkptBytesPerMB float64
	// ExtraBwdTime is the added per-micro-batch backward time of the
	// whole stage (recompute execution + collectives of recomputed
	// tensors, Eq 1).
	ExtraBwdTime float64
}

// StageProfile is the recomputation search input for one pipeline stage —
// the output of "RecompProfiling" in Alg 2 line 1.
type StageProfile struct {
	// Options is the pareto frontier sorted by descending CkptBytesPerMB
	// and ascending ExtraBwdTime (options[0] = no recomputation). GCMR
	// rejects a stage whose options break this order.
	Options []Option
	// Retained is the 1F1B activation-retention count of the stage.
	Retained int
	// FwdTime and BwdTime are the per-micro-batch stage times without
	// recomputation.
	FwdTime, BwdTime float64
	// ModelPBytes is the stage's aggregate resident model state across
	// its dies.
	ModelPBytes float64
	// LocalBytes is the stage's aggregate DRAM capacity across its dies.
	LocalBytes float64
}

// localCheckpointCapacity returns the stage's DRAM left for checkpoints.
func (p *StageProfile) localCheckpointCapacity() float64 {
	c := p.LocalBytes - p.ModelPBytes
	if c < 0 {
		return 0
	}
	return c
}

// checkFront reports an error naming stage s when the profile breaks the
// input contract GCMR's pruned DP relies on: at least one option, options
// non-increasing in CkptBytesPerMB and non-decreasing in ExtraBwdTime, and
// no negative footprint or retention count.
func (p *StageProfile) checkFront(s int) error {
	opts := p.Options
	if len(opts) == 0 {
		return fmt.Errorf("recompute: stage %d has no options", s)
	}
	if p.Retained < 0 {
		return fmt.Errorf("recompute: stage %d retains %d micro-batches", s, p.Retained)
	}
	for i := 1; i < len(opts); i++ {
		prev, o := &opts[i-1], &opts[i]
		// Negated comparisons, so that a NaN fails too.
		if !(o.CkptBytesPerMB <= prev.CkptBytesPerMB) || !(o.ExtraBwdTime >= prev.ExtraBwdTime) {
			return fmt.Errorf("recompute: stage %d options are not a pareto front in order: option %d (%g B, +%g s) follows option %d (%g B, +%g s)",
				s, i, o.CkptBytesPerMB, o.ExtraBwdTime, i-1, prev.CkptBytesPerMB, prev.ExtraBwdTime)
		}
	}
	if last := opts[len(opts)-1].CkptBytesPerMB; !(last >= 0) {
		return fmt.Errorf("recompute: stage %d has a checkpoint footprint of %g bytes", s, last)
	}
	return nil
}

// ParetoFront filters and sorts options: dominated options (more memory and
// more time) are dropped; the result is sorted by descending memory.
func ParetoFront(opts []Option) []Option {
	cands := make([]candidate, len(opts))
	for i := range opts {
		cands[i] = candidate{key: i, ckpt: opts[i].CkptBytesPerMB, extra: opts[i].ExtraBwdTime}
	}
	front := paretoScan(cands)
	out := make([]Option, len(front))
	for i, c := range front {
		out[i] = opts[c.key]
	}
	return out
}

// candidate is one option reduced to what the pareto scan compares; key
// identifies it to the caller.
type candidate struct {
	key         int
	ckpt, extra float64
}

// paretoScan returns the non-dominated candidates in descending-memory
// order, reusing cands' storage.
func paretoScan(cands []candidate) []candidate {
	// Skyline scan: ascending memory; a candidate survives only if its
	// time beats every candidate that already uses less memory.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].ckpt != cands[j].ckpt {
			return cands[i].ckpt < cands[j].ckpt
		}
		return cands[i].extra < cands[j].extra
	})
	n := 0
	bestTime := math.Inf(1)
	for _, c := range cands {
		if c.extra < bestTime {
			cands[n] = c
			n++
			bestTime = c.extra
		}
	}
	front := cands[:n]
	// Descending-memory order (front[0] = no recomputation).
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		front[i], front[j] = front[j], front[i]
	}
	return front
}

// MemPair records an activation-balancing assignment: the Sender stage
// offloads Bytes of checkpoints to the Helper stage's DRAM (on-wafer, not
// off-wafer — §IV-B).
type MemPair struct {
	Sender, Helper int
	Bytes          float64
}

// Plan is the GCMR output.
type Plan struct {
	// Choice is the selected option index per stage.
	Choice []int
	// StageCkptBytes is the total checkpoint memory chosen per stage
	// (CkptBytesPerMB × retained).
	StageCkptBytes []float64
	// ExtraBwd is the per-micro-batch extra backward time per stage.
	ExtraBwd []float64
	// MaxStageTime is the minimised bottleneck per-micro-batch stage time
	// (F + B + extra).
	MaxStageTime float64
	// Senders and Helpers list stage indices by memory pressure (Alg 2
	// lines 9–12).
	Senders, Helpers []int
	// Pairs is the Mem_pair set.
	Pairs []MemPair
	// OverflowBytes is the total checkpoint volume moved between stages.
	OverflowBytes float64
}

// budgetQuanta controls the DP memory discretisation.
const budgetQuanta = 256

// optionCost is one option's DP inputs: its checkpoint footprint in budget
// quanta and the stage time it yields.
type optionCost struct {
	quanta    int
	stageTime float64
}

// GCMR runs Alg 2: distribute the global checkpoint budget across stages to
// minimise the bottleneck stage time, then pair overflowing Senders with
// spare-capacity Helpers.
//
// Each stage's Options must be a pareto front in the order ParetoFront and
// BuildOptions return it: CkptBytesPerMB non-increasing (and non-negative)
// and ExtraBwdTime non-decreasing. GCMR returns an error naming the first
// stage that breaks the order rather than planning on it.
//
// The DP fills T[t][m], the least bottleneck time of stages t..p−1 given m
// of the budgetQuanta budget quanta, from the last stage backwards. It keeps
// two rolling rows of T and one p×(budgetQuanta+1) choice table, and each
// option's quanta and stage time are computed once. The option scan is
// pruned exactly, so the plan is the one a full scan finds:
//   - Quanta are non-increasing in the option index, so the options that
//     fit m form a suffix; the scan starts at its first option.
//   - Stage times are non-decreasing, so once an option's stage time
//     reaches the best bottleneck found for m, no later option can beat it
//     strictly; the scan stops.
//
// Ties keep the first strict minimum, i.e. the least recomputation. The DP
// costs O(budgetQuanta·Σk) time for k options per stage in the worst case.
// In practice the scan is short: T[t+1] is non-increasing in m, so along
// the scan the tail term falls while the stage time rises, and the scan
// stops just past the option where the two cross.
func GCMR(profiles []StageProfile) (*Plan, error) {
	p := len(profiles)
	if p == 0 {
		return nil, fmt.Errorf("recompute: no stages")
	}
	var totalBudget float64
	nopts := 0
	for s := range profiles {
		prof := &profiles[s]
		if err := prof.checkFront(s); err != nil {
			return nil, err
		}
		totalBudget += prof.localCheckpointCapacity()
		nopts += len(prof.Options)
	}
	// Feasibility: even maximal recomputation must fit the global budget.
	var minNeed float64
	for s := range profiles {
		prof := &profiles[s]
		minOpt := &prof.Options[len(prof.Options)-1]
		minNeed += minOpt.CkptBytesPerMB * float64(prof.Retained)
	}
	if minNeed > totalBudget {
		return nil, fmt.Errorf("recompute: OOM — minimal checkpoints need %.1f GB but wafer provides %.1f GB",
			minNeed/1e9, totalBudget/1e9)
	}

	quantum := totalBudget / budgetQuanta
	if quantum <= 0 {
		return nil, fmt.Errorf("recompute: no checkpoint budget")
	}
	// Per-option quanta and stage time, all stages back to back.
	costs := make([]optionCost, 0, nopts)
	for s := range profiles {
		prof := &profiles[s]
		retained := float64(prof.Retained)
		for i := range prof.Options {
			o := &prof.Options[i]
			// A footprint above the whole budget never fits; clamping it
			// keeps the int conversion in range.
			q := budgetQuanta + 1
			if need := math.Ceil(o.CkptBytesPerMB * retained / quantum); need <= budgetQuanta {
				q = int(need)
			}
			costs = append(costs, optionCost{quanta: q, stageTime: prof.FwdTime + prof.BwdTime + o.ExtraBwdTime})
		}
	}

	// DP from the last stage backwards (Alg 2 lines 2–5). next holds
	// T[t+1] (T[p] = 0) and cur receives T[t].
	const inf = math.MaxFloat64
	const width = budgetQuanta + 1
	rows := make([]float64, 2*width)
	next, cur := rows[:width], rows[width:]
	choice := make([]int32, p*width)
	base := nopts
	for t := p - 1; t >= 0; t-- {
		n := len(profiles[t].Options)
		base -= n
		oc := costs[base : base+n]
		ch := choice[t*width : (t+1)*width]
		lo := n // options lo..n−1 fit the budget m
		for m := 0; m <= budgetQuanta; m++ {
			for lo > 0 && oc[lo-1].quanta <= m {
				lo--
			}
			best := inf
			bestOpt := -1
			for oi := lo; oi < n; oi++ {
				st := oc[oi].stageTime
				if st >= best {
					break
				}
				tail := next[m-oc[oi].quanta]
				if tail >= inf {
					continue
				}
				tmax := st
				if tail > st {
					tmax = tail
				}
				if tmax < best {
					best = tmax
					bestOpt = oi
				}
			}
			cur[m] = best
			ch[m] = int32(bestOpt)
		}
		next, cur = cur, next
	}
	// After the last swap next holds T[0].
	if next[budgetQuanta] >= inf {
		return nil, fmt.Errorf("recompute: no feasible recomputation plan")
	}

	// Extract the per-stage choices (Alg 2 lines 6–8).
	plan := &Plan{
		Choice:         make([]int, p),
		StageCkptBytes: make([]float64, p),
		ExtraBwd:       make([]float64, p),
		MaxStageTime:   next[budgetQuanta],
	}
	m := budgetQuanta
	for t := 0; t < p; t++ {
		prof := &profiles[t]
		oi := int(choice[t*width+m])
		if oi < 0 {
			return nil, fmt.Errorf("recompute: extraction failed at stage %d", t)
		}
		o := &prof.Options[oi]
		plan.Choice[t] = oi
		plan.StageCkptBytes[t] = o.CkptBytesPerMB * float64(prof.Retained)
		plan.ExtraBwd[t] = o.ExtraBwdTime
		m -= costs[base+oi].quanta
		base += len(prof.Options)
	}

	// Sender/Helper identification and pairing (Alg 2 lines 9–14).
	type pressure struct {
		stage int
		delta float64 // positive = overflow, negative = spare
	}
	delta := func(t int) float64 {
		return plan.StageCkptBytes[t] - profiles[t].localCheckpointCapacity()
	}
	ns := 0
	for t := 0; t < p; t++ {
		if delta(t) > 1e-6 {
			ns++
		}
	}
	// Senders fill [0, ns) and helpers [ns, p) of one array each, both
	// in stage order.
	pres := make([]pressure, p)
	order := make([]int, p)
	nextSender, nextHelper := 0, ns
	for t := 0; t < p; t++ {
		i := &nextHelper
		d := delta(t)
		if d > 1e-6 {
			i = &nextSender
		}
		pres[*i], order[*i] = pressure{t, d}, t
		*i++
	}
	senders, helpers := pres[:ns], pres[ns:]
	if ns > 0 {
		plan.Senders = order[:ns:ns]
	}
	if ns < p {
		plan.Helpers = order[ns:]
	}
	sort.Slice(senders, func(i, j int) bool { return senders[i].delta > senders[j].delta })
	sort.Slice(helpers, func(i, j int) bool { return helpers[i].delta < helpers[j].delta }) // most spare first
	hi := 0
	for _, s := range senders {
		remaining := s.delta
		for remaining > 1e-6 && hi < len(helpers) {
			spare := -helpers[hi].delta
			if spare <= 1e-6 {
				hi++
				continue
			}
			take := math.Min(spare, remaining)
			if plan.Pairs == nil {
				plan.Pairs = make([]MemPair, 0, p)
			}
			plan.Pairs = append(plan.Pairs, MemPair{Sender: s.stage, Helper: helpers[hi].stage, Bytes: take})
			plan.OverflowBytes += take
			helpers[hi].delta += take
			remaining -= take
			if -helpers[hi].delta <= 1e-6 {
				hi++
			}
		}
		if remaining > 1e-6 {
			return nil, fmt.Errorf("recompute: sender %d overflow %.1f GB unplaceable", s.stage, remaining/1e9)
		}
	}
	return plan, nil
}

// Naive returns the baseline recomputation plan of Fig 8a: each stage only
// considers its local capacity, picking the cheapest option that fits
// locally (no cross-stage balancing). Stages that cannot fit even full
// recomputation locally return an error (the OOM of Fig 8c).
func Naive(profiles []StageProfile) (*Plan, error) {
	p := len(profiles)
	if p == 0 {
		return nil, fmt.Errorf("recompute: no stages")
	}
	plan := &Plan{
		Choice:         make([]int, p),
		StageCkptBytes: make([]float64, p),
		ExtraBwd:       make([]float64, p),
	}
	for t, prof := range profiles {
		local := prof.localCheckpointCapacity()
		found := false
		for oi, o := range prof.Options {
			if o.CkptBytesPerMB*float64(prof.Retained) <= local {
				plan.Choice[t] = oi
				plan.StageCkptBytes[t] = o.CkptBytesPerMB * float64(prof.Retained)
				plan.ExtraBwd[t] = o.ExtraBwdTime
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("recompute: naive plan OOM at stage %d", t)
		}
		st := prof.FwdTime + prof.BwdTime + plan.ExtraBwd[t]
		if st > plan.MaxStageTime {
			plan.MaxStageTime = st
		}
		plan.Helpers = append(plan.Helpers, t)
	}
	return plan, nil
}
