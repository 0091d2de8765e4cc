package recompute

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/opgraph"
)

// makeProfile builds a synthetic stage with a three-point frontier:
// no recompute (10 GB, +0 s), partial (6 GB, +0.1 s), full (2 GB, +0.3 s).
func makeProfile(retained int, localGB float64) StageProfile {
	return StageProfile{
		Options: []Option{
			{CkptBytesPerMB: 10e9, ExtraBwdTime: 0},
			{CkptBytesPerMB: 6e9, ExtraBwdTime: 0.1},
			{CkptBytesPerMB: 2e9, ExtraBwdTime: 0.3},
		},
		Retained:    retained,
		FwdTime:     1.0,
		BwdTime:     2.0,
		ModelPBytes: 10e9,
		LocalBytes:  localGB*1e9 + 10e9,
	}
}

func TestParetoFrontDropsDominated(t *testing.T) {
	opts := []Option{
		{CkptBytesPerMB: 10, ExtraBwdTime: 0},
		{CkptBytesPerMB: 8, ExtraBwdTime: 0.5},
		{CkptBytesPerMB: 9, ExtraBwdTime: 0.7}, // dominated by both neighbours
		{CkptBytesPerMB: 2, ExtraBwdTime: 1.0},
	}
	front := ParetoFront(opts)
	if len(front) != 3 {
		t.Fatalf("frontier size = %d, want 3 (%+v)", len(front), front)
	}
	for i := 1; i < len(front); i++ {
		if front[i].CkptBytesPerMB >= front[i-1].CkptBytesPerMB {
			t.Error("frontier not sorted by descending memory")
		}
		if front[i].ExtraBwdTime <= front[i-1].ExtraBwdTime {
			t.Error("frontier times should increase as memory decreases")
		}
	}
}

func TestGCMRNoRecomputeWhenMemoryAmple(t *testing.T) {
	// Plenty of memory everywhere: GCMR should checkpoint everything.
	profiles := []StageProfile{makeProfile(4, 100), makeProfile(3, 100), makeProfile(2, 100)}
	plan, err := GCMR(profiles)
	if err != nil {
		t.Fatal(err)
	}
	for s, c := range plan.Choice {
		if c != 0 {
			t.Errorf("stage %d chose option %d, want 0 (no recompute)", s, c)
		}
	}
	if plan.MaxStageTime != 3.0 {
		t.Errorf("max stage time = %v, want 3.0", plan.MaxStageTime)
	}
	if len(plan.Pairs) != 0 {
		t.Errorf("no pairs expected, got %v", plan.Pairs)
	}
}

func TestGCMRRecomputesUnderPressure(t *testing.T) {
	// Total need without recompute: (4+3+2)×10 GB = 90 GB; give 60 GB
	// globally so some recomputation is forced.
	profiles := []StageProfile{makeProfile(4, 20), makeProfile(3, 20), makeProfile(2, 20)}
	plan, err := GCMR(profiles)
	if err != nil {
		t.Fatal(err)
	}
	recomputed := 0
	for _, c := range plan.Choice {
		if c > 0 {
			recomputed++
		}
	}
	if recomputed == 0 {
		t.Fatal("expected some recomputation under memory pressure")
	}
	// Global budget respected.
	var used, budget float64
	for s := range profiles {
		used += plan.StageCkptBytes[s]
		budget += profiles[s].localCheckpointCapacity()
	}
	if used > budget+1e-6 {
		t.Errorf("plan uses %.1f GB, budget %.1f GB", used/1e9, budget/1e9)
	}
}

func TestGCMRBalancesAcrossStages(t *testing.T) {
	// Stage 0 retains 4 micro-batches and would overflow its local DRAM;
	// stage 2 has spare capacity. GCMR should produce Sender/Helper pairs
	// rather than forcing stage 0 into maximal recomputation.
	profiles := []StageProfile{makeProfile(4, 25), makeProfile(3, 25), makeProfile(1, 40)}
	plan, err := GCMR(profiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Senders) == 0 {
		t.Fatal("expected at least one sender (stage 0 overflows locally)")
	}
	if plan.OverflowBytes <= 0 {
		t.Fatal("expected checkpoint overflow to helpers")
	}
	for _, pr := range plan.Pairs {
		if pr.Sender == pr.Helper {
			t.Error("sender paired with itself")
		}
		if pr.Bytes <= 0 {
			t.Error("non-positive pair volume")
		}
	}
}

func TestGCMRBeatsNaiveOnBottleneck(t *testing.T) {
	// Naive forces stage 0 (high retention, small local DRAM) into heavy
	// recomputation; GCMR offloads to stage 2 and keeps the bottleneck low
	// (Fig 8b vs 8a).
	profiles := []StageProfile{makeProfile(4, 25), makeProfile(3, 25), makeProfile(1, 40)}
	g, err := GCMR(profiles)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Naive(profiles)
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxStageTime > n.MaxStageTime {
		t.Errorf("GCMR bottleneck (%v) should not exceed naive (%v)", g.MaxStageTime, n.MaxStageTime)
	}
}

func TestNaiveOOM(t *testing.T) {
	// Even full recompute (2 GB/mb × 4 retained = 8 GB) cannot fit 5 GB
	// local capacity → naive fails where GCMR could balance.
	tight := []StageProfile{makeProfile(4, 5), makeProfile(1, 60)}
	if _, err := Naive(tight); err == nil {
		t.Fatal("naive should OOM on the tight stage")
	}
	if _, err := GCMR(tight); err != nil {
		t.Fatalf("GCMR should balance instead of OOM: %v", err)
	}
}

func TestGCMRGlobalOOM(t *testing.T) {
	profiles := []StageProfile{makeProfile(4, 1), makeProfile(3, 1)}
	if _, err := GCMR(profiles); err == nil {
		t.Fatal("expected global OOM when even full recompute cannot fit")
	}
}

func TestGCMREmptyInput(t *testing.T) {
	if _, err := GCMR(nil); err == nil {
		t.Error("empty profiles should fail")
	}
	if _, err := Naive(nil); err == nil {
		t.Error("empty profiles should fail")
	}
}

func TestBuildOptionsFrontier(t *testing.T) {
	g, err := opgraph.Build(model.Llama2_30B(), 4, 1, 2048)
	if err != nil {
		t.Fatal(err)
	}
	cost := func(op opgraph.Op) OpCost {
		return OpCost{Latency: op.RecomputeFLOPs() / 1e15, CommTime: op.AllReduceBytes / 4e12}
	}
	opts, err := BuildOptions(g, cost, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(opts) < 3 {
		t.Fatalf("frontier too small: %d", len(opts))
	}
	// First option: no recomputation, max memory, zero extra time.
	if len(opts[0].RecomputedOps) != 0 || opts[0].ExtraBwdTime != 0 {
		t.Errorf("first option should be full checkpointing, got %+v", opts[0])
	}
	// Last option: everything recomputable recomputed; memory = boundary.
	last := opts[len(opts)-1]
	wantMin := g.BoundaryBytes() * 10
	if math.Abs(last.CkptBytesPerMB-wantMin)/wantMin > 1e-9 {
		t.Errorf("minimal footprint = %g, want boundary-only %g", last.CkptBytesPerMB, wantMin)
	}
	// Frontier is monotone.
	for i := 1; i < len(opts); i++ {
		if opts[i].CkptBytesPerMB >= opts[i-1].CkptBytesPerMB || opts[i].ExtraBwdTime <= opts[i-1].ExtraBwdTime {
			t.Fatalf("frontier not monotone at %d", i)
		}
	}
}

func TestBuildOptionsRejectsBadInput(t *testing.T) {
	g, _ := opgraph.Build(model.Llama2_30B(), 2, 1, 1024)
	if _, err := BuildOptions(g, func(opgraph.Op) OpCost { return OpCost{} }, 0); err == nil {
		t.Error("zero layers should fail")
	}
}

func TestGCMRBudgetRespectedProperty(t *testing.T) {
	f := func(l0, l1, l2 uint8) bool {
		profiles := []StageProfile{
			makeProfile(4, float64(l0%40)+9),
			makeProfile(3, float64(l1%40)+7),
			makeProfile(2, float64(l2%40)+5),
		}
		plan, err := GCMR(profiles)
		if err != nil {
			return true // OOM is legal for tiny budgets
		}
		var used, budget float64
		for s := range profiles {
			used += plan.StageCkptBytes[s]
			budget += profiles[s].localCheckpointCapacity()
		}
		if used > budget+1e-3 {
			return false
		}
		// All pair volumes must be covered by helpers' spare capacity.
		spare := map[int]float64{}
		for _, h := range plan.Helpers {
			spare[h] = profiles[h].localCheckpointCapacity() - plan.StageCkptBytes[h]
		}
		for _, pr := range plan.Pairs {
			spare[pr.Helper] -= pr.Bytes
		}
		for h, s := range spare {
			if s < -1e-3 {
				_ = h
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// gcmrReference is the unpruned GCMR DP the pruned one must reproduce bit
// for bit: a full option scan per (stage, budget), a table per stage and
// math.Max. Only the DP table is split out into referenceDP, so that
// properties of T can be checked through it.
func gcmrReference(profiles []StageProfile) (*Plan, error) {
	p := len(profiles)
	if p == 0 {
		return nil, fmt.Errorf("recompute: no stages")
	}
	var totalBudget float64
	for s, prof := range profiles {
		if len(prof.Options) == 0 {
			return nil, fmt.Errorf("recompute: stage %d has no options", s)
		}
		totalBudget += prof.localCheckpointCapacity()
	}
	// Feasibility: even maximal recomputation must fit the global budget.
	var minNeed float64
	for _, prof := range profiles {
		minOpt := prof.Options[len(prof.Options)-1]
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
	T, choice := referenceDP(profiles, quantum)
	if T[0][budgetQuanta] >= math.MaxFloat64 {
		return nil, fmt.Errorf("recompute: no feasible recomputation plan")
	}

	// Extract the per-stage choices (Alg 2 lines 6–8).
	plan := &Plan{
		Choice:         make([]int, p),
		StageCkptBytes: make([]float64, p),
		ExtraBwd:       make([]float64, p),
		MaxStageTime:   T[0][budgetQuanta],
	}
	m := budgetQuanta
	for t := 0; t < p; t++ {
		oi := choice[t][m]
		if oi < 0 {
			return nil, fmt.Errorf("recompute: extraction failed at stage %d", t)
		}
		o := profiles[t].Options[oi]
		plan.Choice[t] = oi
		plan.StageCkptBytes[t] = o.CkptBytesPerMB * float64(profiles[t].Retained)
		plan.ExtraBwd[t] = o.ExtraBwdTime
		m -= referenceNeed(o, profiles[t], quantum)
	}

	// Sender/Helper identification and pairing (Alg 2 lines 9–14).
	type pressure struct {
		stage int
		delta float64 // positive = overflow, negative = spare
	}
	var senders, helpers []pressure
	for t := 0; t < p; t++ {
		delta := plan.StageCkptBytes[t] - profiles[t].localCheckpointCapacity()
		if delta > 1e-6 {
			senders = append(senders, pressure{t, delta})
			plan.Senders = append(plan.Senders, t)
		} else {
			helpers = append(helpers, pressure{t, delta})
			plan.Helpers = append(plan.Helpers, t)
		}
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

// referenceNeed is an option's footprint in budget quanta.
func referenceNeed(o Option, prof StageProfile, quantum float64) int {
	return int(math.Ceil(o.CkptBytesPerMB * float64(prof.Retained) / quantum))
}

// referenceDP fills the full GCMR table: T[t][m] is the minimal achievable
// bottleneck time for stages t..p−1 given m quanta of budget, and
// choice[t][m] the option that achieves it (−1 if none does).
func referenceDP(profiles []StageProfile, quantum float64) ([][]float64, [][]int) {
	p := len(profiles)
	need := func(o Option, prof StageProfile) int {
		return referenceNeed(o, prof, quantum)
	}
	stageTime := func(prof StageProfile, o Option) float64 {
		return prof.FwdTime + prof.BwdTime + o.ExtraBwdTime
	}

	// DP from the last stage backwards (Alg 2 lines 2–5):
	// T[t][m] = minimal achievable bottleneck time for stages t..p−1 given
	// m quanta of budget.
	const inf = math.MaxFloat64
	T := make([][]float64, p+1)
	choice := make([][]int, p)
	for t := range T {
		T[t] = make([]float64, budgetQuanta+1)
	}
	for m := 0; m <= budgetQuanta; m++ {
		T[p][m] = 0
	}
	for t := p - 1; t >= 0; t-- {
		choice[t] = make([]int, budgetQuanta+1)
		for m := 0; m <= budgetQuanta; m++ {
			best := inf
			bestOpt := -1
			for oi, o := range profiles[t].Options {
				q := need(o, profiles[t])
				if q > m {
					continue
				}
				tail := T[t+1][m-q]
				if tail >= inf {
					continue
				}
				tmax := math.Max(tail, stageTime(profiles[t], o))
				// Tie-break toward less recomputation (options are
				// sorted by descending memory, ascending time).
				if tmax < best {
					best = tmax
					bestOpt = oi
				}
			}
			T[t][m] = best
			choice[t][m] = bestOpt
		}
	}
	return T, choice
}

// randomProfiles draws p stages of 1..maxOpts options each. Footprints and
// times are coarse, so quanta, stage times and DP values often tie. The
// global budget is drawn between 0.9× the minimal and 1.1× the maximal
// checkpoint need, from OOM to ample.
func randomProfiles(rng *rand.Rand, p, maxOpts int) []StageProfile {
	profiles := make([]StageProfile, p)
	var minNeed, maxNeed float64
	for s := range profiles {
		k := 1 + rng.Intn(maxOpts)
		ckpt := make([]float64, k)
		extra := make([]float64, k)
		for i := range ckpt {
			ckpt[i] = float64(1+rng.Intn(40)) * 1e9
			extra[i] = float64(rng.Intn(20)) / 10
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(ckpt)))
		sort.Float64s(extra)
		opts := make([]Option, k)
		for i := range opts {
			opts[i] = Option{CkptBytesPerMB: ckpt[i], ExtraBwdTime: extra[i]}
		}
		fwd := float64(1 + rng.Intn(4))
		profiles[s] = StageProfile{
			Options:  opts,
			Retained: rng.Intn(9),
			FwdTime:  fwd,
			BwdTime:  2 * fwd,
		}
		minNeed += ckpt[k-1] * float64(profiles[s].Retained)
		maxNeed += ckpt[0] * float64(profiles[s].Retained)
	}
	budget := 0.9*minNeed + rng.Float64()*(1.1*maxNeed-0.9*minNeed)
	weights := make([]float64, p)
	var sum float64
	for s := range weights {
		weights[s] = rng.Float64()
		sum += weights[s]
	}
	for s := range profiles {
		profiles[s].ModelPBytes = 10e9
		profiles[s].LocalBytes = 10e9 + budget*weights[s]/sum
	}
	return profiles
}

// checkGCMRMatchesReference fails t unless GCMR and gcmrReference agree on
// profiles: the same error text, or deeply equal plans with a bit-equal
// bottleneck time.
func checkGCMRMatchesReference(t testing.TB, profiles []StageProfile) {
	t.Helper()
	got, err := GCMR(profiles)
	want, werr := gcmrReference(profiles)
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("GCMR error %v, reference error %v (profiles %+v)", err, werr, profiles)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, want) || math.Float64bits(got.MaxStageTime) != math.Float64bits(want.MaxStageTime) {
		t.Fatalf("GCMR plan differs from the reference\n got %+v\nwant %+v\nprofiles %+v", got, want, profiles)
	}
}

func TestGCMRMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for p := 1; p <= 12; p++ {
		for i := 0; i < 60; i++ {
			checkGCMRMatchesReference(t, randomProfiles(rng, p, 16))
		}
	}
}

// TestGCMRMatchesBruteForce checks the DP's optimum against every option
// tuple whose summed quanta fit the budget.
func TestGCMRMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for p := 1; p <= 4; p++ {
		for i := 0; i < 40; i++ {
			profiles := randomProfiles(rng, p, 16)
			var totalBudget float64
			for s := range profiles {
				totalBudget += profiles[s].localCheckpointCapacity()
			}
			quantum := totalBudget / budgetQuanta
			best := math.Inf(1)
			tuple := make([]int, p)
			var walk func(s, used int, bottleneck float64)
			walk = func(s, used int, bottleneck float64) {
				if used > budgetQuanta {
					return
				}
				if s == p {
					best = math.Min(best, bottleneck)
					return
				}
				for oi, o := range profiles[s].Options {
					tuple[s] = oi
					st := profiles[s].FwdTime + profiles[s].BwdTime + o.ExtraBwdTime
					walk(s+1, used+referenceNeed(o, profiles[s], quantum), math.Max(bottleneck, st))
				}
			}
			if quantum > 0 {
				walk(0, 0, 0)
			}
			plan, err := GCMR(profiles)
			if feasible := !math.IsInf(best, 1); feasible != (err == nil) {
				t.Fatalf("brute force feasible=%v, GCMR error %v (profiles %+v)", feasible, err, profiles)
			}
			if err == nil && plan.MaxStageTime != best {
				t.Fatalf("GCMR bottleneck %v, brute force %v (profiles %+v)", plan.MaxStageTime, best, profiles)
			}
		}
	}
}

// TestGCMRTableMonotoneProperty checks the invariant the DP's pruning
// argument leans on: more budget never makes a stage suffix slower, i.e.
// T[t][m] is non-increasing in m.
func TestGCMRTableMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		profiles := randomProfiles(rng, 1+rng.Intn(12), 16)
		var totalBudget float64
		for s := range profiles {
			totalBudget += profiles[s].localCheckpointCapacity()
		}
		if totalBudget <= 0 {
			continue
		}
		T, _ := referenceDP(profiles, totalBudget/budgetQuanta)
		for st, row := range T {
			for m := 1; m < len(row); m++ {
				if row[m] > row[m-1] {
					t.Fatalf("T[%d][%d] = %v > T[%d][%d] = %v", st, m, row[m], st, m-1, row[m-1])
				}
			}
		}
	}
}

// reshuffleDuplicates returns a copy of profiles in which every run of
// options with equal CkptBytesPerMB and ExtraBwdTime is re-emitted with a
// random length of 1..3 copies in a random order. Each copy carries a
// distinct RecomputedOps tag, so the copies are told apart only by what
// GCMR must ignore. The result is still a pareto front in order.
func reshuffleDuplicates(rng *rand.Rand, profiles []StageProfile) []StageProfile {
	out := make([]StageProfile, len(profiles))
	tag := 0
	for s, prof := range profiles {
		out[s] = prof
		out[s].Options = nil
		opts := prof.Options
		for i := 0; i < len(opts); {
			j := i + 1
			for j < len(opts) && opts[j].CkptBytesPerMB == opts[i].CkptBytesPerMB && opts[j].ExtraBwdTime == opts[i].ExtraBwdTime {
				j++
			}
			run := make([]Option, 1+rng.Intn(3))
			for k := range run {
				tag++
				run[k] = Option{RecomputedOps: []int{tag}, CkptBytesPerMB: opts[i].CkptBytesPerMB, ExtraBwdTime: opts[i].ExtraBwdTime}
			}
			rng.Shuffle(len(run), func(a, b int) { run[a], run[b] = run[b], run[a] })
			out[s].Options = append(out[s].Options, run...)
			i = j
		}
	}
	return out
}

// TestGCMRDuplicateOptionOrderProperty pins GCMR's tie order: how many
// exact duplicates of an option a stage lists, and in which order, must not
// change the plan. The bottleneck time is bit-equal, every stage chooses an
// option with the same footprint and extra time, and the per-stage totals,
// Senders, Helpers and Pairs are identical; only the Choice indices may
// differ.
func TestGCMRDuplicateOptionOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 300; i++ {
		profiles := randomProfiles(rng, 1+rng.Intn(12), 16)
		variant := reshuffleDuplicates(rng, profiles)
		want, werr := GCMR(profiles)
		got, err := GCMR(variant)
		if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
			t.Fatalf("case %d: error %v with reshuffled duplicates, %v without", i, err, werr)
		}
		if err != nil {
			continue
		}
		if math.Float64bits(got.MaxStageTime) != math.Float64bits(want.MaxStageTime) {
			t.Fatalf("case %d: bottleneck %x with reshuffled duplicates, %x without", i, got.MaxStageTime, want.MaxStageTime)
		}
		for st := range profiles {
			g, w := variant[st].Options[got.Choice[st]], profiles[st].Options[want.Choice[st]]
			if g.CkptBytesPerMB != w.CkptBytesPerMB || g.ExtraBwdTime != w.ExtraBwdTime {
				t.Fatalf("case %d stage %d: chose %+v with reshuffled duplicates, %+v without", i, st, g, w)
			}
		}
		gotRest, wantRest := *got, *want
		gotRest.Choice, wantRest.Choice = nil, nil
		if !reflect.DeepEqual(gotRest, wantRest) {
			t.Fatalf("case %d: plan %+v with reshuffled duplicates, %+v without", i, gotRest, wantRest)
		}
	}
}

func TestGCMRRejectsUnorderedOptions(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mutate  func(*StageProfile)
		wantErr string
	}{
		{"ascending memory", func(p *StageProfile) { p.Options[1].CkptBytesPerMB = 12e9 }, "stage 1 options are not a pareto front"},
		{"descending time", func(p *StageProfile) { p.Options[2].ExtraBwdTime = 0.05 }, "stage 1 options are not a pareto front"},
		{"NaN memory", func(p *StageProfile) { p.Options[1].CkptBytesPerMB = math.NaN() }, "stage 1 options are not a pareto front"},
		{"NaN time", func(p *StageProfile) { p.Options[2].ExtraBwdTime = math.NaN() }, "stage 1 options are not a pareto front"},
		{"negative memory", func(p *StageProfile) { p.Options[2].CkptBytesPerMB = -1 }, "stage 1 has a checkpoint footprint of -1"},
		{"negative retention", func(p *StageProfile) { p.Retained = -1 }, "stage 1 retains -1"},
		{"no options", func(p *StageProfile) { p.Options = nil }, "stage 1 has no options"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			profiles := []StageProfile{makeProfile(4, 20), makeProfile(3, 20), makeProfile(2, 20)}
			tc.mutate(&profiles[1])
			_, err := GCMR(profiles)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("GCMR error %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
	// Equal neighbours are still a valid (non-strict) front.
	profiles := []StageProfile{makeProfile(4, 20), makeProfile(3, 20)}
	profiles[1].Options[1] = profiles[1].Options[0]
	checkGCMRMatchesReference(t, profiles)
}

// decodeProfiles turns fuzz bytes into a GCMR input. Per stage it reads
// the option count, retention, forward and backward time, resident model
// GB, spare GB and then the options' checkpoint GB and extra time in
// tenths of a second. Checkpoint sizes are sorted descending and times
// ascending, so every stage is a pareto front (ties included). Missing
// bytes read as zero.
func decodeProfiles(data []byte) []StageProfile {
	next := func() float64 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return float64(b)
	}
	profiles := make([]StageProfile, 1+int(next())%12)
	for s := range profiles {
		k := 1 + int(next())%16
		prof := &profiles[s]
		prof.Retained = int(next()) % 16
		prof.FwdTime = next()
		prof.BwdTime = next()
		prof.ModelPBytes = next() * 1e9
		prof.LocalBytes = next()*1e9 + prof.ModelPBytes
		ckpt := make([]float64, k)
		extra := make([]float64, k)
		for i := range ckpt {
			ckpt[i] = next() * 1e9
		}
		for i := range extra {
			extra[i] = next() / 10
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(ckpt)))
		sort.Float64s(extra)
		prof.Options = make([]Option, k)
		for i := range prof.Options {
			prof.Options[i] = Option{CkptBytesPerMB: ckpt[i], ExtraBwdTime: extra[i]}
		}
	}
	return profiles
}

// makeProfileBytes encodes makeProfile(retained, localGB) for
// decodeProfiles.
func makeProfileBytes(retained, localGB byte) []byte {
	return []byte{2, retained, 1, 2, 10, localGB, 10, 6, 2, 0, 1, 3}
}

func FuzzGCMR(f *testing.F) {
	for _, stages := range [][][2]byte{
		{{4, 100}, {3, 100}, {2, 100}},
		{{4, 20}, {3, 20}, {2, 20}},
		{{4, 25}, {3, 25}, {1, 40}},
		{{4, 5}, {1, 60}},
		{{4, 1}, {3, 1}},
	} {
		seed := []byte{byte(len(stages) - 1)}
		want := make([]StageProfile, len(stages))
		for s, c := range stages {
			seed = append(seed, makeProfileBytes(c[0], c[1])...)
			want[s] = makeProfile(int(c[0]), float64(c[1]))
		}
		if got := decodeProfiles(seed); !reflect.DeepEqual(got, want) {
			f.Fatalf("seed decodes to %+v, want %+v", got, want)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkGCMRMatchesReference(t, decodeProfiles(data))
	})
}

// pressuredProfiles builds pp stages from Llama2-30B's layer graph at TP=4
// with 1F1B retention, and gives the wafer 60% of the checkpoint memory
// that full checkpointing needs, so GCMR must trade recomputation across
// stages and pair senders with helpers.
func pressuredProfiles(tb testing.TB, pp int) []StageProfile {
	tb.Helper()
	g, err := opgraph.Build(model.Llama2_30B(), 4, 1, 2048)
	if err != nil {
		tb.Fatal(err)
	}
	cost := func(op opgraph.Op) OpCost {
		return OpCost{Latency: op.RecomputeFLOPs() / 1e15, CommTime: op.AllReduceBytes / 4e12}
	}
	opts, err := BuildOptions(g, cost, 4)
	if err != nil {
		tb.Fatal(err)
	}
	profiles := make([]StageProfile, pp)
	var need float64
	for s := range profiles {
		profiles[s] = StageProfile{Options: opts, Retained: pp - s, FwdTime: 0.01, BwdTime: 0.02, ModelPBytes: 40e9}
		need += opts[0].CkptBytesPerMB * float64(pp-s)
	}
	for s := range profiles {
		profiles[s].LocalBytes = 40e9 + 0.6*need/float64(pp)
	}
	return profiles
}

func TestGCMRAllocs(t *testing.T) {
	profiles := pressuredProfiles(t, 16)
	plan, err := GCMR(profiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Pairs) == 0 {
		t.Fatal("expected sender/helper pairs under memory pressure")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := GCMR(profiles); err != nil {
			t.Fatal(err)
		}
	})
	// The plan and its three per-stage slices, the Senders/Helpers array,
	// the Pairs array, the pressure array, the three DP scratch tables
	// (option costs, two T rows, choice) and three per sort.Slice call —
	// independent of the stage count.
	const maxAllocs = 4 + 1 + 1 + 1 + 3 + 2*3
	if allocs > maxAllocs {
		t.Fatalf("GCMR allocs/op = %v, want <= %d", allocs, maxAllocs)
	}
}

func BenchmarkGCMR(b *testing.B) {
	profiles := pressuredProfiles(b, 16)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := GCMR(profiles); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGCMRReference(b *testing.B) {
	profiles := pressuredProfiles(b, 16)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := gcmrReference(profiles); err != nil {
			b.Fatal(err)
		}
	}
}
