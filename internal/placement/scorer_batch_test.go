package placement

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mesh"
	"repro/internal/recompute"
)

// batchWorkload builds the randomized cross-check workload of
// TestScorerMatchesFullEval: pipeline volumes with a zero tail edge, plus
// pairs including degenerate and out-of-range entries.
func batchWorkload(rng *rand.Rand, pp int) Workload {
	pipe := make([]float64, pp-1)
	for i := range pipe {
		pipe[i] = rng.Float64() * 4e9
	}
	if len(pipe) > 1 {
		pipe[len(pipe)-1] = 0
	}
	w := Workload{PipelineBytes: pipe}
	npairs := 2 + rng.Intn(6)
	for i := 0; i < npairs; i++ {
		w.Pairs = append(w.Pairs, memPair(rng.Intn(pp), rng.Intn(pp), rng.Float64()*3e9))
	}
	w.Pairs = append(w.Pairs,
		memPair(0, pp, 1e9), // out of range: skipped
		memPair(-1, 0, 1e9), // out of range: skipped
		memPair(1, 1, 1e9),  // degenerate: zero-length path
	)
	return w
}

// TestScorerBatchMatchesSwapDelta is the randomized bit-identity contract
// of the swap kernel: every Eval must equal — exact float bits — what
// SwapDelta returns from the same committed state, on both the square and
// mesh-switch topologies, with several (possibly repeated) candidates per
// round and commits advancing the state between rounds (the invalidation
// lifecycle the annealer relies on).
func TestScorerBatchMatchesSwapDelta(t *testing.T) {
	totalRounds := 0
	for _, tc := range scorerTopologies() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			base, err := Partition(tc.m, tc.tp, tc.pp)
			if err != nil {
				t.Fatal(err)
			}
			anchors := make([]mesh.DieID, tc.pp)
			for i := range base {
				anchors[i] = base[i].Anchor()
			}
			for trial := 0; trial < 3; trial++ {
				w := batchWorkload(rng, tc.pp)
				// sc carries the committed state the kernel evaluates
				// against; ref is an independent scalar mirror.
				sc := NewScorer(tc.m, anchors, w)
				ref := NewScorer(tc.m, anchors, w)
				kernel := NewScorerBatch(sc)
				cand := make([][2]int, 0, 8)
				for r := 0; r < 150; r++ {
					cand = cand[:0]
					k := 1 + rng.Intn(8)
					for len(cand) < k {
						x, y := rng.Intn(tc.pp), rng.Intn(tc.pp)
						if x == y {
							continue
						}
						cand = append(cand, [2]int{x, y})
					}
					for j, c := range cand {
						got := kernel.Eval(c[0], c[1])
						want, _ := ref.SwapDelta(c[0], c[1])
						ref.Revert()
						if got != want {
							t.Fatalf("trial %d round %d cand %d (%d,%d): Eval = %x, scalar SwapDelta = %x",
								trial, r, j, c[0], c[1], math.Float64bits(got), math.Float64bits(want))
						}
					}
					totalRounds++
					// Commit a random candidate every few rounds: the new
					// committed state supersedes every earlier evaluation,
					// and the next Eval must re-sync bit-exactly.
					if rng.Intn(3) == 0 {
						c := cand[rng.Intn(k)]
						got := kernel.Commit(c[0], c[1])
						want, _ := ref.SwapDelta(c[0], c[1])
						ref.Apply()
						if got != want {
							t.Fatalf("trial %d round %d: commit = %x, scalar = %x",
								trial, r, math.Float64bits(got), math.Float64bits(want))
						}
					}
				}
				if sc.Cost() != ref.Cost() {
					t.Fatalf("trial %d: committed cost drifted: %x vs %x",
						trial, math.Float64bits(sc.Cost()), math.Float64bits(ref.Cost()))
				}
			}
		})
	}
	if totalRounds < 1000 {
		t.Fatalf("cross-check covered %d rounds, want ≥1000", totalRounds)
	}
}

// TestScorerBatchAfterReset pins the re-targeting lifecycle: resetting the
// underlying Scorer to a new assignment and workload must re-sync the
// kernel's base, with candidate costs again bit-identical to SwapDelta.
func TestScorerBatchAfterReset(t *testing.T) {
	m := scorerTopologies()[0].m
	rng := rand.New(rand.NewSource(5))
	sc := NewScorer(m, nil, Workload{})
	kernel := NewScorerBatch(sc)
	for trial := 0; trial < 40; trial++ {
		pp := 2 + rng.Intn(12)
		tp := 1 + rng.Intn(56/pp)
		base, err := Partition(m, tp, pp)
		if err != nil {
			t.Fatal(err)
		}
		anchors := make([]mesh.DieID, pp)
		perm := rng.Perm(pp)
		for i := range anchors {
			anchors[i] = base[perm[i]].Anchor()
		}
		w := batchWorkload(rng, pp)
		sc.Reset(anchors, w)
		ref := NewScorer(m, anchors, w)
		for j := 0; j < 4; {
			x, y := rng.Intn(pp), rng.Intn(pp)
			if x == y {
				continue
			}
			got := kernel.Eval(x, y)
			want, _ := ref.SwapDelta(x, y)
			ref.Revert()
			if got != want {
				t.Fatalf("trial %d cand %d: Eval = %x, scalar = %x",
					trial, j, math.Float64bits(got), math.Float64bits(want))
			}
			j++
		}
	}
}

// TestScorerBatchDiscipline pins the protocol guards.
func TestScorerBatchDiscipline(t *testing.T) {
	tc := scorerTopologies()[0]
	base, _ := Partition(tc.m, tc.tp, tc.pp)
	anchors := make([]mesh.DieID, tc.pp)
	for i := range base {
		anchors[i] = base[i].Anchor()
	}
	sc := NewScorer(tc.m, anchors, fig11Workload())
	kernel := NewScorerBatch(sc)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s should panic", name)
			}
		}()
		fn()
	}
	mustPanic("degenerate eval", func() { kernel.Eval(3, 3) })
	mustPanic("degenerate commit", func() { kernel.Commit(3, 3) })
	sc.SwapDelta(0, 1)
	mustPanic("eval with pending scalar swap", func() { kernel.Eval(0, 1) })
	mustPanic("commit with pending scalar swap", func() { kernel.Commit(2, 3) })
	sc.Revert()
}

// optimizeScalar is the trajectory reference of Optimize: the same anneal
// scored by the scalar SwapDelta, with Apply on acceptance and Revert
// otherwise.
func optimizeScalar(m *mesh.Mesh, tp, pp int, w Workload, rng *rand.Rand) (*Placement, error) {
	base, err := Partition(m, tp, pp)
	if err != nil {
		return nil, err
	}
	anchors := make([]mesh.DieID, pp)
	perm := make([]int, pp)
	for i := range base {
		anchors[i] = base[i].Anchor()
		perm[i] = i
	}
	sc := NewScorer(m, anchors, w)
	curCost := sc.Cost()
	bestPerm := append([]int(nil), perm...)
	bestCost := curCost
	temp := curCost * 0.1
	if temp <= 0 {
		temp = 1
	}
	for i := 0; pp > 1 && i < 200*pp; i++ {
		a, b := rng.Intn(pp), rng.Intn(pp)
		if a == b {
			continue
		}
		perm[a], perm[b] = perm[b], perm[a]
		c, _ := sc.SwapDelta(a, b)
		if c <= curCost || rng.Float64() < math.Exp((curCost-c)/math.Max(temp, 1e-12)) {
			sc.Apply()
			curCost = c
			if c < bestCost {
				bestCost = c
				copy(bestPerm, perm)
			}
		} else {
			perm[a], perm[b] = perm[b], perm[a]
			sc.Revert()
		}
		temp *= 0.995
	}
	regions := make([]Region, pp)
	for s, r := range bestPerm {
		regions[s] = base[r]
	}
	return &Placement{Regions: regions}, nil
}

// TestOptimizeSpeculativeMatchesScalar pins the annealer's trajectory: across
// seeds and topologies, Optimize must return the placement of the scalar
// reference loop and leave the generator in the same state — every
// proposal, Metropolis decision and RNG draw is reproduced exactly.
func TestOptimizeSpeculativeMatchesScalar(t *testing.T) {
	for _, tc := range scorerTopologies() {
		t.Run(tc.name, func(t *testing.T) {
			pipe := make([]float64, tc.pp)
			for i := range pipe {
				pipe[i] = 1e9
			}
			w := Workload{
				PipelineBytes: pipe,
				Pairs: []recompute.MemPair{
					memPair(0, tc.pp-1, 2e9),
					memPair(1, tc.pp-2, 2e9),
					memPair(2, 2, 5e8),
				},
			}
			for seed := int64(1); seed <= 5; seed++ {
				refRng := rand.New(rand.NewSource(seed))
				scalar, err := optimizeScalar(tc.m, tc.tp, tc.pp, w, refRng)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				got, err := Optimize(tc.m, tc.tp, tc.pp, w, rng)
				if err != nil {
					t.Fatal(err)
				}
				for s := range scalar.Regions {
					if len(scalar.Regions[s].Dies) != len(got.Regions[s].Dies) {
						t.Fatalf("seed %d: stage %d region size differs", seed, s)
					}
					for i := range scalar.Regions[s].Dies {
						if scalar.Regions[s].Dies[i] != got.Regions[s].Dies[i] {
							t.Fatalf("seed %d: stage %d die %d differs: %v vs %v",
								seed, s, i, scalar.Regions[s].Dies[i], got.Regions[s].Dies[i])
						}
					}
				}
				if g, want := rng.Int63(), refRng.Int63(); g != want {
					t.Fatalf("seed %d: post-run generator diverged: next Int63 %d, reference %d", seed, g, want)
				}
			}
		})
	}
}

// TestScorerBatchZeroAlloc asserts the annealer's kernel cycle — Eval, plus
// a Commit on one draw in four — performs no steady-state allocations on an
// interned mesh. Each measured run does 8 Evals, so one allocation per Eval
// reads as at least 8 objects/op rather than rounding down to 0.
func TestScorerBatchZeroAlloc(t *testing.T) {
	tc := scorerTopologies()[0]
	base, err := Partition(tc.m, tc.tp, tc.pp)
	if err != nil {
		t.Fatal(err)
	}
	anchors := make([]mesh.DieID, tc.pp)
	for i := range base {
		anchors[i] = base[i].Anchor()
	}
	sc := NewScorer(tc.m, anchors, fig11Workload())
	kernel := NewScorerBatch(sc)
	rng := rand.New(rand.NewSource(11))
	cycle := func() {
		for i := 0; i < 8; i++ {
			x, y := rng.Intn(tc.pp), rng.Intn(tc.pp)
			for x == y {
				y = rng.Intn(tc.pp)
			}
			kernel.Eval(x, y)
			// The base re-sync after a commit must also be allocation-free.
			if rng.Intn(4) == 0 {
				kernel.Commit(x, y)
			}
		}
	}
	// Warm the shared inverted index and the kernel planes to steady state.
	for i := 0; i < 1000; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("Eval/Commit cycle allocates %.1f objects/op, want 0", allocs)
	}
}

// FuzzScorerBatchEval decodes the input into a topology, a (tp, pp)
// partition, pipeline volumes (zeros included), Mem_pairs (out-of-range and
// degenerate ones included) and a sequence of (x, y, commit?) steps. Every
// Eval must equal SwapDelta bit for bit, and after every Commit the kernel's
// Scorer must hold the cost of a scalar mirror that went through the same
// SwapDelta/Apply steps.
func FuzzScorerBatchEval(f *testing.F) {
	meshes := []*mesh.Mesh{scorerTopologies()[0].m, scorerTopologies()[2].m}
	f.Add([]byte{0, 6, 6, 1, 2, 3, 4, 5, 0, 3, 0, 7, 9, 2, 2, 9, 1, 0, 3, 1, 2, 5, 0, 5, 2, 1})
	f.Add([]byte{1, 11, 3, 255, 0, 128, 64, 32, 1, 8, 200, 4, 0, 12, 7, 13, 0, 0, 1, 1, 11, 0, 1, 4, 9, 0, 9, 4, 1})
	f.Add([]byte{0, 0, 0})
	gen := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 16+gen.Intn(160))
		gen.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}
		m := meshes[next()%len(meshes)]
		pp := 2 + next()%31
		if pp > m.Dies() {
			pp = m.Dies()
		}
		tp := 1 + next()%(m.Dies()/pp)
		base, err := Partition(m, tp, pp)
		if err != nil {
			t.Fatal(err)
		}
		perm := rand.New(rand.NewSource(int64(next()))).Perm(pp)
		anchors := make([]mesh.DieID, pp)
		for i := range anchors {
			anchors[i] = base[perm[i]].Anchor()
		}
		w := Workload{PipelineBytes: make([]float64, pp-1)}
		for i := range w.PipelineBytes {
			w.PipelineBytes[i] = float64(next()) * 1.7e7
		}
		for n := next() % 10; n > 0; n-- {
			// Endpoints span -1..pp: both out-of-range ends and, when they
			// coincide, degenerate pairs.
			w.Pairs = append(w.Pairs, memPair(next()%(pp+2)-1, next()%(pp+2)-1, float64(1+next())*1.3e7))
		}
		sc := NewScorer(m, anchors, w)
		ref := NewScorer(m, anchors, w)
		kernel := NewScorerBatch(sc)
		for step := 0; step < 64 && len(data) > 0; step++ {
			x, y, commit := next()%pp, next()%pp, next()&1 == 1
			if x == y {
				continue
			}
			got := kernel.Eval(x, y)
			want, _ := ref.SwapDelta(x, y)
			if got != want {
				t.Fatalf("step %d (%d,%d): Eval = %x, SwapDelta = %x",
					step, x, y, math.Float64bits(got), math.Float64bits(want))
			}
			if !commit {
				ref.Revert()
				continue
			}
			ref.Apply()
			if c := kernel.Commit(x, y); c != want || sc.Cost() != ref.Cost() {
				t.Fatalf("step %d (%d,%d): Commit = %x, Cost = %x, mirror = %x",
					step, x, y, math.Float64bits(c), math.Float64bits(sc.Cost()), math.Float64bits(ref.Cost()))
			}
		}
	})
}
