package ga

import (
	"math"
	"slices"
	"testing"

	"repro/internal/recompute"
)

// pinSeed builds a problem and gives its seed genome two Mem_pairs, so the
// pinned runs exercise the pair terms of both fitness components.
func pinSeed(t *testing.T, build func(*testing.T) (*Problem, Genome)) (*Problem, Genome) {
	t.Helper()
	prob, seed := build(t)
	n := len(seed.Perm)
	seed.Pairs = []recompute.MemPair{
		{Sender: 0, Helper: n - 1, Bytes: 4e9},
		{Sender: 1, Helper: n - 2, Bytes: 2e9},
	}
	return prob, seed
}

// pinPair is a Mem_pair with its byte volume as float bits.
type pinPair struct {
	Sender, Helper int
	Bytes          uint64
}

// TestOptimizePinned pins the full GA output — best fitness bits, every
// generation's best and the best genome — for two meshes, three seeds and
// three worker counts. Recompute the values deliberately only if the
// operators, selection or fitness change.
func TestOptimizePinned(t *testing.T) {
	for _, tc := range []struct {
		name    string
		build   func(*testing.T) (*Problem, Genome)
		seed    int64
		best    uint64
		history []uint64
		perm    []int
		choice  []int
		pairs   []pinPair
	}{
		{"testProblem/1", testProblem, 1, 0x42338eca48030000,
			[]uint64{0x424e6267f9018000, 0x424e6267f9018000, 0x424cb339fa486f4a, 0x4249eb1874512678, 0x423d562f6c030000, 0x423d562f6c030000, 0x423d562f6c030000, 0x423d562f6c030000, 0x423bb99aac4165e5, 0x423bb99aac4165e5, 0x423a8aedf4030000, 0x4233ebad9f6577de, 0x4233b314fbf8ae5d, 0x42338eca48030000, 0x42338eca48030000, 0x42338eca48030000},
			[]int{4, 0, 2, 3, 6, 5, 1}, []int{0, 0, 0, 0, 0, 0, 0},
			[]pinPair{{Sender: 1, Helper: 6, Bytes: 0x41ddcd6500000000}}},
		{"testProblem/2", testProblem, 2, 0x423135f9b003147b,
			[]uint64{0x424e6267f9018000, 0x423bf08eb0030000, 0x423bf08eb0030000, 0x423bf08eb0030000, 0x423bf08eb0030000, 0x423bf08eb0030000, 0x423bf08eb0030000, 0x423bf08eb0030000, 0x4239254d38030000, 0x4239254d38030000, 0x42367c2e5a071e8e, 0x42367c2e5a071e8e, 0x4234144df803147b, 0x4234144df803147b, 0x423135f9b003147b, 0x423135f9b003147b},
			[]int{0, 3, 2, 6, 4, 5, 1}, []int{0, 0, 0, 1, 0, 0, 0},
			nil},
		{"testProblem/3", testProblem, 3, 0x4231adbc70a74114,
			[]uint64{0x4249254d38018000, 0x42449b02d5018000, 0x42449b02d5018000, 0x4243356219018000, 0x4243356219018000, 0x4232dbf9ea030000, 0x4232dbf9ea030000, 0x4232dbf9ea030000, 0x4232dbf9ea030000, 0x4232dbf9ea030000, 0x4232dbf9ea030000, 0x4231adbc70a74114, 0x4231adbc70a74114, 0x4231adbc70a74114, 0x4231adbc70a74114, 0x4231adbc70a74114},
			[]int{0, 4, 2, 3, 1, 5, 6}, []int{0, 0, 0, 0, 0, 0, 0},
			[]pinPair{{Sender: 1, Helper: 5, Bytes: 0x41d56821a101cec7}}},
		{"meshSwitchProblem/1", meshSwitchProblem, 1, 0x422ebbd028060000,
			[]uint64{0x4245a73b62018000, 0x4245a73b62018000, 0x4243ba7488096ce7, 0x423a8aedf4030000, 0x4239633a1cef4fea, 0x4239633a1cef4fea, 0x4239633a1cef4fea, 0x4238fe4ebc6c6c2c, 0x42374ab1093f4482, 0x42374ab1093f4482, 0x42374ab1093f4482, 0x423229298c030000, 0x423229298c030000, 0x423229298c030000, 0x423229298c030000, 0x422ebbd028060000},
			[]int{0, 1, 2, 5, 3, 4}, []int{0, 0, 0, 0, 0, 0},
			nil},
		{"meshSwitchProblem/2", meshSwitchProblem, 2, 0x422bf08eb0060000,
			[]uint64{0x423bf08eb0030000, 0x423bf08eb0030000, 0x42389f4944632750, 0x42389f4944632750, 0x42389f4944632750, 0x42389f4944632750, 0x42389f4944632750, 0x42389f4944632750, 0x42338eca48030000, 0x42338eca48030000, 0x42338eca48030000, 0x42338eca48030000, 0x42338eca48030000, 0x42338eca48030000, 0x42338eca48030000, 0x422bf08eb0060000},
			[]int{1, 0, 5, 3, 2, 4}, []int{0, 0, 0, 0, 0, 0},
			nil},
		{"meshSwitchProblem/3", meshSwitchProblem, 3, 0x4229d0f6880628f6,
			[]uint64{0x423bf08eb0030000, 0x423bf08eb0030000, 0x423bf08eb0030000, 0x423bf08eb0030000, 0x423bf08eb0030000, 0x4236f2a24003147b, 0x4236f2a24003147b, 0x4236f2a24003147b, 0x4234144df803147b, 0x4234144df803147b, 0x4234144df803147b, 0x4229d0f6880628f6, 0x4229d0f6880628f6, 0x4229d0f6880628f6, 0x4229d0f6880628f6, 0x4229d0f6880628f6},
			[]int{0, 1, 4, 3, 5, 2}, []int{0, 0, 0, 0, 1, 0},
			nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 4} {
				prob, seed := pinSeed(t, tc.build)
				res, err := Optimize(prob, seed, Options{Population: 16, Generations: 15, Omega: 0.5, Seed: tc.seed, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if got := math.Float64bits(res.BestFitness); got != tc.best {
					t.Fatalf("workers=%d: best fitness %#x, pinned %#x", workers, got, tc.best)
				}
				if len(res.History) != len(tc.history) {
					t.Fatalf("workers=%d: history length %d, pinned %d", workers, len(res.History), len(tc.history))
				}
				for g, f := range res.History {
					if got := math.Float64bits(f); got != tc.history[g] {
						t.Fatalf("workers=%d generation %d: best %#x, pinned %#x", workers, g, got, tc.history[g])
					}
				}
				if !slices.Equal(res.Best.Perm, tc.perm) || !slices.Equal(res.Best.RecompChoice, tc.choice) {
					t.Fatalf("workers=%d: best genome perm %v choice %v, pinned %v %v",
						workers, res.Best.Perm, res.Best.RecompChoice, tc.perm, tc.choice)
				}
				if len(res.Best.Pairs) != len(tc.pairs) {
					t.Fatalf("workers=%d: best genome has %d pairs, pinned %d", workers, len(res.Best.Pairs), len(tc.pairs))
				}
				for i, pr := range res.Best.Pairs {
					got := pinPair{pr.Sender, pr.Helper, math.Float64bits(pr.Bytes)}
					if got != tc.pairs[i] {
						t.Fatalf("workers=%d: best pair %d is %+v, pinned %+v", workers, i, got, tc.pairs[i])
					}
				}
			}
		})
	}
}
