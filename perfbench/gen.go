package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"sort"
	"time"

	"repro/internal/service"
)

// point is one (model, architecture) exploration point of the mix.
type point struct {
	Model  string `json:"model"`
	Config string `json:"config"`
}

// mixModels and mixConfigs span the point mix: the four evaluation models
// that are feasible on every architecture, crossed with the four Table II
// configurations and the mesh-switch variant of config3.
var (
	mixModels  = []string{"Llama2-30B", "Llama3-70B", "Llama-65B", "GPT-175B"}
	mixConfigs = []string{"config1", "config2", "config3", "config4", "mesh-switch"}
)

// mixPoints returns the 20 points of the mix in a fixed order.
func mixPoints() []point {
	var out []point
	for _, m := range mixModels {
		for _, c := range mixConfigs {
			out = append(out, point{Model: m, Config: c})
		}
	}
	return out
}

// maxPasses bounds the pass orders generated for a closed-loop run; a run
// stops long before it uses them all.
const maxPasses = 1000

// passOrders returns the seeded visiting order of the point mix for each
// pass of a closed-loop search run.
func passOrders(seed int64, n int) [][]int {
	r := rand.New(rand.NewSource(seed))
	out := make([][]int, maxPasses)
	for i := range out {
		out[i] = r.Perm(n)
	}
	return out
}

// Open-loop shape of routed-mix.
const (
	interactiveRate = 8.0                    // interactive arrivals per second
	hotEvery        = 4                      // every 4th arrival repeats a hot request (25%)
	hotSetSize      = 4                      // distinct hot requests
	sweepEvery      = 1 * time.Second        // background Table II sweep period
	sweepOffset     = 500 * time.Millisecond // first sweep's due time
	sweepModel      = "Llama2-30B"           // one model keeps a run's sweeps comparable
)

// arrival is one scheduled request of the open loop.
type arrival struct {
	// At is the due time, relative to the start of the schedule.
	At    time.Duration   `json:"at"`
	Sweep bool            `json:"sweep,omitempty"`
	Hot   bool            `json:"hot,omitempty"`
	Req   service.Request `json:"req"`
}

// requestSeed is the search seed of the k-th fresh request for point p of
// the mix (or of the k-th sweep, p = -1) in a phase. It does not depend on
// the workload seed: every run of a given length issues the same set of
// distinct requests, so their mean simulated throughput is the same on
// every run. The workload seed decides their order, timing and the hot
// set. Each phase of a traced run gets its own requests, so a later phase
// is not served from the caches an earlier one filled. 0 is never returned
// (warm-up jobs use it).
func requestSeed(phase, p, k int) int64 {
	return int64(100_000_000*phase + 1_000_000*(p+2) + k + 1)
}

// routedSchedule generates the arrivals of one routed-mix phase lasting
// the given duration: round(d × interactiveRate) interactive arrivals,
// each due at its slot of 1/interactiveRate seconds plus up to ±25% seeded
// jitter, and a Table II sweep every sweepEvery. Every hotEvery-th
// arrival repeats one of a small per-phase hot set; the others are fresh
// requests that walk seeded permutations of the point mix, so each point
// is requested equally often whatever the seed.
func routedSchedule(seed int64, phase int, d time.Duration) []arrival {
	r := rand.New(rand.NewSource(seed*1000003 + int64(phase)))
	pts := mixPoints()
	seen := make([]int, len(pts))
	var order []int
	fresh := func() service.Request {
		if len(order) == 0 {
			order = r.Perm(len(pts))
		}
		p := order[0]
		order = order[1:]
		seen[p]++
		return service.Request{Model: pts[p].Model, Config: pts[p].Config, Seed: requestSeed(phase, p, seen[p]-1)}
	}
	hot := make([]service.Request, hotSetSize)
	for i := range hot {
		p := r.Intn(len(pts))
		hot[i] = service.Request{Model: pts[p].Model, Config: pts[p].Config, Seed: requestSeed(phase, p, 1_000+i)}
	}
	var out []arrival
	gap := float64(time.Second) / interactiveRate
	n := int(d.Seconds()*interactiveRate + 0.5)
	for i := range n {
		at := time.Duration(gap * (float64(i) + 0.25 + 0.5*r.Float64()))
		if i%hotEvery == hotEvery-1 {
			out = append(out, arrival{At: at, Hot: true, Req: hot[r.Intn(len(hot))]})
		} else {
			out = append(out, arrival{At: at, Req: fresh()})
		}
	}
	for k, t := 0, sweepOffset; t < d; k, t = k+1, t+sweepEvery {
		out = append(out, arrival{At: t, Sweep: true, Req: service.Request{Model: sweepModel, Seed: requestSeed(phase, -1, k)}})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// digest is the SHA-256 of v's JSON encoding: two runs that print the same
// digest replayed identical inputs.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain data is digested
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
