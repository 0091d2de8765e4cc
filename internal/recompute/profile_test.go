package recompute

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/model"
	"repro/internal/opgraph"
)

// buildOptionsReference is the direct enumeration BuildOptions must
// reproduce: the cost closure is queried per op per subset, and every mask
// is built as an Option before the pareto filter.
func buildOptionsReference(g *opgraph.LayerGraph, cost func(opgraph.Op) OpCost, layers int) ([]Option, error) {
	ops := g.Ops
	if len(ops) > 16 {
		return nil, fmt.Errorf("recompute: too many operators (%d) for subset enumeration", len(ops))
	}
	if layers <= 0 {
		return nil, fmt.Errorf("recompute: stage has no layers")
	}
	boundary := g.BoundaryBytes()
	var raw []Option
	for mask := 0; mask < 1<<len(ops); mask++ {
		valid := true
		var ckpt, extra float64
		var recomputed []int
		for i, op := range ops {
			if mask&(1<<i) != 0 {
				if !op.Recomputable {
					valid = false
					break
				}
				c := cost(op)
				extra += c.Latency + c.CommTime
				recomputed = append(recomputed, i)
			} else {
				ckpt += op.CheckpointBytes
			}
		}
		if !valid {
			continue
		}
		raw = append(raw, Option{
			RecomputedOps:  recomputed,
			CkptBytesPerMB: (ckpt + boundary) * float64(layers),
			ExtraBwdTime:   extra * float64(layers),
		})
	}
	front := paretoFrontReference(raw)
	if len(front) == 0 {
		return nil, fmt.Errorf("recompute: empty pareto frontier")
	}
	return front, nil
}

// paretoFrontReference is the Option-sorting pareto filter BuildOptions and
// ParetoFront must reproduce, tie order included.
func paretoFrontReference(opts []Option) []Option {
	sorted := append([]Option(nil), opts...)
	// Skyline scan: ascending memory; an option survives only if its time
	// beats every option that already uses less memory.
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].CkptBytesPerMB != sorted[j].CkptBytesPerMB {
			return sorted[i].CkptBytesPerMB < sorted[j].CkptBytesPerMB
		}
		return sorted[i].ExtraBwdTime < sorted[j].ExtraBwdTime
	})
	var asc []Option
	bestTime := math.Inf(1)
	for _, o := range sorted {
		if o.ExtraBwdTime < bestTime {
			asc = append(asc, o)
			bestTime = o.ExtraBwdTime
		}
	}
	// Return in descending-memory order (options[0] = no recomputation).
	out := make([]Option, len(asc))
	for i, o := range asc {
		out[len(asc)-1-i] = o
	}
	return out
}

// catalogModels is every model of the zoo, once each.
func catalogModels() []model.Spec {
	var out []model.Spec
	seen := map[string]bool{}
	all := append(append(model.EvaluationModels(), model.EmergingModels()...), model.UltraLargeModels()...)
	for _, s := range append(all, model.Llama_65B()) {
		if !seen[s.Name] {
			seen[s.Name] = true
			out = append(out, s)
		}
	}
	return out
}

func TestBuildOptionsMatchesReference(t *testing.T) {
	costs := map[string]func(opgraph.Op) OpCost{
		"roofline": func(op opgraph.Op) OpCost {
			return OpCost{Latency: op.RecomputeFLOPs() / 1e15, CommTime: op.AllReduceBytes / 4e12}
		},
		// A flat cost makes many subsets tie on time, so the tie order
		// of the sort shows.
		"flat": func(opgraph.Op) OpCost { return OpCost{Latency: 1e-3} },
	}
	for _, spec := range catalogModels() {
		w := model.DefaultWorkload(spec)
		for _, tp := range []int{1, 2, 4, 8} {
			g, err := opgraph.Build(spec, tp, w.MicroBatch, w.SeqLen)
			if err != nil {
				t.Fatalf("%s TP=%d: %v", spec.Name, tp, err)
			}
			for name, cost := range costs {
				for _, layers := range []int{1, 7} {
					calls := 0
					counted := func(op opgraph.Op) OpCost {
						calls++
						return cost(op)
					}
					got, err := BuildOptions(g, counted, layers)
					want, werr := buildOptionsReference(g, cost, layers)
					if (err == nil) != (werr == nil) {
						t.Fatalf("%s TP=%d %s layers=%d: error %v, reference %v", spec.Name, tp, name, layers, err, werr)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s TP=%d %s layers=%d: frontier differs\n got %+v\nwant %+v", spec.Name, tp, name, layers, got, want)
					}
					if calls > len(g.Ops) {
						t.Fatalf("%s TP=%d %s layers=%d: cost called %d times for %d ops", spec.Name, tp, name, layers, calls, len(g.Ops))
					}
				}
			}
		}
	}
}

func TestParetoFrontMatchesReference(t *testing.T) {
	opts := []Option{
		{CkptBytesPerMB: 10, ExtraBwdTime: 0},
		{CkptBytesPerMB: 8, ExtraBwdTime: 0.5, RecomputedOps: []int{1}},
		{CkptBytesPerMB: 8, ExtraBwdTime: 0.5, RecomputedOps: []int{2}},
		{CkptBytesPerMB: 9, ExtraBwdTime: 0.7},
		{CkptBytesPerMB: 2, ExtraBwdTime: 1.0},
		{CkptBytesPerMB: 2, ExtraBwdTime: 1.0, RecomputedOps: []int{3}},
	}
	if got, want := ParetoFront(opts), paretoFrontReference(opts); !reflect.DeepEqual(got, want) {
		t.Fatalf("ParetoFront = %+v, reference %+v", got, want)
	}
}

func BenchmarkBuildOptions(b *testing.B) {
	g, err := opgraph.Build(model.Llama2_30B(), 4, 1, 2048)
	if err != nil {
		b.Fatal(err)
	}
	cost := func(op opgraph.Op) OpCost {
		return OpCost{Latency: op.RecomputeFLOPs() / 1e15, CommTime: op.AllReduceBytes / 4e12}
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := BuildOptions(g, cost, 4); err != nil {
			b.Fatal(err)
		}
	}
}
