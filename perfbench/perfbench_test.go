package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"maps"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
)

func TestPercentileNearestRank(t *testing.T) {
	var s []float64
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(append([]float64(nil), s...), c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{200, 95}, // p95 has exactly 10 samples beyond it
		{199, 90}, // one fewer and p95 has only 9
		{1000, 99},
		{10000, 99.9},
		{40, 75},
		{20, 50},
		{19, 0}, // too small for any tail figure
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if got > 0 && beyond(c.n, got) < minTail {
			t.Errorf("tailPercentile(%d) = %v leaves %d samples beyond", c.n, got, beyond(c.n, got))
		}
	}
	if minTailOps != 200 || tailPercentile(minTailOps) != 95 {
		t.Errorf("minTailOps = %d does not support p95", minTailOps)
	}
}

func TestGeneratorsAreSeeded(t *testing.T) {
	d := 30 * time.Second
	a, b := routedSchedule(7, 0, d), routedSchedule(7, 0, d)
	if digest(a) != digest(b) {
		t.Fatal("same seed and phase gave different schedules")
	}
	other := routedSchedule(8, 0, d)
	if digest(a) == digest(other) || digest(a) == digest(routedSchedule(7, 1, d)) {
		t.Fatal("another seed or phase gave the same schedule")
	}
	// Fresh requests: the same set under every seed, each point equally often.
	freshSet := func(s []arrival) map[service.Request]bool {
		m := map[service.Request]bool{}
		for _, x := range s {
			if !x.Sweep && !x.Hot {
				m[x.Req] = true
			}
		}
		return m
	}
	fa, fo := freshSet(a), freshSet(other)
	if !maps.Equal(fa, fo) {
		t.Error("two seeds issued different sets of fresh requests")
	}
	for r := range freshSet(routedSchedule(7, 1, d)) {
		if fa[r] {
			t.Fatalf("phases 0 and 1 both issue %+v; a later phase would hit the caches", r)
		}
	}
	perPoint := map[point]int{}
	for r := range fa {
		perPoint[point{r.Model, r.Config}]++
	}
	for _, p := range mixPoints() {
		if perPoint[p] != 9 {
			t.Errorf("point %v requested %d times in %v, want 9", p, perPoint[p], d)
		}
	}
	var jobs, hot, sweeps int
	for i, x := range a {
		if i > 0 && x.At < a[i-1].At {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		switch {
		case x.Sweep:
			sweeps++
			if x.Req.Config != "" {
				t.Errorf("sweep %d restricted to %q, want the Table II sweep", i, x.Req.Config)
			}
		case x.Hot:
			hot++
			jobs++
		default:
			jobs++
		}
		if x.Req.Seed == 0 {
			t.Errorf("arrival %d has seed 0, which warm-up jobs use", i)
		}
	}
	if jobs != 240 || hot != 60 || sweeps != 30 {
		t.Errorf("%d interactive (%d hot) and %d sweep arrivals in %v, want 240 (60) and 30", jobs, hot, sweeps, d)
	}
	if digest(passOrders(3, 20)) != digest(passOrders(3, 20)) || digest(passOrders(3, 20)) == digest(passOrders(4, 20)) {
		t.Error("pass orders are not a function of the seed")
	}
}

func TestStackLayerChargesInnermostLayer(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/recompute.GCMR.func1", "repro/internal/recompute.GCMR", "repro/internal/sched.explore"}, "recompute.gcmr"},
		{[]string{"repro/internal/recompute.enumerate", "repro/internal/recompute.BuildOptions", "repro/internal/sched.buildRecomputePlan"}, "recompute.options"},
		{[]string{"runtime.mallocgc", "repro/internal/placement.Optimize"}, "runtime.gc"},
		{[]string{"runtime.memmove", "repro/internal/placement.(*ScorerBatch).evalCandMask"}, "placement"},
		{[]string{"math.archMax", "repro/internal/search.Map[...].func1", "repro/internal/sched.Search"}, "search"},
		{[]string{"syscall.Syscall", "net.(*conn).Write", "net/http.(*response).Write", "repro/internal/service.writeJSON"}, "http"},
		{[]string{"runtime.futex", "runtime.schedule"}, "other"},
		{nil, "other"},
	} {
		if got := stackLayer(c.stack); got != c.want {
			t.Errorf("stackLayer(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// protoEnc writes the protobuf wire format for the synthetic profile.
type protoEnc struct{ b []byte }

func (e *protoEnc) varint(v uint64) {
	for v >= 0x80 {
		e.b = append(e.b, byte(v)|0x80)
		v >>= 7
	}
	e.b = append(e.b, byte(v))
}

func (e *protoEnc) uint(field int, v uint64) { e.varint(uint64(field) << 3); e.varint(v) }

func (e *protoEnc) msg(field int, m []byte) {
	e.varint(uint64(field)<<3 | 2)
	e.varint(uint64(len(m)))
	e.b = append(e.b, m...)
}

func TestAttributionOfSyntheticProfileSumsToTotal(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds", "bench", "check",
		"repro/internal/recompute.GCMR", "repro/internal/sched.explore", "runtime.mallocgc",
		"repro/internal/placement.Optimize", "main.main", "repro/internal/recompute.BuildOptions"}
	var p protoEnc
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var m protoEnc
		m.uint(1, vt[0])
		m.uint(2, vt[1])
		p.msg(1, m.b)
	}
	// Function id i+1 is named strs[7+i].
	for i := 0; 7+i < len(strs); i++ {
		var m protoEnc
		m.uint(1, uint64(i+1))
		m.uint(2, uint64(7+i))
		p.msg(5, m.b)
	}
	// Location 1 inlines GCMR into explore; the others hold one function:
	// 2 mallocgc, 3 placement.Optimize, 4 BuildOptions, 5 main.main.
	locs := map[uint64][]uint64{1: {1, 2}, 2: {3}, 3: {4}, 4: {6}, 5: {5}}
	for id := uint64(1); id <= 5; id++ {
		var m protoEnc
		m.uint(1, id)
		for _, fn := range locs[id] {
			var line protoEnc
			line.uint(1, fn)
			m.msg(4, line.b)
		}
		p.msg(4, m.b)
	}
	type synth struct {
		locs  []uint64
		ns    uint64
		check bool
	}
	samples := []synth{
		{[]uint64{1, 5}, 30e6, false},    // GCMR inlined in explore
		{[]uint64{2, 1, 5}, 10e6, false}, // allocation inside GCMR
		{[]uint64{3, 5}, 20e6, false},    // placement, packed below
		{[]uint64{5}, 5e6, false},        // no layer
		{[]uint64{4, 5}, 7e6, false},     // BuildOptions
		{[]uint64{3, 5}, 4e6, true},      // a benchmark output check
	}
	var total uint64
	for _, s := range samples {
		var m protoEnc
		if len(s.locs) > 2 {
			var packed protoEnc
			for _, l := range s.locs {
				packed.varint(l)
			}
			m.msg(1, packed.b)
		} else {
			for _, l := range s.locs {
				m.uint(1, l)
			}
		}
		m.uint(2, 1)
		m.uint(2, s.ns)
		if s.check {
			var label protoEnc
			label.uint(1, 5)
			label.uint(2, 6)
			m.msg(3, label.b)
		} else {
			total += s.ns
		}
		p.msg(2, m.b)
	}
	for _, s := range strs {
		p.msg(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.b)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	parsed, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(samples) {
		t.Fatalf("parsed %d samples, want %d", len(parsed), len(samples))
	}
	if got := parsed[2].Stack; len(got) != 2 || got[0] != "repro/internal/placement.Optimize" || got[1] != "main.main" {
		t.Errorf("stack of sample 2 = %q", got)
	}
	const ops = 2
	got := layerCPU(parsed, ops)
	want := map[string]float64{
		"cpu_ms.recompute.gcmr":    15,
		"cpu_ms.runtime.gc":        5,
		"cpu_ms.placement":         10,
		"cpu_ms.other":             2.5,
		"cpu_ms.recompute.options": 3.5,
		"cpu_ms.total":             float64(total) / 1e6 / ops,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	sum := 0.0
	for _, l := range cpuLayers {
		v, ok := got["cpu_ms."+l]
		if !ok {
			t.Errorf("layer %s missing from the attribution", l)
		}
		sum += v
	}
	if sum != got["cpu_ms.total"] {
		t.Errorf("layers plus other sum to %v, want the total %v", sum, got["cpu_ms.total"])
	}

	if _, err := parseProfile([]byte{0x12, 0x05, 0x01}); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got [][2]string, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: the benchmark prints %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i][0] != want[i].Name || got[i][1] != want[i].Unit {
				t.Errorf("%s %d: the benchmark prints %v, BENCHMARK.json lists %v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
}

func TestTracerFromManyGoroutines(t *testing.T) {
	tr := newTracer()
	var wg sync.WaitGroup
	for op := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			root := tr.begin("job", 0, op)
			for range 10 {
				tr.end(tr.begin("poll", root, op))
			}
			tr.end(root)
		}()
	}
	wg.Wait()
	if n := tr.count("poll"); n != 80 {
		t.Errorf("%d poll spans, want 80", n)
	}
	if d := tr.durations("job"); len(d) != 8 {
		t.Errorf("%d closed job spans, want 8", len(d))
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("job", 0, 0))
	if nilTracer.count("job") != 0 || nilTracer.durations("job") != nil {
		t.Error("a nil tracer recorded spans")
	}
}
