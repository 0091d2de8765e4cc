package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/collective"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/predictor"
	"repro/internal/sched"
)

// searchInput is one resolved point of the mix.
type searchInput struct {
	point
	wafer hw.WaferConfig
	spec  model.Spec
	work  model.Workload
}

// resolvePoints turns the point mix into search inputs, with the workload
// defaults of the watos CLI and the evaluation service.
func resolvePoints() ([]searchInput, error) {
	var out []searchInput
	for _, p := range mixPoints() {
		spec, err := cliutil.Model(p.Model)
		if err != nil {
			return nil, err
		}
		ws, err := cliutil.ArchCandidates(p.Config)
		if err != nil {
			return nil, err
		}
		out = append(out, searchInput{point: p, wafer: ws[0], spec: spec,
			work: model.Workload{GlobalBatch: 64, MicroBatch: 1, SeqLen: cliutil.SeqLen(spec, 0)}})
	}
	return out, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark in MB since the
// last resetPeakRSS.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS restarts the resident-set high-water mark at the current
// resident set.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

var allocMetrics = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}

// heapAllocs returns the cumulative heap allocation count and bytes.
func heapAllocs() (objects, bytes uint64) {
	s := append([]metrics.Sample(nil), allocMetrics...)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// searchLoop accumulates one closed-loop phase.
type searchLoop struct {
	lat      []float64 // per-op latency, ms
	ok       []bool    // per op: succeeded and passed the output check
	slow     []float64 // the host slowness read just before each op
	steal    []float64 // the steal share over each op's pass
	passLen  []int     // ops per pass
	passHWM  []float64 // per-pass resident-set high-water mark, MB
	ops      int
	failed   int
	cands    int
	pruned   int
	wall     time.Duration // summed op wall time
	cpu      time.Duration // summed op CPU time
	allocs   uint64
	allocB   uint64
	firstErr error
}

// searchBench is the state shared by the phases of one search run.
type searchBench struct {
	inputs []searchInput
	pred   predictor.Predictor
	opts   sched.Options
	orders [][]int
	ref    map[int][32]byte // point index -> digest of its canonical record
	pflops map[int]float64  // point index -> best throughput, PFLOP/s
	cal    *calibrator
	next   int // next pass
	opID   int
}

// checkLabels and calibLabels mark the benchmark's own output checks and
// host readings, so traced runs can leave them out of the layer
// attribution.
var (
	checkLabels = pprof.Labels("bench", "check")
	calibLabels = pprof.Labels("bench", "calib")
)

// run drives passes until d has passed and minOps ops are done, stopping
// only at a pass boundary so every point is visited equally often. tr (nil
// when untraced) records a span per pass and per op.
func (b *searchBench) run(d time.Duration, minOps int, tr *tracer) searchLoop {
	var l searchLoop
	start := time.Now()
	hardStop := start.Add(3*d + 10*time.Second)
	for (time.Since(start) < d || l.ops < minOps) && time.Now().Before(hardStop) && b.next < len(b.orders) {
		resetPeakRSS()
		ticks0 := readCPUTicks()
		passSpan := tr.begin("pass", 0, b.opID)
		for _, pi := range b.orders[b.next] {
			in := b.inputs[pi]
			collective.ResetPlanCache() // every op starts from cold memo caches
			pprof.Do(context.Background(), calibLabels, func(context.Context) {
				l.slow = append(l.slow, b.cal.slowness())
			})
			o0, a0 := heapAllocs()
			c0 := cpuTime()
			sp := tr.begin("search", passSpan, b.opID)
			t0 := time.Now()
			res, err := sched.Search(in.wafer, in.spec, in.work, b.pred, b.opts)
			el := time.Since(t0)
			tr.end(sp)
			l.cpu += cpuTime() - c0
			o1, a1 := heapAllocs()
			l.allocs += o1 - o0
			l.allocB += a1 - a0
			l.wall += el
			b.opID++
			l.ops++
			l.lat = append(l.lat, float64(el)/1e6)
			var ok bool
			pprof.Do(context.Background(), checkLabels, func(context.Context) {
				ok = b.check(pi, res, err, &l)
			})
			l.ok = append(l.ok, ok)
			if !ok {
				l.failed++
				continue
			}
			l.cands += len(res.Explored)
			l.pruned += res.PrunedCount
		}
		tr.end(passSpan)
		steal := stealShare(ticks0, readCPUTicks())
		for range b.orders[b.next] {
			l.steal = append(l.steal, steal)
		}
		l.passLen = append(l.passLen, len(b.orders[b.next]))
		l.passHWM = append(l.passHWM, peakRSSMB())
		b.next++
	}
	return l
}

// normalized returns each op's latency normalized for the host (see
// calib.go), with the slowness smoothed over the ten ops on either side.
func (l *searchLoop) normalized() []float64 {
	out := make([]float64, len(l.lat))
	for i, v := range l.lat {
		out[i] = v * hostFactor(localMedian(l.slow, i, 10), l.steal[i])
	}
	return out
}

// passTimes sums per-op times into per-pass times.
func (l *searchLoop) passTimes(ops []float64) []float64 {
	var out []float64
	for _, n := range l.passLen {
		s := 0.0
		for _, v := range ops[:n] {
			s += v
		}
		out = append(out, s)
		ops = ops[n:]
	}
	return out
}

// check verifies one op: the search succeeded and its canonical record is
// byte-identical to every earlier search of the same point in this run.
func (b *searchBench) check(pi int, res *sched.Result, err error, l *searchLoop) bool {
	if err == nil && (res == nil || res.Best == nil) {
		err = fmt.Errorf("no best candidate")
	}
	if err == nil {
		sum := sha256.Sum256([]byte(res.Canonical()))
		if want, seen := b.ref[pi]; !seen {
			b.ref[pi] = sum
			b.pflops[pi] = res.Best.Report.Throughput / 1e15
		} else if sum != want {
			err = fmt.Errorf("canonical record differs from the point's first search")
		}
	}
	if err != nil && l.firstErr == nil {
		l.firstErr = fmt.Errorf("%s on %s: %w", b.inputs[pi].Model, b.inputs[pi].Config, err)
	}
	return err == nil
}

// meanPFLOPS is the mean best throughput over the points searched. Every
// point is visited equally often and repeats its record, so this equals
// the mean over all ops, and summing in point order keeps it bit-identical
// from run to run.
func (b *searchBench) meanPFLOPS() float64 {
	var vals []float64
	for pi := range b.inputs {
		if v, ok := b.pflops[pi]; ok {
			vals = append(vals, v)
		}
	}
	return mean(vals)
}

// runSearch runs search-cold (useGA false) or search-ga (useGA true).
func runSearch(cfg runConfig, useGA bool) (*outcome, error) {
	opts := sched.Options{Workers: 1, DisableCache: true}
	lanes := 1 // host readings run as many goroutines as an op's workers
	if useGA {
		opts = sched.Options{Workers: runtime.NumCPU(), DisableCache: true, UseGA: true}
		lanes = runtime.GOMAXPROCS(0)
	}
	b := &searchBench{opts: opts, ref: map[int][32]byte{}, pflops: map[int]float64{}, cal: newCalibrator(lanes)}

	// Set-up: resolve the inputs, build the predictor's lookup table and
	// warm it with one cold search of the first model on every
	// architecture; repeated so the median is reported.
	setup := setupTimer{cal: b.cal}
	for range setupRepeats {
		err := setup.time(func() error {
			inputs, err := resolvePoints()
			if err != nil {
				return err
			}
			pred := predictor.NewLookupTable(predictor.TileLevel{})
			for _, warm := range inputs[:len(mixConfigs)] {
				if _, err := sched.Search(warm.wafer, warm.spec, warm.work, pred, sched.Options{Workers: 1, DisableCache: true}); err != nil {
					return fmt.Errorf("warm-up: %w", err)
				}
			}
			b.inputs, b.pred = inputs, pred
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	b.orders = passOrders(cfg.seed, len(b.inputs))
	out := &outcome{
		inputs: digest(struct {
			Points []point
			Orders [][]int
			Opts   sched.Options
		}{mixPoints(), b.orders, opts}),
		notes: map[string]any{"workers": opts.Workers, "ga": useGA, "goodput_limit_ms": goodputLimitMS, "calib_lanes": lanes},
	}
	if exe, err := os.Executable(); err == nil {
		out.notes["code_layout_mod64"] = codeLayout(exe)
	}
	d := time.Duration(cfg.seconds) * time.Second

	if !cfg.trace {
		l := b.run(d, minTailOps, nil)
		out.add(l.ops, l.failed, l.firstErr)
		lat := l.normalized()
		good := 0
		for i, v := range lat {
			if l.ok[i] && v <= goodputLimitMS {
				good++
			}
		}
		n := float64(l.ops)
		setup.note(out.notes)
		out.notes["passes"] = len(l.passLen)
		out.notes["latency_samples"] = len(lat)
		out.notes["tail_percentile_supported"] = tailPercentile(len(lat))
		out.notes["raw_latency_ms_p50"] = median(l.lat)
		out.notes["raw_ops_per_s"] = ratio(n, l.wall.Seconds())
		out.notes["slowness"] = median(l.slow)
		out.notes["steal_share"] = median(l.steal)
		out.e2e = map[string]float64{
			"latency_ms_p50":  percentile(lat, 50),
			"latency_ms_p95":  percentile(lat, 95),
			"ops_per_s":       ratio(n*1000, sum(lat)),
			"sweep_ms_mean":   mean(l.passTimes(l.normalized())),
			"goodput":         ratio(float64(good), n),
			"success_rate":    ratio(n-float64(l.failed), n),
			"sim_pflops_mean": b.meanPFLOPS(),
			"peak_rss_mb":     median(l.passHWM),
			"setup_s":         median(setup.norm),
		}
		return out, nil
	}

	// Traced run: an untraced phase for the counts and the latency
	// baseline, then a phase under the CPU profiler with spans.
	base := b.run(d/2, 0, nil)
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	traced := b.run(d, 0, tr)
	pprof.StopCPUProfile()
	if err := tr.write(cfg.spanDir, cfg.name+".json"); err != nil {
		return nil, err
	}
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	out.add(base.ops, base.failed, base.firstErr)
	out.add(traced.ops, traced.failed, traced.firstErr)
	out.notes["profile_samples"] = len(samples)
	out.notes["spans"] = tr.count("search") + tr.count("pass")

	bn, tn := float64(base.ops), float64(traced.ops)
	out.layers = layerCPU(samples, tn)
	out.layers["cpu_ms.rusage"] = ratio(float64(traced.cpu)/1e6, tn)
	out.layers["tracing_overhead_ms"] = percentile(traced.normalized(), 50) - percentile(base.normalized(), 50)
	out.layers["candidates_per_op"] = ratio(float64(base.cands), bn)
	out.layers["pruned_per_op"] = ratio(float64(base.pruned), bn)
	out.layers["allocs_per_op"] = ratio(float64(base.allocs), bn)
	out.layers["alloc_mb_per_op"] = ratio(float64(base.allocB)/(1<<20), bn)
	out.layers["cpu_util"] = ratio(base.cpu.Seconds(), base.wall.Seconds()*float64(runtime.GOMAXPROCS(0)))
	out.layers["error_rate"] = ratio(float64(base.failed+traced.failed), bn+tn)
	return out, nil
}

// layerCPU turns profile samples into cpu_ms.<layer> per op, leaving out
// samples taken inside the benchmark's own output checks and host
// readings.
func layerCPU(samples []sample, ops float64) map[string]float64 {
	var kept []sample
	for _, s := range samples {
		if s.Labels["bench"] == "" {
			kept = append(kept, s)
		}
	}
	out := map[string]float64{}
	total := int64(0)
	for l, ns := range attribute(kept) {
		out["cpu_ms."+l] = ratio(float64(ns)/1e6, ops)
		total += ns
	}
	out["cpu_ms.total"] = ratio(float64(total)/1e6, ops)
	return out
}
