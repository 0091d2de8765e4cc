package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/predictor"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/shard"
)

const (
	// pollInterval paces job and sweep polls. It is well under a job's
	// ~50–100 ms compute time, so polling adds little to measured latency;
	// the client's own 50 ms default would quantize it.
	pollInterval = 10 * time.Millisecond
	// opTimeout bounds one op; a slower op counts as failed.
	opTimeout = 60 * time.Second
	// Output check sample of routed-mix: fresh jobs, hot jobs and sweeps
	// recomputed in-process after timing ends.
	checkFresh, checkHot, checkSweeps = 5, 1, 1
)

// jobRec is one interactive job of the open loop.
type jobRec struct {
	arrival
	op        int
	lateMS    float64 // how late the generator issued it
	err       error
	refused   bool
	latMS     float64 // due time to terminal state seen by the client, reference ms
	rawMS     float64 // the same in wall ms
	refDone   time.Duration
	submitMS  float64
	cacheHit  bool // answered by the router's completed-result cache
	queueMS   float64
	runMS     float64
	hasRecord bool // queueMS and runMS come from a shard's job record
	result    *service.Result
}

// sweepRec is one background Table II sweep.
type sweepRec struct {
	arrival
	op         int
	lateMS     float64
	err        error
	refused    bool
	latMS      float64   // due time to merged record, reference ms
	legMS      []float64 // due time to each leg seen terminal, in order seen, reference ms
	legQueueMS []float64
	result     *service.Result
}

// phase is one played schedule.
type phase struct {
	jobs     []*jobRec
	sweeps   []*sweepRec
	refEnd   time.Duration // reference time of the last interactive completion
	slowness float64       // median host slowness over the phase
	steal    float64       // steal share over the phase
}

// generator plays schedules against the router, in the reference time of
// a host clock (see calib.go).
type generator struct {
	cl    *client.Client
	tr    *tracer
	cal   *calibrator
	clock *hostClock
}

// refSince returns the reference time from due time at until now, in ms.
func (d *generator) refSince(at time.Duration) float64 {
	return float64(d.clock.now()-at) / 1e6
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// refusal reports whether err is the fleet refusing work (load shed or
// backpressure) rather than failing it.
func refusal(err error) bool {
	var se *client.StatusError
	return errors.As(err, &se) && (se.Code == http.StatusTooManyRequests || se.Code == http.StatusServiceUnavailable)
}

// play issues every arrival at its due time, each on its own goroutine,
// and returns once all have finished.
func (d *generator) play(schedule []arrival) *phase {
	ph := &phase{}
	d.clock = startHostClock(d.cal)
	var wg sync.WaitGroup
	for i, a := range schedule {
		due := d.clock.sleepUntil(a.At)
		late := msSince(due)
		wg.Add(1)
		if a.Sweep {
			s := &sweepRec{arrival: a, op: i, lateMS: late}
			ph.sweeps = append(ph.sweeps, s)
			go func() { defer wg.Done(); d.sweep(s) }()
		} else {
			j := &jobRec{arrival: a, op: i, lateMS: late}
			ph.jobs = append(ph.jobs, j)
			go func() { defer wg.Done(); d.job(j, due) }()
		}
	}
	wg.Wait()
	ph.slowness, ph.steal = d.clock.stop()
	for _, j := range ph.jobs {
		ph.refEnd = max(ph.refEnd, j.refDone)
	}
	return ph
}

// job submits one interactive job and polls it to a terminal state.
func (d *generator) job(j *jobRec, due time.Time) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	root := d.tr.begin("job", 0, j.op)
	defer d.tr.end(root)
	sp := d.tr.begin("submit", root, j.op)
	t0 := time.Now()
	rec, _, err := d.cl.SubmitJob(ctx, j.Req)
	j.submitMS = msSince(t0)
	d.tr.end(sp)
	if err != nil {
		j.err, j.refused = err, refusal(err)
		return
	}
	id := rec.ID
	j.cacheHit = strings.HasPrefix(id, "cache/")
	for !rec.State.Terminal() {
		select {
		case <-ctx.Done():
			j.err = ctx.Err()
			return
		case <-time.After(pollInterval):
		}
		ps := d.tr.begin("poll", root, j.op)
		rec, err = d.cl.Job(ctx, id)
		d.tr.end(ps)
		if err != nil {
			j.err = err
			return
		}
	}
	j.rawMS, j.refDone = msSince(due), d.clock.now()
	j.latMS = float64(j.refDone-j.At) / 1e6
	j.result = rec.Result
	if rec.State != service.StateDone || rec.Result == nil {
		j.err = fmt.Errorf("job %s ended %s: %s", id, rec.State, rec.Error)
		return
	}
	if !j.cacheHit && !rec.StartedAt.IsZero() && !rec.FinishedAt.IsZero() {
		j.hasRecord = true
		j.queueMS = float64(rec.StartedAt.Sub(rec.SubmittedAt)) / 1e6
		j.runMS = float64(rec.FinishedAt.Sub(rec.StartedAt)) / 1e6
	}
}

// sweep starts one async sweep, polls it until merged, then reads each
// leg's job record for its queue wait.
func (d *generator) sweep(s *sweepRec) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	root := d.tr.begin("sweep", 0, s.op)
	defer d.tr.end(root)
	sp := d.tr.begin("sweep.submit", root, s.op)
	st, err := d.cl.StartSweep(ctx, s.Req)
	d.tr.end(sp)
	if err != nil {
		s.err, s.refused = err, refusal(err)
		return
	}
	legSpans := make([]int, len(st.Legs))
	for i := range legSpans {
		legSpans[i] = d.tr.begin("leg", root, s.op)
	}
	seen := make([]bool, len(st.Legs))
	for {
		for i, leg := range st.Legs {
			if i < len(seen) && !seen[i] && leg.State.Terminal() {
				seen[i] = true
				s.legMS = append(s.legMS, d.refSince(s.At))
				d.tr.end(legSpans[i])
			}
		}
		if st.Terminal() {
			break
		}
		select {
		case <-ctx.Done():
			s.err = ctx.Err()
			return
		case <-time.After(pollInterval):
		}
		ps := d.tr.begin("sweep.poll", root, s.op)
		st, err = d.cl.SweepStatus(ctx, st.ID)
		d.tr.end(ps)
		if err != nil {
			s.err = err
			return
		}
	}
	s.latMS = d.refSince(s.At)
	if st.State != service.StateDone || st.Result == nil {
		s.err = fmt.Errorf("sweep %s ended %s: %s", st.ID, st.State, st.Error)
		return
	}
	s.result = st.Result
	for _, leg := range st.Legs {
		if leg.JobID == "" {
			continue
		}
		if rec, err := d.cl.Job(ctx, leg.JobID); err == nil && !rec.StartedAt.IsZero() {
			s.legQueueMS = append(s.legQueueMS, float64(rec.StartedAt.Sub(rec.SubmittedAt))/1e6)
		}
	}
}

// routerStats reads the router's /v1/stats (fleet aggregate included).
func routerStats(addr string) (shard.RouterStats, error) {
	var st shard.RouterStats
	resp, err := http.Get("http://" + addr + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("router stats: HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// recompute runs a request in-process the way a daemon executes it and
// returns its canonical record.
func recompute(req service.Request, pred predictor.Predictor) (string, error) {
	norm, err := req.Normalize()
	if err != nil {
		return "", err
	}
	spec, err := cliutil.Model(norm.Model)
	if err != nil {
		return "", err
	}
	cands, err := cliutil.ArchCandidates(norm.Config)
	if err != nil {
		return "", err
	}
	fw := core.New()
	fw.Predictor = pred
	fw.Options = sched.Options{UseGA: norm.UseGA, Seed: norm.Seed, Workers: 1}
	res, err := fw.Explore(cands, spec, norm.Workload())
	if err != nil {
		return "", err
	}
	return service.Canonical(res), nil
}

// checkOutputs recomputes a seeded sample of the phase's completed jobs
// and sweeps in-process and byte-compares each with the routed record. It
// returns the number checked and marks each mismatching op failed.
func checkOutputs(seed int64, ph *phase) int {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	pred := predictor.NewLookupTable(predictor.TileLevel{})
	checked := 0
	verify := func(req service.Request, res *service.Result) error {
		checked++
		want, err := recompute(req, pred)
		if err != nil {
			return fmt.Errorf("in-process recompute: %w", err)
		}
		if res.Canonical != want {
			return fmt.Errorf("routed record of %s/%s seed %d differs from the in-process search", req.Model, req.Config, req.Seed)
		}
		return nil
	}
	fresh, hot := 0, 0
	done := map[string]bool{}
	for _, i := range r.Perm(len(ph.jobs)) {
		j := ph.jobs[i]
		fp := fmt.Sprint(j.Req)
		if j.err != nil || done[fp] || (j.Hot && hot >= checkHot) || (!j.Hot && fresh >= checkFresh) {
			continue
		}
		done[fp] = true
		if j.Hot {
			hot++
		} else {
			fresh++
		}
		j.err = verify(j.Req, j.result)
	}
	sweeps := 0
	for _, i := range r.Perm(len(ph.sweeps)) {
		if s := ph.sweeps[i]; s.err == nil && sweeps < checkSweeps {
			sweeps++
			s.err = verify(s.Req, s.result)
		}
	}
	return checked
}

// tally counts a phase's attempted, failed and refused ops, keeping the
// first error.
func (o *outcome) tally(ph *phase) {
	refused, _ := o.notes["refused"].(int)
	for _, j := range ph.jobs {
		o.add(1, btoi(j.err != nil), j.err)
		refused += btoi(j.refused)
	}
	for _, s := range ph.sweeps {
		o.add(1, btoi(s.err != nil), s.err)
		refused += btoi(s.refused)
	}
	o.notes["refused"] = refused
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// rawLatencies returns the wall-time latencies of the phase's completed
// jobs.
func (ph *phase) rawLatencies() []float64 {
	var out []float64
	for _, j := range ph.jobs {
		if j.err == nil {
			out = append(out, j.rawMS)
		}
	}
	return out
}

// jobLatencies returns the latencies of the phase's completed jobs, in
// reference ms.
func (ph *phase) jobLatencies() []float64 {
	var out []float64
	for _, j := range ph.jobs {
		if j.err == nil {
			out = append(out, j.latMS)
		}
	}
	return out
}

// freshPFLOPS is the mean best throughput of the phase's fresh requests:
// averaged per point, then over the points in mix order, with each point's
// values summed in sorted order. Every run of the same length issues the
// same fresh requests, so the figure is bit-identical from run to run.
func (ph *phase) freshPFLOPS() float64 {
	byPoint := map[point][]float64{}
	for _, j := range ph.jobs {
		if !j.Hot && j.err == nil {
			p := point{j.Req.Model, j.Req.Config}
			byPoint[p] = append(byPoint[p], j.result.Throughput/1e15)
		}
	}
	var means []float64
	for _, p := range mixPoints() {
		if v := byPoint[p]; len(v) > 0 {
			sort.Float64s(v)
			means = append(means, mean(v))
		}
	}
	return mean(means)
}

// runRouted runs routed-mix.
func runRouted(cfg runConfig) (*outcome, error) {
	logDir := filepath.Join(filepath.Dir(cfg.spanDir), "fleet")
	cal := newCalibrator(1)
	setup := setupTimer{cal: cal}
	var f *fleet
	for i := range setupRepeats {
		err := setup.time(func() error {
			var err error
			f, err = startFleet(cfg.binDir, logDir, cfg.trace)
			return err
		})
		if err != nil {
			return nil, err
		}
		if i < setupRepeats-1 {
			f.stop()
		}
	}
	defer f.stop()
	cl := client.New(f.router.addr)
	cl.Retries = -1 // a refused or failed op is measured, never retried
	out := &outcome{notes: map[string]any{
		"poll_interval_ms":  float64(pollInterval) / 1e6,
		"interactive_rate":  interactiveRate,
		"goodput_limit_ms":  goodputLimitMS,
		"code_layout_mod64": codeLayout(filepath.Join(cfg.binDir, "watosd")),
	}}
	d := time.Duration(cfg.seconds) * time.Second

	if !cfg.trace {
		schedule := routedSchedule(cfg.seed, 0, d)
		out.inputs = digest(schedule)
		ph := (&generator{cl: cl, cal: cal}).play(schedule)
		rss, err := f.stat(false)
		if err != nil {
			return nil, err
		}
		out.notes["checked"] = checkOutputs(cfg.seed, ph)
		out.tally(ph)
		lat := ph.jobLatencies()
		setup.note(out.notes)
		out.notes["raw_latency_ms_p50"] = median(ph.rawLatencies())
		out.notes["slowness"] = ph.slowness
		out.notes["steal_share"] = ph.steal
		out.notes["latency_samples"] = len(lat)
		out.notes["tail_percentile_supported"] = tailPercentile(len(lat))
		var sweepMS []float64
		for _, s := range ph.sweeps {
			if s.err == nil {
				sweepMS = append(sweepMS, s.latMS)
			}
		}
		out.notes["sweeps"] = len(sweepMS)
		good := 0
		for _, j := range ph.jobs {
			if j.err == nil && j.latMS <= goodputLimitMS {
				good++
			}
		}
		n := float64(out.attempted)
		out.e2e = map[string]float64{
			"latency_ms_p50":  percentile(lat, 50),
			"latency_ms_p95":  percentile(lat, 95),
			"ops_per_s":       ratio(float64(len(lat)), ph.refEnd.Seconds()),
			"sweep_ms_mean":   mean(sweepMS),
			"goodput":         ratio(float64(good), float64(len(ph.jobs))),
			"success_rate":    ratio(n-float64(out.failed), n),
			"sim_pflops_mean": ph.freshPFLOPS(),
			"peak_rss_mb":     rss.hwmMB,
			"setup_s":         median(setup.norm),
		}
		return out, nil
	}

	// Traced run: an untraced phase for the counts and the latency
	// baseline, then a phase with CPU profiles pulled from every fleet
	// process and spans around every call the generator makes.
	schedA := routedSchedule(cfg.seed, 1, d/2)
	schedB := routedSchedule(cfg.seed, 2, d)
	out.inputs = digest([][]arrival{schedA, schedB})
	before, err := f.stat(true)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	phA := (&generator{cl: cl, cal: cal}).play(schedA)
	wallA := time.Since(t0)
	after, err := f.stat(true)
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	statsB0, err := routerStats(f.router.addr)
	if err != nil {
		return nil, err
	}
	cpuB0, err := f.stat(false)
	if err != nil {
		return nil, err
	}
	profSeconds := cfg.seconds + 1
	var samples []sample
	var profErr error
	profDone := make(chan struct{})
	go func() {
		defer close(profDone)
		samples, profErr = f.cpuProfiles(profSeconds)
	}()
	phB := (&generator{cl: cl, tr: tr, cal: cal}).play(schedB)
	<-profDone
	cpuB1, err := f.stat(false)
	if err != nil {
		return nil, err
	}
	statsB1, err := routerStats(f.router.addr)
	if err != nil {
		return nil, err
	}
	if profErr != nil {
		return nil, profErr
	}
	if err := tr.write(cfg.spanDir, cfg.name+".json"); err != nil {
		return nil, err
	}
	out.notes["checked"] = checkOutputs(cfg.seed, phA) + checkOutputs(cfg.seed+1, phB)
	out.tally(phA)
	out.tally(phB)
	out.notes["profile_samples"] = len(samples)
	out.notes["profile_seconds"] = profSeconds

	// Counts from the untraced phase.
	nA := float64(len(phA.jobs))
	cands, pruned := 0, 0
	for _, j := range phA.jobs {
		if j.err == nil {
			cands += j.result.Explored
			pruned += j.result.Pruned
		}
	}
	L := map[string]float64{}
	L["candidates_per_op"] = ratio(float64(cands), float64(len(phA.jobLatencies())))
	L["pruned_per_op"] = ratio(float64(pruned), float64(len(phA.jobLatencies())))
	L["allocs_per_op"] = ratio(float64(after.allocs-before.allocs), nA)
	L["alloc_mb_per_op"] = ratio(float64(after.allocB-before.allocB)/(1<<20), nA)
	L["cpu_util"] = ratio((after.cpu - before.cpu).Seconds(), wallA.Seconds()*float64(runtime.NumCPU()))

	// Times, rates and the attribution from the traced phase. CPU per op
	// counts every fleet process's CPU, sweeps included, per interactive job.
	nB := float64(len(phB.jobs))
	for k, v := range layerCPU(samples, nB) {
		L[k] = v
	}
	L["cpu_ms.rusage"] = ratio(float64(cpuB1.cpu-cpuB0.cpu)/1e6, nB)
	L["tracing_overhead_ms"] = percentile(phB.jobLatencies(), 50) - percentile(phA.jobLatencies(), 50)
	L["error_rate"] = ratio(float64(out.failed), float64(out.attempted))
	var queue, runMS, late, hitMS, legQueue, legMS, firstLeg []float64
	for _, j := range phB.jobs {
		late = append(late, j.lateMS)
		if j.hasRecord {
			queue = append(queue, j.queueMS)
			runMS = append(runMS, j.runMS)
		}
		if j.cacheHit {
			hitMS = append(hitMS, j.submitMS)
		}
	}
	for _, s := range phB.sweeps {
		late = append(late, s.lateMS)
		legQueue = append(legQueue, s.legQueueMS...)
		legMS = append(legMS, s.legMS...)
		if len(s.legMS) > 0 {
			firstLeg = append(firstLeg, s.legMS[0])
		}
	}
	L["queue_wait_ms_p50"] = percentile(queue, 50)
	L["queue_wait_ms_p95"] = percentile(queue, 95)
	L["run_ms_p50"] = percentile(runMS, 50)
	L["run_ms_p95"] = percentile(runMS, 95)
	L["leg_queue_wait_ms_p50"] = percentile(legQueue, 50)
	L["sweep_leg_ms_p50"] = percentile(legMS, 50)
	L["sweep_first_leg_ms_p50"] = percentile(firstLeg, 50)
	L["generator_late_ms_p95"] = percentile(late, 95)
	L["submit_ms_p50"] = percentile(tr.durations("submit"), 50)
	L["cache_hit_ms_p50"] = percentile(hitMS, 50)
	L["polls_per_job"] = ratio(float64(tr.count("poll")), nB)
	rc0, rc1 := statsB0.ResultCache, statsB1.ResultCache
	L["result_cache_hit_rate"] = ratio(float64(rc1.Hits-rc0.Hits), float64(rc1.Hits-rc0.Hits+rc1.Misses-rc0.Misses))
	L["dedup_rate"] = ratio(float64(statsB1.Router.JobsCoalesced-statsB0.Router.JobsCoalesced),
		float64(statsB1.Router.JobsRouted-statsB0.Router.JobsRouted))
	cc0, cc1 := statsB0.CandidateCache, statsB1.CandidateCache
	L["candidate_cache_hit_rate"] = ratio(float64(cc1.Hits-cc0.Hits), float64(cc1.Hits-cc0.Hits+cc1.Misses-cc0.Misses))
	L["shed"] = float64(statsB1.JobsShed - statsB0.JobsShed)
	L["rejected"] = float64(statsB1.JobsRejected - statsB0.JobsRejected)
	L["expired"] = float64(statsB1.JobsExpired - statsB0.JobsExpired)
	L["degraded_legs"] = float64(statsB1.Router.LegsDegraded - statsB0.Router.LegsDegraded)
	out.layers = L
	return out, nil
}
