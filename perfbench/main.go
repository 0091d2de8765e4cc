// Command perfbench is the repository's benchmark: it measures the WATOS
// strategy search end to end and layer by layer on three workloads, checks
// every output, and prints one JSON result line. See README.md for the
// workloads, the metrics and which layer should move which metric.
//
// Usage (from the repository root, after building the binaries):
//
//	perfbench --workload search-cold --seed 1 --seconds 30 --trace 0
//	perfbench compare OLD_RESULTS_DIR NEW_RESULTS_DIR
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Constants every workload shares.
const (
	// goodputLimitMS is the latency limit of goodput: an op counts only if
	// it finished correctly within it. Set from a probe of routed-mix at
	// 8 jobs/s, whose p95 was 175–196 ms.
	goodputLimitMS = 250.0
	// minTailOps is the sample count at which p95 has minTail samples
	// beyond it; closed loops run past --seconds until they reach it.
	minTailOps = 200
	// setupRepeats is how often a run sets up; setup_s is the median.
	setupRepeats = 5
)

// endToEnd lists the metrics of an untraced run, with their units.
var endToEnd = [][2]string{
	{"latency_ms_p50", "ms"},
	{"latency_ms_p95", "ms"},
	{"ops_per_s", "1/s"},
	{"sweep_ms_mean", "ms"},
	{"goodput", "ratio"},
	{"success_rate", "ratio"},
	{"sim_pflops_mean", "PFLOP/s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists the metrics of a traced run, with their units. A metric
// of a layer a workload does not use reads 0.
var perLayer = func() [][2]string {
	var out [][2]string
	for _, l := range cpuLayers {
		out = append(out, [2]string{"cpu_ms." + l, "ms"})
	}
	return append(out, [][2]string{
		{"cpu_ms.total", "ms"},
		{"cpu_ms.rusage", "ms"},
		{"tracing_overhead_ms", "ms"},
		{"candidates_per_op", "count"},
		{"pruned_per_op", "count"},
		{"allocs_per_op", "count"},
		{"alloc_mb_per_op", "MB"},
		{"cpu_util", "ratio"},
		{"error_rate", "ratio"},
		{"queue_wait_ms_p50", "ms"},
		{"queue_wait_ms_p95", "ms"},
		{"leg_queue_wait_ms_p50", "ms"},
		{"run_ms_p50", "ms"},
		{"run_ms_p95", "ms"},
		{"submit_ms_p50", "ms"},
		{"cache_hit_ms_p50", "ms"},
		{"result_cache_hit_rate", "ratio"},
		{"dedup_rate", "ratio"},
		{"candidate_cache_hit_rate", "ratio"},
		{"polls_per_job", "count"},
		{"sweep_leg_ms_p50", "ms"},
		{"sweep_first_leg_ms_p50", "ms"},
		{"shed", "count"},
		{"rejected", "count"},
		{"expired", "count"},
		{"degraded_legs", "count"},
		{"generator_late_ms_p95", "ms"},
	}...)
}()

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(runConfig) (*outcome, error){
	"search-cold": func(c runConfig) (*outcome, error) { return runSearch(c, false) },
	"search-ga":   func(c runConfig) (*outcome, error) { return runSearch(c, true) },
	"routed-mix":  runRouted,
}

// runConfig is one invocation's settings.
type runConfig struct {
	name    string // workload-seed-trace, names the run's output files
	seed    int64
	seconds int
	trace   bool
	binDir  string // holds the watosd and watos-router binaries
	spanDir string
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	firstErr          error
	inputs            string // digest of the generated inputs
	notes             map[string]any
	e2e               map[string]float64 // untraced runs
	layers            map[string]float64 // traced runs
}

// add counts a phase's ops and keeps the first error seen.
func (o *outcome) add(attempted, failed int, err error) {
	o.attempted += attempted
	o.failed += failed
	if o.firstErr == nil {
		o.firstErr = err
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD_RESULTS_DIR NEW_RESULTS_DIR")
			os.Exit(2)
		}
		if err := compare(os.Stdout, os.Args[2], os.Args[3]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "workload to run: search-cold, search-ga or routed-mix")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 30, "measured time of the run")
	trace := flag.Int("trace", 0, "0 = untraced run printing end-to-end metrics, 1 = traced run printing per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for the run record, spans and fleet logs")
	binDir := flag.String("bin", ".bench_build/bin", "directory holding the watosd and watos-router binaries")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *out, *binDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace int, outDir, binDir string) error {
	drive, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	st := takeStamp(".")
	cfg := runConfig{
		name:    fmt.Sprintf("%s-seed%d-trace%d", workload, seed, trace),
		seed:    seed,
		seconds: seconds,
		trace:   trace == 1,
		binDir:  binDir,
		spanDir: filepath.Join(outDir, "spans"),
	}
	stampLine, _ := json.Marshal(st)
	fmt.Printf("# env %s\n", stampLine)
	o, err := drive(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("# workload=%s seed=%d inputs_sha256=%s\n", workload, seed, o.inputs)
	if o.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failed op:", o.firstErr)
	}
	want, got := endToEnd, o.e2e
	if cfg.trace {
		want, got = perLayer, o.layers
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for _, m := range want {
		v, ok := got[m[0]]
		if !ok && !cfg.trace {
			return fmt.Errorf("workload %s did not measure %s", workload, m[0])
		}
		res.Metrics[m[0]] = metric{Value: v, Unit: m[1]}
	}
	if res.Attempted < 1 {
		return errors.New("no ops attempted")
	}
	notes, _ := json.Marshal(o.notes)
	fmt.Printf("# notes %s\n", notes)
	if err := writeRecord(filepath.Join(outDir, "results"), record{
		Stamp: st, Workload: workload, Seed: seed, Seconds: seconds, Trace: cfg.trace,
		Inputs: o.inputs, Notes: o.notes, Result: res,
	}); err != nil {
		return err
	}
	for _, name := range sortedKeys(res.Metrics) {
		fmt.Fprintf(os.Stderr, "%-28s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
