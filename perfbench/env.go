package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// stamp identifies the code and the machine a result was measured with.
type stamp struct {
	// Commit is the checked-out git commit, or "unknown" outside a git
	// checkout; SourceSHA identifies the measured source either way.
	Commit     string `json:"commit"`
	SourceSHA  string `json:"source_sha256"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

// machine is the part of the stamp that must match for two results to be
// compared.
func (s stamp) machine() string {
	return fmt.Sprintf("%s|%s/%s|nproc=%d|gomaxprocs=%d|%s",
		s.CPUModel, s.GOOS, s.GOARCH, s.NumCPU, s.GOMAXPROCS, s.GoVersion)
}

// takeStamp stamps a run made from the checkout rooted at dir.
func takeStamp(dir string) stamp {
	return stamp{
		Commit:     gitCommit(dir),
		SourceSHA:  sourceDigest(dir),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
	}
}

// gitCommit resolves HEAD from the .git directory in dir without running
// git, which would search directories above the checkout.
func gitCommit(dir string) string {
	head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(dir, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if f, err := os.Open(filepath.Join(dir, ".git", "packed-refs")); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if sha, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and go.mod under dir (paths and
// contents, in lexical order), skipping build output and VCS metadata.
func sourceDigest(dir string) string {
	h := sha256.New()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != dir && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(dir, path)
		fmt.Fprintf(h, "%s\x00", rel)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuModel reads the processor name, family, model and stepping from
// /proc/cpuinfo: a generic name such as "Intel(R) Xeon(R) Processor" alone
// does not tell two processor generations apart.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	fields := map[string]string{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" && len(fields) > 0 {
			break // the first processor is enough
		}
		if k, v, ok := strings.Cut(line, ":"); ok {
			fields[strings.TrimSpace(k)] = strings.TrimSpace(v)
		}
	}
	name, ok := fields["model name"]
	if !ok {
		return "unknown"
	}
	return fmt.Sprintf("%s (family %s model %s stepping %s)", name, fields["cpu family"], fields["model"], fields["stepping"])
}

// record is everything one run measured, written next to the build output
// so runs of two commits can be compared later.
type record struct {
	Stamp    stamp          `json:"stamp"`
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  int            `json:"seconds"`
	Trace    bool           `json:"trace"`
	Inputs   string         `json:"inputs_sha256"`
	Notes    map[string]any `json:"notes"`
	Result   result         `json:"result"`
}

// writeRecord saves a run's record under dir/<first 12 digits of the
// source digest>/, so the records of each version of the code share a
// directory that compare can be pointed at.
func writeRecord(dir string, rec record) error {
	dir = filepath.Join(dir, rec.Stamp.SourceSHA[:min(12, len(rec.Stamp.SourceSHA))])
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v.json", rec.Workload, rec.Seed, rec.Trace)
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

func readRecords(dir string) ([]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no records in %s", dir)
	}
	var out []record
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// compare prints, per workload and metric, the median of the old and new
// records and their ratio. It refuses records taken on different machines,
// whose numbers say nothing about the code.
func compare(w io.Writer, oldDir, newDir string) error {
	olds, err := readRecords(oldDir)
	if err != nil {
		return err
	}
	news, err := readRecords(newDir)
	if err != nil {
		return err
	}
	machine := olds[0].Stamp.machine()
	for _, r := range append(append([]record(nil), olds...), news...) {
		if m := r.Stamp.machine(); m != machine {
			return errors.New("refusing to compare results from different machines:\n  " + machine + "\n  " + m)
		}
	}
	type key struct {
		workload string
		trace    bool
		metric   string
	}
	collect := func(rs []record) (map[key][]float64, map[string]map[int64]string) {
		vals := map[key][]float64{}
		inputs := map[string]map[int64]string{}
		for _, r := range rs {
			for name, m := range r.Result.Metrics {
				k := key{r.Workload, r.Trace, name}
				vals[k] = append(vals[k], m.Value)
			}
			if inputs[r.Workload] == nil {
				inputs[r.Workload] = map[int64]string{}
			}
			inputs[r.Workload][r.Seed] = r.Inputs
		}
		return vals, inputs
	}
	ov, oin := collect(olds)
	nv, nin := collect(news)
	for wl, seeds := range nin {
		for seed, d := range seeds {
			if od, ok := oin[wl][seed]; ok && od != d {
				fmt.Fprintf(w, "warning: %s seed %d replayed different inputs (%s vs %s)\n", wl, seed, od[:12], d[:12])
			}
		}
	}
	var keys []key
	for k := range nv {
		if _, ok := ov[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.trace != b.trace {
			return !a.trace
		}
		return a.metric < b.metric
	})
	fmt.Fprintf(w, "machine: %s\n%-12s %-30s %14s %14s %8s %s\n", machine, "workload", "metric", "old median", "new median", "new/old", "runs")
	for _, k := range keys {
		o, n := median(ov[k]), median(nv[k])
		fmt.Fprintf(w, "%-12s %-30s %14.6g %14.6g %8.4f %d/%d\n", k.workload, k.metric, o, n, ratio(n, o), len(ov[k]), len(nv[k]))
	}
	return nil
}
