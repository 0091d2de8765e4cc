package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/service/client"
)

// proc is one fleet process the benchmark started.
type proc struct {
	name string
	addr string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited
}

// fleet is two watosd shards behind one watos-router, as real processes on
// loopback.
type fleet struct {
	shards []*proc
	router *proc
}

func (f *fleet) procs() []*proc {
	if f.router == nil {
		return f.shards
	}
	return append(append([]*proc(nil), f.shards...), f.router)
}

// fleetPorts are the loopback ports tried for the shards and the router,
// in order. The router places work by rendezvous hashing over the shard
// addresses, so fixed addresses give every run the same split of requests
// between the shards; a block in use is skipped for the next.
const (
	fleetPortBase  = 38100
	fleetPortTries = 50
)

// fleetAddrs returns n free loopback addresses from the first block of
// fleetPorts whose ports are all free.
func fleetAddrs(n int) ([]string, error) {
	for try := range fleetPortTries {
		var addrs []string
		var ls []net.Listener
		for i := range n {
			l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", fleetPortBase+10*try+i))
			if err != nil {
				break
			}
			ls = append(ls, l)
			addrs = append(addrs, l.Addr().String())
		}
		for _, l := range ls {
			l.Close()
		}
		if len(addrs) == n {
			return addrs, nil
		}
	}
	return nil, fmt.Errorf("no block of %d free loopback ports from %d", n, fleetPortBase)
}

// start launches one binary listening on addr, with its output in
// logDir/name.log.
func start(binDir, logDir, name, addr, bin string, args ...string) (*proc, error) {
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(binDir, bin), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A child must not outlive the benchmark if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, addr: addr, cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

// waitHealthy polls the process's health endpoint until it answers 200.
func (p *proc) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	hc := http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get("http://" + p.addr + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during start-up", p.name)
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %v: %v", p.name, timeout, err)
		}
	}
}

// startFleet starts the shards and the router, waits until all are
// healthy and warms every process with one job, so lazily built state (the
// predictor's lookup table, connection pools) is ready before timing.
func startFleet(binDir, logDir string, profiling bool) (*fleet, error) {
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	var extra []string
	if profiling {
		extra = []string{"-pprof"}
	}
	addrs, err := fleetAddrs(3)
	if err != nil {
		return nil, err
	}
	f := &fleet{}
	for i := range 2 {
		p, err := start(binDir, logDir, fmt.Sprintf("shard%d", i), addrs[i], "watosd",
			append([]string{"-workers", "1", "-jobs", "1"}, extra...)...)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.shards = append(f.shards, p)
	}
	for _, p := range f.shards {
		if err := p.waitHealthy(30 * time.Second); err != nil {
			f.stop()
			return nil, err
		}
	}
	r, err := start(binDir, logDir, "router", addrs[2], "watos-router",
		append([]string{"-shards", strings.Join(addrs[:2], ",")}, extra...)...)
	if err != nil {
		f.stop()
		return nil, err
	}
	f.router = r
	if err := r.waitHealthy(30 * time.Second); err != nil {
		f.stop()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// Warm-up jobs, one straight to each shard and one through the router,
	// use seed 0, which the schedule never draws.
	for i, p := range f.procs() {
		c := client.New(p.addr)
		c.PollInterval = pollInterval
		warm := service.Request{Model: mixModels[i], Config: "config3"}
		if j, err := c.Run(ctx, warm); err != nil || j.State != service.StateDone {
			f.stop()
			return nil, fmt.Errorf("warm-up on %s: state %q: %v", p.name, j.State, err)
		}
	}
	return f, nil
}

// stop terminates every process and waits for each to exit.
func (f *fleet) stop() {
	for _, p := range f.procs() {
		p.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, p := range f.procs() {
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			p.cmd.Process.Kill()
			<-p.done
		}
	}
}

// procStat is one process's CPU time and peak RSS, read from /proc.
type procStat struct {
	cpu    time.Duration
	hwmMB  float64
	allocs uint64 // cumulative heap allocations (profiling fleets only)
	allocB uint64
}

// clockTick is the unit of /proc/<pid>/stat CPU times (USER_HZ).
const clockTick = 10 * time.Millisecond

func readProcStat(p *proc, profiling bool) (procStat, error) {
	var st procStat
	pid := p.cmd.Process.Pid
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return st, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the line, the 12th and 13th after it.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return st, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	stt, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return st, err
	}
	st.cpu = time.Duration(ut+stt) * clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return st, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return st, err
			}
			st.hwmMB = kb / 1024
		}
	}
	if profiling {
		st.allocs, st.allocB, err = heapCounters(p.addr)
	}
	return st, err
}

// heapCounters reads a process's cumulative heap allocation count and
// bytes from the runtime.MemStats block of /debug/pprof/heap?debug=1.
func heapCounters(addr string) (mallocs, total uint64, err error) {
	resp, err := http.Get("http://" + addr + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	found := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "# Mallocs = "); ok {
			mallocs, err = strconv.ParseUint(v, 10, 64)
			found++
		} else if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			total, err = strconv.ParseUint(v, 10, 64)
			found++
		}
		if err != nil {
			return 0, 0, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("%s: no MemStats in heap profile", addr)
	}
	return mallocs, total, nil
}

// fleetStat sums procStat over the fleet.
func (f *fleet) stat(profiling bool) (procStat, error) {
	var sum procStat
	for _, p := range f.procs() {
		st, err := readProcStat(p, profiling)
		if err != nil {
			return sum, fmt.Errorf("%s: %w", p.name, err)
		}
		sum.cpu += st.cpu
		sum.hwmMB += st.hwmMB
		sum.allocs += st.allocs
		sum.allocB += st.allocB
	}
	return sum, nil
}

// cpuProfiles pulls a CPU profile of the given length from every fleet
// process concurrently and returns the merged samples.
func (f *fleet) cpuProfiles(seconds int) ([]sample, error) {
	type got struct {
		samples []sample
		err     error
	}
	ch := make(chan got, len(f.procs()))
	for _, p := range f.procs() {
		go func(p *proc) {
			resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", p.addr, seconds))
			if err != nil {
				ch <- got{err: err}
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("%s: profile: HTTP %d", p.name, resp.StatusCode)
			}
			if err != nil {
				ch <- got{err: err}
				return
			}
			s, err := parseProfile(b)
			ch <- got{samples: s, err: err}
		}(p)
	}
	var all []sample
	var errs error
	for range f.procs() {
		g := <-ch
		all = append(all, g.samples...)
		errs = errors.Join(errs, g.err)
	}
	return all, errs
}
