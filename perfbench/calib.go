package main

import (
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host normalization.
//
// The host this benchmark runs on is shared. Its hypervisor takes the
// virtual CPUs away for a share of the time (steal), and the speed of the
// time it does give moves with what the neighbours run: search-cold took
// 54 ms per op in one hour and 100 ms in another, with the same binary.
// Raw times from two runs of the same code therefore disagree by more than
// any useful bound, so every time an end-to-end metric reports is a
// normalized time:
//
//	normalized = raw wall time × (1 − steal share) / slowness
//
// The steal share is the part of the CPU time the machine wanted in the
// window that the hypervisor took (/proc/stat). The slowness is the CPU
// time of a fixed reference kernel, which lives in this file and never
// changes with the program, divided by its time on a quiet host. Kernel
// runs are interleaved with the measured work, so both see the same host.
// A change to the program moves the work's time but not the kernel's, so
// the ratio keeps every change of the program and drops most of the
// host's.
//
// The kernel allocates nothing, so it never pays for the program's garbage
// (GC assists): a program that allocates more must not slow the kernel and
// so hide its own regression. It reads its own thread's CPU clock, so time
// slicing against other threads and processes does not count either.

// calibNominalMS is the unit of slowness: a host that runs the kernel in
// exactly this CPU time has slowness 1. It is about the kernel's time on
// the 2-vCPU Xeon (family 6 model 143) this benchmark was tuned on, so
// normalized times there are of the order of raw ones.
const calibNominalMS = 2.0

// calibLane is one goroutine's kernel state: a sort buffer, a pointer
// chase ring and a lookup table, about 0.3 MB in all, so the kernel uses
// the caches as well as the ALUs, as the search does.
type calibLane struct {
	src, buf []float64
	next     []int32
	table    map[uint32]float64
	keys     []uint32
	sink     float64
}

const (
	calibSortLen = 2048
	calibRing    = 1 << 15
	calibKeys    = 4096
	calibRounds  = 4
)

func newCalibLane() *calibLane {
	l := &calibLane{
		src:   make([]float64, calibSortLen),
		buf:   make([]float64, calibSortLen),
		next:  make([]int32, calibRing),
		table: make(map[uint32]float64, calibKeys),
		keys:  make([]uint32, calibKeys),
	}
	// A fixed linear congruential sequence: the kernel's work is the same
	// on every run and every host.
	x := uint64(0x9e3779b97f4a7c15)
	rnd := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 33
	}
	for i := range l.src {
		l.src[i] = float64(rnd()%1_000_000) / 7
	}
	perm := make([]int32, calibRing)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := int(rnd() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := range perm { // one cycle through every slot
		l.next[perm[i]] = perm[(i+1)%len(perm)]
	}
	for i := range l.keys {
		l.keys[i] = uint32(rnd())
		l.table[l.keys[i]] = float64(i)
	}
	return l
}

// run does one unit of reference work.
func (l *calibLane) run() {
	acc := 0.0
	for range calibRounds {
		copy(l.buf, l.src)
		slices.Sort(l.buf)
		j := int32(0)
		for range l.next {
			j = l.next[j]
			acc += float64(j)
		}
		for _, k := range l.keys {
			acc += math.Sqrt(l.table[k] + acc*1e-9)
		}
		acc += l.buf[sort.SearchFloat64s(l.buf, acc-math.Floor(acc))%calibSortLen]
	}
	l.sink += acc
}

// calibrator runs the reference kernel on a fixed number of goroutines at
// once: one for a workload whose op runs one worker, GOMAXPROCS for one
// whose op fans out, so the kernel meets the same contention as the op.
type calibrator struct {
	lanes []*calibLane
}

func newCalibrator(lanes int) *calibrator {
	c := &calibrator{}
	for range max(lanes, 1) {
		c.lanes = append(c.lanes, newCalibLane())
	}
	for _, l := range c.lanes {
		l.run() // fault the pages in before the first timed run
	}
	return c
}

// slowness runs the kernel on every lane and returns the CPU time of the
// slowest lane divided by calibNominalMS: an op that fans out waits for its
// slowest worker. Each lane runs once untimed first: how
// much of its data the work before it evicted depends on the program, and
// must not enter the reading.
func (c *calibrator) slowness() float64 {
	cpus := make([]float64, len(c.lanes))
	one := func(i int) {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		c.lanes[i].run() // untimed: bring the lane's data back into cache
		c0 := threadCPU()
		c.lanes[i].run()
		cpus[i] = float64(threadCPU()-c0) / 1e6
	}
	if len(c.lanes) == 1 {
		one(0)
	} else {
		var wg sync.WaitGroup
		for i := range c.lanes {
			wg.Add(1)
			go func() { defer wg.Done(); one(i) }()
		}
		wg.Wait()
	}
	return slices.Max(cpus) / calibNominalMS
}

// readings appends n slowness readings to rs.
func (c *calibrator) readings(rs []float64, n int) []float64 {
	for range n {
		rs = append(rs, c.slowness())
	}
	return rs
}

// threadCPU is the calling thread's CPU time so far. getrusage rounds a
// thread's time to scheduler ticks; CLOCK_THREAD_CPUTIME_ID does not.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// cpuTicks are the machine's cumulative busy and steal times, in USER_HZ
// ticks, from the first line of /proc/stat.
type cpuTicks struct {
	busy, steal int64
}

func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return parseCPULine(line)
}

// parseCPULine reads the aggregate "cpu" line of /proc/stat: user, nice,
// system, idle, iowait, irq, softirq, steal, ...
func parseCPULine(line string) cpuTicks {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	v := func(i int) int64 {
		n, _ := strconv.ParseInt(f[i], 10, 64)
		return n
	}
	return cpuTicks{busy: v(1) + v(2) + v(3) + v(6) + v(7), steal: v(8)}
}

// stealShare is the share of the CPU time the machine wanted between a and
// b that the hypervisor took: Δsteal / (Δsteal + Δbusy). Steal accrues only
// while a virtual CPU has work, so this is the share of its running time
// any busy thread lost, whatever the number of busy CPUs.
func stealShare(a, b cpuTicks) float64 {
	steal, busy := float64(b.steal-a.steal), float64(b.busy-a.busy)
	return min(max(ratio(steal, steal+busy), 0), 0.9)
}

// hostFactor turns a raw wall time into a normalized one.
func hostFactor(slowness, steal float64) float64 {
	return ratio(1-steal, slowness)
}

// localMedian returns the median of xs[i-k .. i+k], clipped to the slice.
// It smooths a series of slowness readings without lagging a regime change.
func localMedian(xs []float64, i, k int) float64 {
	lo, hi := max(i-k, 0), min(i+k+1, len(xs))
	return median(xs[lo:hi])
}

// setupTimer times repeated set-ups and normalizes each by the host it ran
// on: slowness readings just before and after, and the steal share over it.
type setupTimer struct {
	cal   *calibrator
	raw   []float64 // s
	norm  []float64 // s
	slow  []float64
	steal []float64
}

// time runs f once as a timed set-up.
func (t *setupTimer) time(f func() error) error {
	rs := t.cal.readings(nil, 5)
	c0, t0 := readCPUTicks(), time.Now()
	if err := f(); err != nil {
		return err
	}
	raw := time.Since(t0).Seconds()
	steal := stealShare(c0, readCPUTicks())
	slow := median(t.cal.readings(rs, 5))
	t.raw = append(t.raw, raw)
	t.norm = append(t.norm, raw*hostFactor(slow, steal))
	t.slow = append(t.slow, slow)
	t.steal = append(t.steal, steal)
	return nil
}

// note records the raw figures behind setup_s.
func (t *setupTimer) note(notes map[string]any) {
	notes["setup_s_raw"] = median(t.raw)
	notes["setup_slowness"] = median(t.slow)
	notes["setup_steal_share"] = median(t.steal)
}

// hostClock keeps an open loop's reference time: the time a host of
// slowness 1 without steal would have taken. It advances at the host
// factor of the moment, re-read every calibEvery from the slowness and
// steal share of the last calibWindow readings. The generator issues each
// request when reference time reaches its due time, so a slow host gets
// the schedule stretched to its speed and the fleet's load, in reference
// terms, does not move with the host; times read off this clock are
// normalized times.
type hostClock struct {
	cal   *calibrator
	stopc chan struct{}
	done  chan struct{}

	mu     sync.Mutex
	wall0  time.Time     // wall time of the last re-read
	ref0   time.Duration // reference time at wall0
	factor float64       // reference time per wall time since wall0
	slow   []float64     // every slowness reading
	ticks  []cpuTicks    // machine ticks at every reading
}

const (
	// calibEvery paces the clock's readings: 10 a second, a few percent
	// of one CPU.
	calibEvery = 100 * time.Millisecond
	// calibWindow is the number of readings the clock's factor is the
	// median of.
	calibWindow = 15
)

// startHostClock starts a clock at reference time 0, now.
func startHostClock(c *calibrator) *hostClock {
	k := &hostClock{cal: c, stopc: make(chan struct{}), done: make(chan struct{})}
	k.slow = c.readings(nil, 5)
	k.ticks = []cpuTicks{readCPUTicks()}
	k.wall0, k.factor = time.Now(), hostFactor(median(k.slow), 0)
	go func() {
		defer close(k.done)
		t := time.NewTicker(calibEvery)
		defer t.Stop()
		for {
			select {
			case <-k.stopc:
				return
			case <-t.C:
				k.read()
			}
		}
	}()
	return k
}

// read takes one slowness reading and re-reads the factor.
func (k *hostClock) read() {
	s, ticks := k.cal.slowness(), readCPUTicks()
	k.mu.Lock()
	defer k.mu.Unlock()
	k.slow = append(k.slow, s)
	k.ticks = append(k.ticks, ticks)
	now := time.Now()
	k.ref0 = k.refAt(now)
	k.wall0 = now
	slow := median(k.slow[max(len(k.slow)-calibWindow, 0):])
	k.factor = hostFactor(slow, stealShare(k.ticks[max(len(k.ticks)-calibWindow, 0)], ticks))
}

// refAt is the reference time at wall time t >= wall0; k.mu is held.
func (k *hostClock) refAt(t time.Time) time.Duration {
	return k.ref0 + time.Duration(float64(t.Sub(k.wall0))*k.factor)
}

// now returns the current reference time.
func (k *hostClock) now() time.Duration {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.refAt(time.Now())
}

// sleepUntil waits until reference time reaches at and returns the wall
// time at which it did.
func (k *hostClock) sleepUntil(at time.Duration) time.Time {
	for {
		k.mu.Lock()
		now := time.Now()
		left := at - k.refAt(now)
		due := k.wall0.Add(time.Duration(float64(at-k.ref0) / k.factor))
		wait := time.Duration(float64(left) / k.factor)
		k.mu.Unlock()
		if left <= 0 {
			return due
		}
		time.Sleep(min(wait, calibEvery))
	}
}

// stop ends the readings and returns the median slowness and the steal
// share over the clock's life.
func (k *hostClock) stop() (slowness, steal float64) {
	close(k.stopc)
	<-k.done
	k.mu.Lock()
	defer k.mu.Unlock()
	return median(k.slow), stealShare(k.ticks[0], readCPUTicks())
}
