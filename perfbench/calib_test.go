package main

import (
	"math"
	"testing"
	"time"
)

func TestCalibKernelDoesFixedWork(t *testing.T) {
	a, b := newCalibLane(), newCalibLane()
	a.run()
	b.run()
	if a.sink != b.sink || a.sink == 0 || math.IsNaN(a.sink) {
		t.Errorf("two lanes computed %v and %v, want the same non-zero result", a.sink, b.sink)
	}
	if n := testing.AllocsPerRun(5, a.run); n != 0 {
		t.Errorf("the kernel allocates %v times per run, want 0", n)
	}
	if s := newCalibrator(2).slowness(); !(s > 0) {
		t.Errorf("slowness = %v, want > 0", s)
	}
}

func TestStealShare(t *testing.T) {
	a := parseCPULine("cpu  100 5 20 9000 7 1 2 10 0 0")
	if a != (cpuTicks{busy: 128, steal: 10}) {
		t.Fatalf("parseCPULine = %+v, want busy 128 steal 10", a)
	}
	if got := parseCPULine("cpu0 1 2 3 4 5 6 7 8"); got != (cpuTicks{}) {
		t.Errorf("a per-CPU line parsed as %+v, want zero", got)
	}
	b := cpuTicks{busy: a.busy + 300, steal: a.steal + 100}
	if got := stealShare(a, b); got != 0.25 {
		t.Errorf("stealShare = %v, want 100/(100+300)", got)
	}
	if got := stealShare(a, a); got != 0 {
		t.Errorf("stealShare over no time = %v, want 0", got)
	}
	if got := hostFactor(2, 0.25); got != 0.375 {
		t.Errorf("hostFactor(2, 0.25) = %v, want 0.375", got)
	}
}

func TestSearchLoopNormalization(t *testing.T) {
	l := searchLoop{
		lat:     []float64{10, 20, 30, 40},
		slow:    []float64{2, 2, 2, 2},
		steal:   []float64{0, 0, 0.5, 0.5},
		passLen: []int{2, 2},
	}
	got := l.normalized()
	want := []float64{5, 10, 7.5, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("normalized = %v, want %v", got, want)
		}
	}
	if p := l.passTimes(got); len(p) != 2 || p[0] != 15 || p[1] != 17.5 {
		t.Errorf("passTimes = %v, want [15 17.5]", p)
	}
	if m := localMedian([]float64{9, 1, 2, 3, 9}, 0, 1); m != 1 {
		t.Errorf("localMedian clipped at the start = %v, want 1", m)
	}
	if m := localMedian([]float64{9, 1, 2, 3, 9}, 2, 1); m != 2 {
		t.Errorf("localMedian = %v, want 2", m)
	}
}

func TestHostClockRunsAtItsFactor(t *testing.T) {
	wall0 := time.Now()
	k := &hostClock{wall0: wall0, ref0: time.Second, factor: 0.5}
	if got := k.refAt(wall0.Add(4 * time.Second)); got != 3*time.Second {
		t.Errorf("refAt(+4s) = %v, want 1s + 4s×0.5", got)
	}
	// A due time already passed returns at once, with the wall time the
	// clock passed it.
	if due := k.sleepUntil(time.Second / 2); !due.Equal(wall0.Add(-time.Second)) {
		t.Errorf("sleepUntil(0.5s) = %v, want wall0 − 1s", due.Sub(wall0))
	}
}
