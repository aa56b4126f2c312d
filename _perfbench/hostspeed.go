package main

import (
	"time"

	"ptemagnet/internal/engine"
)

// The host this benchmark runs on is shared: for tens of seconds at a time
// it runs the same thread up to ~1.6x slower, CPU time included, and a run
// of half a minute may fall in either phase. So the benchmark times a fixed
// reference kernel of its own between scenarios and reports every time
// rescaled to the host speed at which that kernel takes refNominal. A
// change to the simulator moves the rescaled times as it moves the raw
// ones; a change of the host's speed moves both the scenario and the
// kernel, and cancels. This holds with one engine worker, the default:
// with more, a sample shares the host with the other workers' scenarios.

// refNominal is the reference kernel's time at the speed the rescaled
// times are quoted at: its median on an unloaded 2-vCPU Xeon sandbox.
const refNominal = 4.3e-3 // seconds

// refTable is a single random cycle over 2^18 slots (1 MiB): the kernel's
// dependent loads miss L1 and mostly hit L2, like the simulator's own
// cache and TLB arrays. It is built on the first sample, so the set-up
// probes' processes never pay for it.
var refTable []uint32

func newRefTable() []uint32 {
	const n = 1 << 18
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	t := make([]uint32, n)
	for i := 0; i < n; i++ {
		t[perm[i]] = perm[(i+1)%n]
	}
	return t
}

// hostSpeed returns the host's speed over a pass relative to refNominal
// (1 at nominal speed, 0.6 in a phase 1.6x slower): the mean over its
// scenarios, each weighted by its time and taken at the mean of the
// samples just before and after it. wall × hostSpeed is the pass's time at
// nominal speed.
func hostSpeed(events []engine.Event, refs []float64) float64 {
	var t, nominal float64
	for i, ev := range events {
		e := ev.Elapsed.Seconds()
		t += e
		nominal += e * refNominal / ((refs[i] + refs[i+1]) / 2)
	}
	if t == 0 {
		return refNominal / refs[0]
	}
	return nominal / t
}

var refSink uint64

// refSample runs the reference kernel once and returns its time in
// seconds: a walk of the cycle with a multiply-xor hash per step.
func refSample() float64 {
	if refTable == nil {
		refTable = newRefTable()
	}
	start := time.Now()
	var i uint32
	h := uint64(1)
	for k := 0; k < 250_000; k++ {
		i = refTable[i]
		h = (h ^ uint64(i)) * 0x100000001b3
	}
	refSink += h
	return time.Since(start).Seconds()
}
