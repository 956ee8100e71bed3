package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// snapshot is one reading of the clocks and counters a meter differences.
type snapshot struct {
	at       time.Time
	selfCPU  time.Duration
	childCPU time.Duration // reaped children only: dist workers once a run closes them
	rt       rtCounters
}

// rtCounters are the cumulative Go runtime counters read via runtime/metrics.
type rtCounters struct {
	allocBytes  float64
	allocs      float64
	gcCycles    float64
	gcCPUSecond float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRT() rtCounters {
	samples := make([]metrics.Sample, len(rtNames))
	for i, name := range rtNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return rtCounters{
		allocBytes:  val(samples[0]),
		allocs:      val(samples[1]),
		gcCycles:    val(samples[2]),
		gcCPUSecond: val(samples[3]),
	}
}

func (a rtCounters) sub(b rtCounters) rtCounters {
	return rtCounters{
		allocBytes:  a.allocBytes - b.allocBytes,
		allocs:      a.allocs - b.allocs,
		gcCycles:    a.gcCycles - b.gcCycles,
		gcCPUSecond: a.gcCPUSecond - b.gcCPUSecond,
	}
}

func (a rtCounters) add(b rtCounters) rtCounters {
	return rtCounters{
		allocBytes:  a.allocBytes + b.allocBytes,
		allocs:      a.allocs + b.allocs,
		gcCycles:    a.gcCycles + b.gcCycles,
		gcCPUSecond: a.gcCPUSecond + b.gcCPUSecond,
	}
}

func rusageCPU(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeSnapshot() snapshot {
	return snapshot{
		at:       time.Now(),
		selfCPU:  rusageCPU(syscall.RUSAGE_SELF),
		childCPU: rusageCPU(syscall.RUSAGE_CHILDREN),
		rt:       readRT(),
	}
}

// meter accumulates wall time, CPU (process plus reaped children) and
// runtime counters over the calls it times, excluding whatever runs
// between them (verification, bookkeeping).
type meter struct {
	wall     time.Duration
	cpu      time.Duration
	childCPU time.Duration
	rt       rtCounters
}

func (m *meter) time(f func()) {
	s := takeSnapshot()
	f()
	e := takeSnapshot()
	m.wall += e.at.Sub(s.at)
	m.childCPU += e.childCPU - s.childCPU
	m.cpu += (e.selfCPU - s.selfCPU) + (e.childCPU - s.childCPU)
	m.rt = m.rt.add(e.rt.sub(s.rt))
}

// peakRSSMB returns the process's VmHWM (peak resident set) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// quantile returns the q-quantile of xs (linear interpolation between
// closest ranks); xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// roundClock records the wall time between successive round barriers via
// the facade's WithProgress hook, in traced runs only. The hook runs on
// the engine's coordinator once per round, so it only appends a
// timestamp. A nil clock is off.
type roundClock struct {
	stamps []time.Time
}

func (c *roundClock) tick(int) { c.stamps = append(c.stamps, time.Now()) }

// start clears the clock; the first interval runs from start to the first
// barrier, so it includes the call's own set-up.
func (c *roundClock) start() {
	if c != nil {
		c.stamps = append(c.stamps[:0], time.Now())
	}
}

// intervalsUS appends the recorded per-round intervals in µs.
func (c *roundClock) intervalsUS(dst []float64) []float64 {
	if c == nil {
		return dst
	}
	for i := 1; i < len(c.stamps); i++ {
		dst = append(dst, float64(c.stamps[i].Sub(c.stamps[i-1]).Nanoseconds())/1e3)
	}
	return dst
}

// stealTicks reads the machine's total and stolen CPU ticks from
// /proc/stat: time a virtual machine's CPUs spent waiting for the host.
func stealTicks() [2]float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]float64{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	var total, steal float64
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return [2]float64{total, steal}
}

// stealShare is the share of CPU time stolen by the host between two
// readings; it explains outlying timings on a shared machine.
func stealShare(before, after [2]float64) float64 {
	if d := after[0] - before[0]; d > 0 {
		return (after[1] - before[1]) / d
	}
	return 0
}
