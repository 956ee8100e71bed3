package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	hybrid "repro"
)

// unitOut is one unit of a compute workload: the facade calls a user
// would make for one answer, timed, then verified.
type unitOut struct {
	m        meter
	counts   simCounts
	roundsUS []float64 // wall time of each round barrier interval, µs
	tally    tally
	calls    []callOut
}

type callOut struct {
	wall   time.Duration
	rounds int
}

// computeInst is a compute workload after set-up.
type computeInst struct {
	n int
	// unit runs one unit; a non-nil clk stamps every round barrier.
	unit func(rep *report, clk *roundClock) unitOut
	// traceExtras adds workload-specific per-layer metrics in a traced
	// run; ref is the run's untraced reference unit.
	traceExtras func(rep *report, ref unitOut)
}

// runCompute drives a compute workload. setup builds the inputs and
// returns the instance plus per-layer timings of its own steps. Every
// unit starts from a collected heap, so peak RSS does not depend on where
// the previous unit's garbage left the GC cycle.
func runCompute(cfg runConfig, setup func(seed int64) (*computeInst, map[string]float64, error)) (*report, error) {
	rep := newReport()
	inst, err := repeatSetup(rep, func() (*computeInst, map[string]float64, error) { return setup(cfg.seed) })
	if err != nil {
		return nil, err
	}

	if !cfg.trace {
		units := repeatUnits(cfg, func() unitOut {
			runtime.GC()
			return inst.unit(rep, nil)
		})
		var walls, cpus, callsUS []float64
		var counts []simCounts
		for _, u := range units {
			walls = append(walls, u.m.wall.Seconds())
			cpus = append(cpus, u.m.cpu.Seconds())
			for _, c := range u.calls {
				callsUS = append(callsUS, float64(c.wall.Nanoseconds())/1e3)
			}
			counts = append(counts, u.counts)
			rep.tally.add(u.tally)
		}
		solve := median(walls)
		rep.metrics["solve_s"] = solve
		rep.metrics["cpu_s"] = median(cpus)
		rep.metrics["ops_per_s"] = float64(units[0].tally.attempted) / solve
		rep.metrics["p50_us"] = median(callsUS)
		rep.metrics["peak_rss_mb"] = peakRSSMB()
		sameCounts(rep, counts)
		return rep, nil
	}

	runtime.GC()
	ref := inst.unit(rep, nil)
	prof, err := startProfiler()
	if err != nil {
		return nil, fmt.Errorf("profiler: %w", err)
	}
	traced := inst.unit(rep, &roundClock{stamps: make([]time.Time, 0, 1<<15)})
	if err := prof.stop(rep.metrics); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: module shares unavailable: %v\n", err)
	}
	rep.tally.add(ref.tally)
	rep.tally.add(traced.tally)
	sameCounts(rep, []simCounts{ref.counts, traced.counts})

	c := traced.counts
	wall := traced.m.wall.Seconds()
	rep.metrics["sim.rounds"] = float64(c.Rounds)
	rep.metrics["sim.global_msgs"] = float64(c.GlobalMsgs)
	rep.metrics["sim.local_msgs"] = float64(c.LocalMsgs)
	rep.metrics["sim.global_bits"] = float64(c.GlobalBits)
	rep.metrics["sim.local_bits"] = float64(c.LocalBits)
	rep.metrics["sim.max_global_recv"] = float64(c.MaxGlobalRecv)
	rep.metrics["sim.round_us_p50"] = quantile(traced.roundsUS, 0.50)
	rep.metrics["sim.round_us_p99"] = quantile(traced.roundsUS, 0.99)
	if c.Rounds > 0 {
		rep.metrics["sim.ns_per_node_round"] = wall * 1e9 / (float64(c.Rounds) * float64(inst.n))
	}
	if msgs := c.GlobalMsgs + c.LocalMsgs; msgs > 0 {
		rep.metrics["sim.ns_per_msg"] = wall * 1e9 / float64(msgs)
	}
	putRuntime(rep, traced.m)
	putOverhead(rep, ref.m.wall, traced.m.wall)
	if inst.traceExtras != nil {
		inst.traceExtras(rep, ref)
	}
	return rep, nil
}

// putRuntime reports the runtime/metrics deltas over a unit's timed calls.
func putRuntime(rep *report, m meter) {
	rep.metrics["alloc_mb"] = m.rt.allocBytes / (1 << 20)
	rep.metrics["allocs"] = m.rt.allocs
	rep.metrics["gc_cycles"] = m.rt.gcCycles
	rep.metrics["gc_cpu_s"] = m.rt.gcCPUSecond
}

// putOverhead reports what tracing cost: traced minus untraced solve time.
func putOverhead(rep *report, untraced, traced time.Duration) {
	rep.metrics["trace.overhead_s"] = (traced - untraced).Seconds()
	rep.metrics["trace.overhead_pct"] = 100 * (traced - untraced).Seconds() / untraced.Seconds()
}

// networkOpts are the options every compute unit's Network gets: the
// run's seed, and the round clock in a traced run.
func networkOpts(seed int64, clk *roundClock) []hybrid.Option {
	opts := []hybrid.Option{hybrid.WithSeed(seed)}
	if clk != nil {
		opts = append(opts, hybrid.WithProgress(clk.tick))
	}
	return opts
}
