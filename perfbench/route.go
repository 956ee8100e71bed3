package main

import (
	"math/rand"

	hybrid "repro"
)

// Shape of the route-dist instances: every node of the grid sends one
// token to each of routeTokens distinct receivers and receives as many.
const (
	routeInstances = 6
	routeTokens    = 128
	routeWorkers   = 1
)

// routeSpecs generates the seeded instance sequence. Instance i shifts
// every sender by the same routeTokens distinct offsets, so each node
// also receives exactly routeTokens tokens (KS = KR = routeTokens), and
// all instances share parameters and memberships: the first one builds
// the routing session and the rest reuse it.
func routeSpecs(n int, seed int64) [][]hybrid.RoutingSpec {
	rng := rand.New(rand.NewSource(seed))
	all := make([][]hybrid.RoutingSpec, routeInstances)
	for i := range all {
		perm := rng.Perm(n - 1)
		offsets := make([]int, routeTokens)
		for j := range offsets {
			offsets[j] = perm[j] + 1
		}
		specs := make([]hybrid.RoutingSpec, n)
		for v := range specs {
			specs[v] = hybrid.RoutingSpec{
				Send:   make([]hybrid.RoutingToken, routeTokens),
				Expect: make([]hybrid.RoutingLabel, routeTokens),
				InS:    true, InR: true,
				KS: routeTokens, KR: routeTokens,
				PS: 1, PR: 1,
			}
		}
		for v := range specs {
			for j, off := range offsets {
				r := (v + off) % n
				specs[v].Send[j] = hybrid.RoutingToken{
					Label: hybrid.RoutingLabel{S: v, R: r},
					Value: rng.Int63n(1 << 20),
				}
				specs[r].Expect[j] = hybrid.RoutingLabel{S: v, R: r}
			}
		}
		all[i] = specs
	}
	return all
}

// runInstances routes every instance on one Network and verifies each.
func runInstances(rep *report, nw *hybrid.Network, instances [][]hybrid.RoutingSpec, clk *roundClock) unitOut {
	var u unitOut
	for i, specs := range instances {
		var out [][]hybrid.RoutingToken
		var m hybrid.Metrics
		var err error
		before := u.m.wall
		clk.start()
		u.m.time(func() { out, m, err = nw.TokenRouting(specs) })
		if err != nil {
			rep.problem("TokenRouting instance %d: %v", i, err)
			n := len(specs) * routeTokens
			u.tally.add(tally{attempted: n, failed: n})
			continue
		}
		u.roundsUS = clk.intervalsUS(u.roundsUS)
		u.counts.add(m)
		u.calls = append(u.calls, callOut{u.m.wall - before, m.Rounds})
		u.tally.add(checkTokens(specs, out))
	}
	return u
}

// route-dist: the instance sequence on one Network under EngineDist with
// one spawned worker; every token is checked. The traced run re-runs the
// same instances on EngineStep to separate routing from dist IPC.
func runRouteDist(cfg runConfig) (*report, error) {
	return runCompute(cfg, func(seed int64) (*computeInst, map[string]float64, error) {
		g := hybrid.GridGraph(32, 32)
		instances := routeSpecs(g.N(), seed)
		unit := func(rep *report, clk *roundClock) unitOut {
			opts := append(networkOpts(seed, clk), hybrid.WithEngine(hybrid.EngineDist), hybrid.WithWorkers(routeWorkers))
			nw := hybrid.New(g, opts...)
			return runInstances(rep, nw, instances, clk)
		}
		extras := func(rep *report, ref unitOut) {
			nw := hybrid.New(g, hybrid.WithSeed(seed), hybrid.WithEngine(hybrid.EngineStep))
			step := runInstances(rep, nw, instances, nil)
			rep.tally.add(step.tally)
			if step.counts != ref.counts {
				rep.problem("determinism: EngineStep counts %+v differ from EngineDist %+v", step.counts, ref.counts)
			}
			if len(step.calls) != routeInstances {
				return
			}
			rep.metrics["routing.setup_call_s"] = step.calls[0].wall.Seconds()
			rep.metrics["routing.setup_rounds"] = float64(step.calls[0].rounds)
			var reuseS, reuseR []float64
			for _, c := range step.calls[1:] {
				reuseS = append(reuseS, c.wall.Seconds())
				reuseR = append(reuseR, float64(c.rounds))
			}
			rep.metrics["routing.reuse_call_s"] = median(reuseS)
			rep.metrics["routing.reuse_rounds"] = median(reuseR)

			extra := ref.m.wall - step.m.wall
			rep.metrics["dist.ipc_us_per_round"] = float64(extra.Microseconds()) / float64(ref.counts.Rounds)
			rep.metrics["dist.ipc_ns_per_msg"] = float64(extra.Nanoseconds()) / float64(ref.counts.GlobalMsgs)
			rep.metrics["dist.extra_alloc_mb"] = (ref.m.rt.allocBytes - step.m.rt.allocBytes) / (1 << 20)
			rep.metrics["dist.worker_cpu_s"] = ref.m.childCPU.Seconds()
		}
		return &computeInst{n: g.N(), unit: unit, traceExtras: extras}, nil, nil
	})
}
