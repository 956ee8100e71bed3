package main

import (
	"math"
	"math/rand"
	"time"

	hybrid "repro"
)

// oneCallUnit makes a unit of one facade call on a fresh Network. call
// runs the timed facade call and returns a verifier for its answer, which
// runs after the clock stops.
func oneCallUnit(g *hybrid.Graph, seed int64, ops int, what string,
	call func(nw *hybrid.Network) (hybrid.Metrics, func() tally, error)) func(*report, *roundClock) unitOut {
	return func(rep *report, clk *roundClock) unitOut {
		nw := hybrid.New(g, networkOpts(seed, clk)...)
		var u unitOut
		var m hybrid.Metrics
		var verify func() tally
		var err error
		clk.start()
		u.m.time(func() { m, verify, err = call(nw) })
		if err != nil {
			rep.problem("%s: %v", what, err)
			u.tally = tally{attempted: ops, failed: ops}
			return u
		}
		u.roundsUS = clk.intervalsUS(nil)
		u.counts.add(m)
		u.calls = []callOut{{u.m.wall, m.Rounds}}
		u.tally = verify()
		return u
	}
}

// apsp-grid: a cold Network.APSP (Theorem 1.1) on the 32×32 grid with the
// facade's default engine; all n² pairs are checked against graph.APSP.
func runAPSPGrid(cfg runConfig) (*report, error) {
	return runCompute(cfg, func(seed int64) (*computeInst, map[string]float64, error) {
		g := hybrid.GridGraph(32, 32)
		t0 := time.Now()
		truth := hybrid.ExactAPSP(g)
		layers := map[string]float64{"graph.apsp_s": time.Since(t0).Seconds()}
		unit := oneCallUnit(g, seed, g.N()*g.N(), "APSP", func(nw *hybrid.Network) (hybrid.Metrics, func() tally, error) {
			res, err := nw.APSP()
			if err != nil {
				return hybrid.Metrics{}, nil, err
			}
			return res.Metrics, func() tally { return checkAPSP(truth, res.Dist) }, nil
		})
		return &computeInst{n: g.N(), unit: unit}, layers, nil
	})
}

// diam-geo: Network.Diameter(DiamCor52(0.5)) on a seeded
// GeometricGraph(512, 0.15) with the facade's default engine; the
// estimate is checked against graph.HopDiameter and the Corollary 5.2
// window.
func runDiamGeo(cfg runConfig) (*report, error) {
	const eps = 0.5
	// DiamCor52 explores eta·h hops with eta = max(1, 1/eps), so its
	// window is D <= estimate <= (3/2 + eps + 2/eta)·D.
	eta := math.Max(1, 1/eps)
	return runCompute(cfg, func(seed int64) (*computeInst, map[string]float64, error) {
		g := hybrid.GeometricGraph(512, 0.15, rand.New(rand.NewSource(seed)))
		d := hybrid.HopDiameter(g)
		unit := oneCallUnit(g, seed, 1, "Diameter", func(nw *hybrid.Network) (hybrid.Metrics, func() tally, error) {
			res, err := nw.Diameter(hybrid.DiamCor52(eps))
			if err != nil {
				return hybrid.Metrics{}, nil, err
			}
			return res.Metrics, func() tally { return checkDiameter(d, res.Estimate, eps, eta) }, nil
		})
		return &computeInst{n: g.N(), unit: unit}, nil, nil
	})
}
