package main

import (
	"fmt"
	"net/http"

	hybrid "repro"
)

// checkVerifiers is the checker self-test: it feeds every verifier one
// right answer and one corrupted answer per kind of fault a workload can
// produce, and reports each corruption that was not counted as a failure.
// Every benchmark run calls it before measuring.
func checkVerifiers() []string {
	var missed []string
	expect := func(what string, got tally, failed int) {
		if got.failed != failed {
			missed = append(missed, fmt.Sprintf("%s: counted %d failures of %d, want %d", what, got.failed, got.attempted, failed))
		}
	}

	g := hybrid.GridGraph(4, 4)
	n := g.N()
	truth := hybrid.ExactAPSP(g)

	// apsp-grid: one wrong distance.
	dist := make([][]int64, n)
	for u := range truth {
		dist[u] = append([]int64(nil), truth[u]...)
	}
	expect("apsp exact", checkAPSP(truth, dist), 0)
	dist[3][9]++
	expect("apsp one wrong distance", checkAPSP(truth, dist), 1)
	expect("apsp missing row", checkAPSP(truth, dist[:n-1]), n*n)

	// route-dist: a dropped, an altered and a misdelivered token.
	specs := make([]hybrid.RoutingSpec, n)
	got := make([][]hybrid.RoutingToken, n)
	for v := range specs {
		r := (v + 5) % n
		tok := hybrid.RoutingToken{Label: hybrid.RoutingLabel{S: v, R: r}, Value: int64(100 + v)}
		specs[v].Send = []hybrid.RoutingToken{tok}
		got[r] = append(got[r], tok)
	}
	expect("tokens exact", checkTokens(specs, got), 0)
	dropped := append([][]hybrid.RoutingToken(nil), got...)
	dropped[7] = nil
	expect("tokens one dropped", checkTokens(specs, dropped), 1)
	altered := append([][]hybrid.RoutingToken(nil), got...)
	altered[7] = []hybrid.RoutingToken{{Label: got[7][0].Label, Value: got[7][0].Value + 1}}
	expect("tokens one altered", checkTokens(specs, altered), 1)
	moved := append([][]hybrid.RoutingToken(nil), got...)
	moved[8] = append(append([]hybrid.RoutingToken(nil), got[8]...), got[7]...)
	moved[7] = nil
	expect("tokens one misdelivered", checkTokens(specs, moved), 2)

	// diam-geo: estimates on both sides of the Corollary 5.2 window
	// [D, 3D] at eps = 0.5, eta = 2.
	expect("diameter at D", checkDiameter(10, 10, 0.5, 2), 0)
	expect("diameter at 3D", checkDiameter(10, 30, 0.5, 2), 0)
	expect("diameter below D", checkDiameter(10, 9, 0.5, 2), 1)
	expect("diameter above 3D", checkDiameter(10, 31, 0.5, 2), 1)

	// serve-zipf: a route of the wrong weight, a wrong distance, a shed
	// request.
	ok := []query{
		{s: 0, t: 15, route: true, status: http.StatusOK,
			body: []byte(`{"s":0,"t":15,"path":[0,1,2,3,7,11,15],"hops":6,"weight":6,"unreachable":false}`)},
		{s: 0, t: 15, status: http.StatusOK,
			body: []byte(`{"s":0,"t":15,"distance":6,"unreachable":false}`)},
	}
	expect("queries exact", checkQueries(g, truth, ok), 0)
	bad := []query{
		// A detour: every step is an edge, but the walk weighs 8, not 6.
		{s: 0, t: 15, route: true, status: http.StatusOK,
			body: []byte(`{"s":0,"t":15,"path":[0,4,0,1,2,3,7,11,15],"hops":8,"weight":6,"unreachable":false}`)},
		{s: 0, t: 15, status: http.StatusOK,
			body: []byte(`{"s":0,"t":15,"distance":5,"unreachable":false}`)},
		{s: 0, t: 15, status: http.StatusTooManyRequests, body: []byte(`{"error":"overloaded"}`)},
	}
	expect("queries corrupted", checkQueries(g, truth, bad), len(bad))
	return missed
}
