package main

import (
	"encoding/json"
	"net/http"

	hybrid "repro"
	"repro/internal/serve"
)

// The verifiers below are pure functions of (ground truth, answer). Every
// workload counts its failures through them, and checkVerifiers feeds
// each one a corrupted answer, so a change that is fast but wrong cannot
// pass.

// tally is attempted and failed operations: pairs, tokens, estimates or
// queries depending on the workload.
type tally struct {
	attempted, failed int
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// checkAPSP compares every pair of got against truth.
func checkAPSP(truth, got [][]int64) tally {
	n := len(truth)
	t := tally{attempted: n * n}
	if len(got) != n {
		t.failed = t.attempted
		return t
	}
	for u := range truth {
		if len(got[u]) != n {
			t.failed += n
			continue
		}
		for v, d := range truth[u] {
			if got[u][v] != d {
				t.failed++
			}
		}
	}
	return t
}

// checkTokens checks one token routing instance: every expected token
// must arrive at its receiver exactly once with its payload, and nothing
// else may arrive. A missing, duplicated, altered or stray token is one
// failure; attempted is the number of tokens sent.
func checkTokens(specs []hybrid.RoutingSpec, got [][]hybrid.RoutingToken) tally {
	want := make(map[hybrid.RoutingLabel]int64)
	for _, sp := range specs {
		for _, tok := range sp.Send {
			want[tok.Label] = tok.Value
		}
	}
	t := tally{attempted: len(want)}
	seen := make(map[hybrid.RoutingLabel]bool, len(want))
	for r, toks := range got {
		for _, tok := range toks {
			v, ok := want[tok.Label]
			if !ok || tok.R != r || seen[tok.Label] {
				t.failed++ // stray, misdelivered or duplicated
				continue
			}
			seen[tok.Label] = true
			if v != tok.Value {
				t.failed++
			}
		}
	}
	t.failed += len(want) - len(seen)
	if t.failed > t.attempted {
		t.failed = t.attempted
	}
	return t
}

// checkDiameter checks a Corollary 5.2 estimate against the true hop
// diameter d: d <= est <= (3/2 + eps + 2/eta)·d.
func checkDiameter(d, est int64, eps, eta float64) tally {
	t := tally{attempted: 1}
	if est < d || float64(est) > (1.5+eps+2/eta)*float64(d) {
		t.failed = 1
	}
	return t
}

// query is one replayed request and the server's answer to it.
type query struct {
	s, t   int
	route  bool
	status int
	body   []byte
}

// checkQuery checks one /distance or /route answer: any status but 200 is
// a failure (429 included); a distance must equal the table's; a route
// must run from s to t along edges of g with the true distance as weight.
func checkQuery(g *hybrid.Graph, truth [][]int64, q query) bool {
	if q.status != http.StatusOK {
		return false
	}
	want := truth[q.s][q.t]
	if !q.route {
		var r serve.DistanceResponse
		if json.Unmarshal(q.body, &r) != nil || r.S != q.s || r.T != q.t {
			return false
		}
		if want >= hybrid.Inf {
			return r.Unreachable
		}
		return !r.Unreachable && r.Distance == want
	}
	var r serve.RouteResponse
	if json.Unmarshal(q.body, &r) != nil || r.S != q.s || r.T != q.t {
		return false
	}
	if want >= hybrid.Inf {
		return r.Unreachable
	}
	if r.Unreachable || len(r.Path) == 0 || r.Path[0] != q.s || r.Path[len(r.Path)-1] != q.t {
		return false
	}
	w, ok := hybrid.PathWeight(g, r.Path)
	return ok && w == want && r.Weight == want && r.Hops == len(r.Path)-1
}

func checkQueries(g *hybrid.Graph, truth [][]int64, qs []query) tally {
	t := tally{attempted: len(qs)}
	for _, q := range qs {
		if !checkQuery(g, truth, q) {
			t.failed++
		}
	}
	return t
}
