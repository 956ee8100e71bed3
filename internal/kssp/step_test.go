package kssp

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

var stepEngines = []sim.Engine{sim.EngineLegacy, sim.EngineStep}

// diffKSSP runs the goroutine Compute as oracle and the step machine on
// every engine, requiring byte-identical estimates and Metrics.
func diffKSSP(t *testing.T, g *graph.Graph, sources []int, spec AlgSpec, seed int64) {
	t.Helper()
	n := g.N()
	isSource := make([]bool, n)
	for _, s := range sources {
		isSource[s] = true
	}
	want := make([][]SourceDist, n)
	wantM, err := sim.Run(g, sim.Config{Seed: seed, Engine: sim.EngineLegacy}, func(env *sim.Env) {
		want[env.ID()] = Compute(env, isSource[env.ID()], len(sources), spec, Params{})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range stepEngines {
		got := make([][]SourceDist, n)
		gotM, err := sim.RunStep(g, sim.Config{Seed: seed, Engine: eng}, func(env *sim.Env) sim.StepProgram {
			id := env.ID()
			return NewComputeMachine(env, isSource[id], len(sources), spec, Params{},
				func(res []SourceDist) { got[id] = res })
		})
		if err != nil {
			t.Fatalf("engine=%s: %v", eng, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("engine=%s: estimates differ", eng)
		}
		if wantM != gotM {
			t.Errorf("engine=%s: metrics differ: %+v vs %+v", eng, wantM, gotM)
		}
	}
}

// TestComputeMachineMatchesOracle covers the declared-cost oracle path
// (Corollary 4.7, APSP sources).
func TestComputeMachineMatchesOracle(t *testing.T) {
	diffKSSP(t, graph.Grid(6, 6), []int{0, 17, 35}, Corollary47(0.5, 0), 31)
}

// TestComputeMachineMatchesRealMM covers the real-message semiring MM path
// (every simulated CLIQUE round routes real tokens through the session).
func TestComputeMachineMatchesRealMM(t *testing.T) {
	diffKSSP(t, graph.Grid(5, 5), []int{0, 24}, RealMM(2), 37)
}

// TestComputeMachineMatchesSingleSource covers the γ=0 summoning path
// (Corollary 4.9, the Theorem 1.3 SSSP engine).
func TestComputeMachineMatchesSingleSource(t *testing.T) {
	diffKSSP(t, graph.Path(30), []int{7}, Corollary49(), 41)
}
