package diameter

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/kssp"
	"repro/internal/sim"
)

var stepEngines = []sim.Engine{sim.EngineLegacy, sim.EngineStep}

// diffDiameter runs Compute as oracle and the step machine on every
// engine, requiring byte-identical estimates and Metrics.
func diffDiameter(t *testing.T, g *graph.Graph, spec AlgSpec, seed int64) {
	t.Helper()
	n := g.N()
	want := make([]int64, n)
	wantM, err := sim.Run(g, sim.Config{Seed: seed, Engine: sim.EngineLegacy}, func(env *sim.Env) {
		want[env.ID()] = Compute(env, spec, Params{})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range stepEngines {
		got := make([]int64, n)
		gotM, err := sim.RunStep(g, sim.Config{Seed: seed, Engine: eng}, func(env *sim.Env) sim.StepProgram {
			id := env.ID()
			return NewComputeMachine(env, spec, Params{}, func(d int64) { got[id] = d })
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
// (Corollary 5.2).
func TestComputeMachineMatchesOracle(t *testing.T) {
	diffDiameter(t, graph.Grid(6, 6), Corollary52(0.5, 0), 43)
}

// TestComputeMachineMatchesRealMM covers the real-message exact skeleton
// diameter (δ = 1/3).
func TestComputeMachineMatchesRealMM(t *testing.T) {
	diffDiameter(t, graph.Cycle(30), RealMM(2), 47)
}

// TestWeightedApproxMachineMatches proves the weighted factor-2 machine
// byte-identical to WeightedApprox on every engine.
func TestWeightedApproxMachineMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.WithRandomWeights(graph.Grid(5, 5), 5, rng)
	n := g.N()
	want := make([]int64, n)
	wantM, err := sim.Run(g, sim.Config{Seed: 53, Engine: sim.EngineLegacy}, func(env *sim.Env) {
		want[env.ID()] = WeightedApprox(env, kssp.Corollary49(), kssp.Params{})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range stepEngines {
		got := make([]int64, n)
		gotM, err := sim.RunStep(g, sim.Config{Seed: 53, Engine: eng}, func(env *sim.Env) sim.StepProgram {
			id := env.ID()
			return NewWeightedApproxMachine(env, kssp.Corollary49(), kssp.Params{}, func(d int64) { got[id] = d })
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
