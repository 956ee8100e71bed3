package hybridapsp

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

var stepEngines = []sim.Engine{sim.EngineLegacy, sim.EngineStep}

// diffAPSP runs the goroutine form as oracle and the step form on every
// engine, requiring byte-identical distance vectors and Metrics.
func diffAPSP(t *testing.T, g *graph.Graph, seed int64,
	oracle func(*sim.Env) []int64,
	machine func(*sim.Env, func([]int64)) sim.StepProgram) {
	t.Helper()
	want := make([][]int64, g.N())
	wantM, err := sim.Run(g, sim.Config{Seed: seed, Engine: sim.EngineLegacy}, func(env *sim.Env) {
		want[env.ID()] = oracle(env)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range stepEngines {
		got := make([][]int64, g.N())
		gotM, err := sim.RunStep(g, sim.Config{Seed: seed, Engine: eng}, func(env *sim.Env) sim.StepProgram {
			id := env.ID()
			return machine(env, func(out []int64) { got[id] = out })
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("engine=%s: distance vectors differ", eng)
		}
		if wantM != gotM {
			t.Errorf("engine=%s: metrics differ: %+v vs %+v", eng, wantM, gotM)
		}
	}
}

// TestComputeMachineMatches proves the Theorem 1.1 step machine
// byte-identical to Compute on every engine (and exact).
func TestComputeMachineMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := graph.WithRandomWeights(graph.Grid(6, 6), 4, rng)
	diffAPSP(t, g, 23,
		func(env *sim.Env) []int64 { return Compute(env, Params{}) },
		func(env *sim.Env, done func([]int64)) sim.StepProgram {
			return NewComputeMachine(env, Params{}, done)
		})
}

// TestBaselineComputeMachineMatches proves the [3] baseline step machine
// byte-identical to BaselineCompute on every engine.
func TestBaselineComputeMachineMatches(t *testing.T) {
	g := graph.Path(30)
	diffAPSP(t, g, 29,
		func(env *sim.Env) []int64 { return BaselineCompute(env, Params{}) },
		func(env *sim.Env, done func([]int64)) sim.StepProgram {
			return NewBaselineComputeMachine(env, Params{}, done)
		})
}

// TestLocalComputeMachineMatches proves the LOCAL baseline step machine
// byte-identical to LocalCompute on every engine.
func TestLocalComputeMachineMatches(t *testing.T) {
	g := graph.Grid(5, 5)
	diffAPSP(t, g, 31,
		func(env *sim.Env) []int64 { return LocalCompute(env, 10) },
		func(env *sim.Env, done func([]int64)) sim.StepProgram {
			return NewLocalComputeMachine(env, 10, done)
		})
}
