package helpers

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// TestMachineMatchesCompute proves the Algorithm 1 step machine
// byte-identical to the goroutine form on every engine.
func TestMachineMatchesCompute(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.SparseConnected(60, 1.2, rng)
	inW := make([]bool, g.N())
	for i := range inW {
		inW[i] = rng.Float64() < 0.25
	}
	mu := 3

	want := make([]Result, g.N())
	wantM, err := sim.Run(g, sim.Config{Seed: 9, Engine: sim.EngineLegacy}, func(env *sim.Env) {
		want[env.ID()] = Compute(env, inW[env.ID()], mu, Params{})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []sim.Engine{sim.EngineLegacy, sim.EngineStep} {
		got := make([]Result, g.N())
		gotM, err := sim.RunStep(g, sim.Config{Seed: 9, Engine: eng}, func(env *sim.Env) sim.StepProgram {
			m := NewMachine(env, inW[env.ID()], mu, Params{})
			return sim.Sequence(
				func(*sim.Env) sim.StepProgram { return m },
				sim.Finish(func(env *sim.Env) { got[env.ID()] = m.Res }),
			)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("engine=%s: results differ", eng)
		}
		if wantM != gotM {
			t.Errorf("engine=%s: metrics differ: %+v vs %+v", eng, wantM, gotM)
		}
	}
}
