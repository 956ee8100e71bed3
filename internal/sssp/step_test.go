package sssp

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// TestLocalMachinesMatch proves the LOCAL baseline step machines
// byte-identical to Local and LocalAll on every engine.
func TestLocalMachinesMatch(t *testing.T) {
	g := graph.Path(25)
	const rounds = 24
	isSource := func(id int) bool { return id == 3 }

	wantOne := make([]int64, g.N())
	wantAll := make([][]int64, g.N())
	wantM, err := sim.Run(g, sim.Config{Seed: 19, Engine: sim.EngineLegacy}, func(env *sim.Env) {
		wantOne[env.ID()] = Local(env, isSource(env.ID()), rounds)
		wantAll[env.ID()] = LocalAll(env, isSource(env.ID()), rounds)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []sim.Engine{sim.EngineLegacy, sim.EngineStep} {
		gotOne := make([]int64, g.N())
		gotAll := make([][]int64, g.N())
		gotM, err := sim.RunStep(g, sim.Config{Seed: 19, Engine: eng}, func(env *sim.Env) sim.StepProgram {
			id := env.ID()
			return sim.Sequence(
				func(env *sim.Env) sim.StepProgram {
					return NewLocalMachine(env, isSource(id), rounds, func(d int64) { gotOne[id] = d })
				},
				func(env *sim.Env) sim.StepProgram {
					return NewLocalAllMachine(env, isSource(id), rounds, func(v []int64) { gotAll[id] = v })
				},
			)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantOne, gotOne) || !reflect.DeepEqual(wantAll, gotAll) {
			t.Errorf("engine=%s: results differ", eng)
		}
		if wantM != gotM {
			t.Errorf("engine=%s: metrics differ: %+v vs %+v", eng, wantM, gotM)
		}
	}
}
