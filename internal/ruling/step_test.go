package ruling

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// TestMachineMatchesCompute proves the step machine byte-identical to the
// goroutine form on every engine: same membership, same Metrics.
func TestMachineMatchesCompute(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid": graph.Grid(5, 6),
		"path": graph.Path(23),
	}
	for name, g := range graphs {
		for _, mu := range []int{1, 3} {
			want := make([]bool, g.N())
			wantM, err := sim.Run(g, sim.Config{Seed: 11, Engine: sim.EngineLegacy}, func(env *sim.Env) {
				want[env.ID()] = Compute(env, mu)
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, eng := range []sim.Engine{sim.EngineLegacy, sim.EngineStep} {
				got := make([]bool, g.N())
				gotM, err := sim.RunStep(g, sim.Config{Seed: 11, Engine: eng}, func(env *sim.Env) sim.StepProgram {
					m := NewMachine(env, mu)
					return sim.Sequence(
						func(*sim.Env) sim.StepProgram { return m },
						sim.Finish(func(env *sim.Env) { got[env.ID()] = m.InSet }),
					)
				})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s mu=%d engine=%s: memberships differ", name, mu, eng)
				}
				if wantM != gotM {
					t.Errorf("%s mu=%d engine=%s: metrics differ: %+v vs %+v", name, mu, eng, wantM, gotM)
				}
			}
		}
	}
}
