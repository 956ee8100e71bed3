package cliquesim

import (
	"reflect"
	"testing"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/skeleton"
)

var stepEngines = []sim.Engine{sim.EngineLegacy, sim.EngineStep}

// distill reduces a Result to comparable content: the shared index space
// and each member's final diameter answer (the factory below runs MM with
// the diameter tail).
func distill(results []Result) ([][]int, []int64) {
	members := make([][]int, len(results))
	diams := make([]int64, len(results))
	for v, r := range results {
		members[v] = r.Members
		diams[v] = -1
		if r.Node != nil {
			if dn, ok := r.Node.(clique.DiameterNode); ok {
				diams[v] = dn.Diameter()
			}
		}
	}
	return members, diams
}

// TestSimulateMachineMatches proves the step form of the CLIQUE simulation
// (one SessionMachine, then a RouteMachine per simulated round) byte-
// identical to Simulate on every engine, with real messages (semiring MM).
func TestSimulateMachineMatches(t *testing.T) {
	g := graph.Grid(6, 6)
	sp := skeleton.Params{X: 0.6}
	n := g.N()

	want := make([]Result, n)
	factory := SharedFactory(func(q int, _ []int) clique.Algorithm { return clique.NewMM(q, true) })
	wantM, err := sim.Run(g, sim.Config{Seed: 29, Engine: sim.EngineLegacy}, func(env *sim.Env) {
		skel := skeleton.Compute(env, sp, false)
		want[env.ID()] = Simulate(env, skel, sp.SampleProb(n), factory, routing.Params{})
	})
	if err != nil {
		t.Fatal(err)
	}
	wantMembers, wantDiams := distill(want)

	for _, eng := range stepEngines {
		got := make([]Result, n)
		factory := SharedFactory(func(q int, _ []int) clique.Algorithm { return clique.NewMM(q, true) })
		gotM, err := sim.RunStep(g, sim.Config{Seed: 29, Engine: eng}, func(env *sim.Env) sim.StepProgram {
			id := env.ID()
			var skelM *skeleton.ComputeMachine
			return sim.Sequence(
				func(env *sim.Env) sim.StepProgram {
					skelM = skeleton.NewComputeMachine(env, sp, false)
					return skelM
				},
				func(env *sim.Env) sim.StepProgram {
					return NewSimulateMachine(env, skelM.Res, sp.SampleProb(n), factory,
						routing.Params{}, func(r Result) { got[id] = r })
				},
			)
		})
		if err != nil {
			t.Fatalf("engine=%s: %v", eng, err)
		}
		gotMembers, gotDiams := distill(got)
		if !reflect.DeepEqual(wantMembers, gotMembers) {
			t.Errorf("engine=%s: member lists differ", eng)
		}
		if !reflect.DeepEqual(wantDiams, gotDiams) {
			t.Errorf("engine=%s: simulated diameters differ", eng)
		}
		if wantM != gotM {
			t.Errorf("engine=%s: metrics differ: %+v vs %+v", eng, wantM, gotM)
		}
	}
}

// TestSimulateMachineSessionCache runs the machine with a shared session
// cache across two runs: the second must reuse the session (fewer rounds)
// and still produce identical simulation output.
func TestSimulateMachineSessionCache(t *testing.T) {
	g := graph.Grid(6, 6)
	sp := skeleton.Params{X: 0.6}
	n := g.N()
	cache := routing.NewSessionCache()

	run := func() ([]Result, sim.Metrics) {
		got := make([]Result, n)
		factory := SharedFactory(func(q int, _ []int) clique.Algorithm { return clique.NewMM(q, true) })
		m, err := sim.RunStep(g, sim.Config{Seed: 29, Engine: sim.EngineStep}, func(env *sim.Env) sim.StepProgram {
			id := env.ID()
			var skelM *skeleton.ComputeMachine
			return sim.Sequence(
				func(env *sim.Env) sim.StepProgram {
					skelM = skeleton.NewComputeMachine(env, sp, false)
					return skelM
				},
				func(env *sim.Env) sim.StepProgram {
					return NewSimulateMachine(env, skelM.Res, sp.SampleProb(n), factory,
						routing.Params{Cache: cache}, func(r Result) { got[id] = r })
				},
			)
		})
		if err != nil {
			t.Fatal(err)
		}
		return got, m
	}
	first, firstM := run()
	second, secondM := run()
	fm, fd := distill(first)
	sm, sd := distill(second)
	if !reflect.DeepEqual(fm, sm) || !reflect.DeepEqual(fd, sd) {
		t.Error("cached re-run changed simulation output")
	}
	if secondM.Rounds >= firstM.Rounds {
		t.Errorf("session cache saved nothing: %d rounds vs %d", secondM.Rounds, firstM.Rounds)
	}
}
