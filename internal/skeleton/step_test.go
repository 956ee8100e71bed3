package skeleton

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

var stepEngines = []sim.Engine{sim.EngineLegacy, sim.EngineStep}

// TestExploreMachineMatches proves the exploration machine byte-identical
// to LimitedExplore on every engine.
func TestExploreMachineMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := graph.WithRandomWeights(graph.Grid(6, 6), 5, rng)
	isSource := func(id int) bool { return id%4 == 0 }
	const rounds = 7

	type res struct {
		near []int64
		hops []int
	}
	want := make([]res, g.N())
	wantM, err := sim.Run(g, sim.Config{Seed: 13, Engine: sim.EngineLegacy}, func(env *sim.Env) {
		n, h := LimitedExplore(env, isSource(env.ID()), rounds)
		want[env.ID()] = res{n, h}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range stepEngines {
		got := make([]res, g.N())
		gotM, err := sim.RunStep(g, sim.Config{Seed: 13, Engine: eng}, func(env *sim.Env) sim.StepProgram {
			m := NewExploreMachine(env, isSource(env.ID()), rounds)
			return sim.Sequence(
				func(*sim.Env) sim.StepProgram { return m },
				sim.Finish(func(env *sim.Env) { got[env.ID()] = res{m.Near, m.Hops} }),
			)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("engine=%s: exploration results differ", eng)
		}
		if wantM != gotM {
			t.Errorf("engine=%s: metrics differ: %+v vs %+v", eng, wantM, gotM)
		}
	}
}

// TestFloodVectorsMachineMatches proves the vector-flood machine
// byte-identical to FloodVectors on every engine.
func TestFloodVectorsMachineMatches(t *testing.T) {
	g := graph.Grid(5, 5)
	mineOf := func(id, n int) []int64 {
		if id%3 != 0 {
			return nil
		}
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(id*100 + i)
		}
		return v
	}
	const radius = 4
	want := make([]map[int][]int64, g.N())
	wantM, err := sim.Run(g, sim.Config{Seed: 14, Engine: sim.EngineLegacy}, func(env *sim.Env) {
		want[env.ID()] = labelsToMap(FloodVectors(env, mineOf(env.ID(), env.N()), radius))
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range stepEngines {
		got := make([]map[int][]int64, g.N())
		gotM, err := sim.RunStep(g, sim.Config{Seed: 14, Engine: eng}, func(env *sim.Env) sim.StepProgram {
			m := NewFloodVectorsMachine(env, mineOf(env.ID(), env.N()), radius)
			return sim.Sequence(
				func(*sim.Env) sim.StepProgram { return m },
				sim.Finish(func(env *sim.Env) { got[env.ID()] = labelsToMap(&m.Known) }),
			)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("engine=%s: flood results differ", eng)
		}
		if wantM != gotM {
			t.Errorf("engine=%s: metrics differ: %+v vs %+v", eng, wantM, gotM)
		}
	}
}

// labelsToMap drains a flood result into a plain map for DeepEqual
// comparison across the two execution forms.
func labelsToMap(l *Labels) map[int][]int64 {
	out := map[int][]int64{}
	for _, k := range l.AppendSortedKeys(nil) {
		v, _ := l.Get(k)
		out[int(k)] = v
	}
	return out
}

// TestComputeMachineMatches proves the Algorithm 6 machine byte-identical
// to Compute on every engine (including the membership sampling).
func TestComputeMachineMatches(t *testing.T) {
	g := graph.Path(40)
	p := Params{X: 0.5}
	want := make([]Result, g.N())
	wantM, err := sim.Run(g, sim.Config{Seed: 15, Engine: sim.EngineLegacy}, func(env *sim.Env) {
		want[env.ID()] = Compute(env, p, env.ID() == 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range stepEngines {
		got := make([]Result, g.N())
		gotM, err := sim.RunStep(g, sim.Config{Seed: 15, Engine: eng}, func(env *sim.Env) sim.StepProgram {
			m := NewComputeMachine(env, p, env.ID() == 0)
			return sim.Sequence(
				func(*sim.Env) sim.StepProgram { return m },
				sim.Finish(func(env *sim.Env) { got[env.ID()] = m.Res }),
			)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("engine=%s: skeleton results differ", eng)
		}
		if wantM != gotM {
			t.Errorf("engine=%s: metrics differ: %+v vs %+v", eng, wantM, gotM)
		}
	}
}
