package ncc

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

var stepEngines = []sim.Engine{sim.EngineLegacy, sim.EngineStep}

// TestAggregateMachineMatches proves the aggregation machine byte-identical
// to Aggregate on every engine.
func TestAggregateMachineMatches(t *testing.T) {
	g := graph.Grid(5, 7)
	for _, op := range []AggOp{AggMax, AggMin, AggSum} {
		want := make([]int64, g.N())
		wantM, err := sim.Run(g, sim.Config{Seed: 5, Engine: sim.EngineLegacy}, func(env *sim.Env) {
			want[env.ID()] = Aggregate(env, int64(env.ID()*3%17), op)
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range stepEngines {
			got := make([]int64, g.N())
			gotM, err := sim.RunStep(g, sim.Config{Seed: 5, Engine: eng}, func(env *sim.Env) sim.StepProgram {
				m := NewAggregateMachine(env, int64(env.ID()*3%17), op)
				return sim.Sequence(
					func(*sim.Env) sim.StepProgram { return m },
					sim.Finish(func(env *sim.Env) { got[env.ID()] = m.Out }),
				)
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("op=%v engine=%s: results differ", op, eng)
			}
			if wantM != gotM {
				t.Errorf("op=%v engine=%s: metrics differ: %+v vs %+v", op, eng, wantM, gotM)
			}
		}
	}
}

// TestBroadcastWordsMachineMatches proves the broadcast machine
// byte-identical to BroadcastWords on every engine.
func TestBroadcastWordsMachineMatches(t *testing.T) {
	g := graph.Path(19)
	words := []int64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	const maxWords = 12
	want := make([][]int64, g.N())
	wantM, err := sim.Run(g, sim.Config{Seed: 6, Engine: sim.EngineLegacy}, func(env *sim.Env) {
		var w []int64
		if env.ID() == 2 {
			w = words
		}
		want[env.ID()] = BroadcastWords(env, 2, w, maxWords)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range stepEngines {
		got := make([][]int64, g.N())
		gotM, err := sim.RunStep(g, sim.Config{Seed: 6, Engine: eng}, func(env *sim.Env) sim.StepProgram {
			var w []int64
			if env.ID() == 2 {
				w = words
			}
			m := NewBroadcastWordsMachine(env, 2, w, maxWords)
			return sim.Sequence(
				func(*sim.Env) sim.StepProgram { return m },
				sim.Finish(func(env *sim.Env) { got[env.ID()] = m.Out }),
			)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("engine=%s: word vectors differ", eng)
		}
		if wantM != gotM {
			t.Errorf("engine=%s: metrics differ: %+v vs %+v", eng, wantM, gotM)
		}
	}
}

// TestDisseminateMachineMatches proves the dissemination machine
// byte-identical to Disseminate on every engine.
func TestDisseminateMachineMatches(t *testing.T) {
	g := graph.Grid(6, 6)
	mineOf := func(id int) []Token {
		if id%5 != 0 {
			return nil
		}
		return []Token{{A: int64(id), B: int64(id * 2), C: 7}, {A: int64(id), B: int64(id*2 + 1), C: 8}}
	}
	k, ell := 2*(g.N()/5+1), 2
	want := make([][]Token, g.N())
	wantM, err := sim.Run(g, sim.Config{Seed: 7, Engine: sim.EngineLegacy}, func(env *sim.Env) {
		want[env.ID()] = Disseminate(env, mineOf(env.ID()), k, ell, DisseminateParams{})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range stepEngines {
		got := make([][]Token, g.N())
		gotM, err := sim.RunStep(g, sim.Config{Seed: 7, Engine: eng}, func(env *sim.Env) sim.StepProgram {
			m := NewDisseminateMachine(env, mineOf(env.ID()), k, ell, DisseminateParams{})
			return sim.Sequence(
				func(*sim.Env) sim.StepProgram { return m },
				sim.Finish(func(env *sim.Env) { got[env.ID()] = m.Out }),
			)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("engine=%s: token sets differ", eng)
		}
		if wantM != gotM {
			t.Errorf("engine=%s: metrics differ: %+v vs %+v", eng, wantM, gotM)
		}
	}
}
