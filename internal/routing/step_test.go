package routing

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/helpers"
	"repro/internal/sim"
)

var stepEngines = []sim.Engine{sim.EngineLegacy, sim.EngineStep}

// buildStepInstance constructs a small everyone-sends routing instance.
func buildStepInstance(n int) []Spec {
	specs := make([]Spec, n)
	rng := rand.New(rand.NewSource(31))
	for v := 0; v < n; v++ {
		r := rng.Intn(n)
		tok := Token{Label: Label{S: v, R: r, I: 0}, Value: int64(v * 7)}
		specs[v].Send = []Token{tok}
		specs[v].InS = true
		specs[r].InR = true
		specs[r].Expect = append(specs[r].Expect, tok.Label)
	}
	kR := 1
	for v := range specs {
		if len(specs[v].Expect) > kR {
			kR = len(specs[v].Expect)
		}
	}
	for v := range specs {
		specs[v].KS = 1
		specs[v].KR = kR
		specs[v].PS = 1
		specs[v].PR = 1
	}
	return specs
}

// TestRouteProgramMatchesRoute proves the step form of the full routing
// protocol byte-identical to Route on every engine.
func TestRouteProgramMatchesRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.SparseConnected(40, 1.3, rng)
	specs := buildStepInstance(g.N())
	if err := Validate(specs); err != nil {
		t.Fatal(err)
	}

	want := make([][]Token, g.N())
	wantM, err := sim.Run(g, sim.Config{Seed: 12, Engine: sim.EngineLegacy}, func(env *sim.Env) {
		want[env.ID()] = Route(env, specs[env.ID()], Params{})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range stepEngines {
		got := make([][]Token, g.N())
		gotM, err := sim.RunStep(g, sim.Config{Seed: 12, Engine: eng}, func(env *sim.Env) sim.StepProgram {
			id := env.ID()
			return NewRouteProgram(env, specs[id], Params{}, func(toks []Token) { got[id] = toks })
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("engine=%s: routed tokens differ", eng)
		}
		if wantM != gotM {
			t.Errorf("engine=%s: metrics differ: %+v vs %+v", eng, wantM, gotM)
		}
	}
}

// TestAnnounceMachineRetention: the step announce flood must produce the
// goroutine announceHelpers directory exactly (every H_w sorted and
// capacity-capped, so appending to one set cannot clobber the next), and
// must drop its dedup set once done without losing the directory.
func TestAnnounceMachineRetention(t *testing.T) {
	g := graph.Grid(6, 6)
	const mu, seed = 2, 5
	inW := func(v int) bool { return v%3 == 0 }

	want := make([]map[int][]int, g.N())
	if _, err := sim.Run(g, sim.Config{Seed: seed, Engine: sim.EngineLegacy}, func(env *sim.Env) {
		res := helpers.Compute(env, inW(env.ID()), mu, helpers.Params{})
		want[env.ID()] = announceHelpers(env, res, mu)
	}); err != nil {
		t.Fatal(err)
	}
	got := make([]*announceMachine, g.N())
	if _, err := sim.RunStep(g, sim.Config{Seed: seed, Engine: sim.EngineStep}, func(env *sim.Env) sim.StepProgram {
		var hm *helpers.Machine
		return sim.Sequence(
			func(env *sim.Env) sim.StepProgram {
				hm = helpers.NewMachine(env, inW(env.ID()), mu, helpers.Params{})
				return hm
			},
			func(env *sim.Env) sim.StepProgram {
				got[env.ID()] = newAnnounceMachine(env, hm.Res, mu)
				return got[env.ID()]
			},
		)
	}); err != nil {
		t.Fatal(err)
	}

	pairs := 0
	for v, a := range got {
		if !reflect.DeepEqual(a.Sets, want[v]) {
			t.Fatalf("node %d: step directory %v, goroutine directory %v", v, a.Sets, want[v])
		}
		for w, hs := range a.Sets {
			if !sort.IntsAreSorted(hs) || cap(hs) != len(hs) {
				t.Fatalf("node %d: H_%d = %v (cap %d) is not a sorted, capped window", v, w, hs, cap(hs))
			}
			pairs += len(hs)
		}
		if a.known.Len() != 0 || a.known.Cap() != 0 || a.delta != nil {
			t.Fatalf("node %d: announce scratch kept after done (known %d/%d, delta %d)", v, a.known.Len(), a.known.Cap(), len(a.delta))
		}
		if !a.Step(nil) || !reflect.DeepEqual(a.Sets, want[v]) {
			t.Fatalf("node %d: Step after done must keep reporting done with the directory intact", v)
		}
	}
	if pairs == 0 {
		t.Fatal("no helper was announced; the instance is trivial")
	}
}
