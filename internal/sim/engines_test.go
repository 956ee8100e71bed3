package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// chatterProgram is a deliberately messy workload for engine-equivalence
// tests: per-node random local and global traffic, uneven finishing times,
// and an accumulator that is sensitive to both inbox ordering and content.
func chatterProgram(out []int64) Program {
	return func(env *Env) {
		rounds := 6 + env.ID()%5
		acc := int64(env.ID())
		for r := 0; r < rounds; r++ {
			for _, nb := range env.Neighbors() {
				if env.Rand().Intn(2) == 0 {
					env.SendLocal(nb.To, int64(env.ID()*1000+r))
				}
			}
			sends := env.Rand().Intn(env.GlobalCap() + 1)
			for s := 0; s < sends; s++ {
				env.SendGlobal(env.Rand().Intn(env.N()), Kind(r), int64(env.ID()), int64(r), int64(s), 7)
			}
			in := env.Step()
			for _, lm := range in.Local {
				acc = acc*31 + int64(lm.From)
				if v, ok := lm.Payload.(int64); ok {
					acc = acc*31 + v
				}
			}
			for _, gm := range in.Global {
				acc = acc*31 + int64(gm.Src)*8191 + gm.F1*13 + gm.F2
			}
		}
		out[env.ID()] = acc
	}
}

func runChatter(t *testing.T, g *graph.Graph, cfg Config) ([]int64, Metrics) {
	t.Helper()
	out := make([]int64, g.N())
	m, err := Run(g, cfg, chatterProgram(out))
	if err != nil {
		t.Fatal(err)
	}
	return out, m
}

// TestEnginesAgree is the core differential test: for several topologies
// and seeds, the legacy and step engines must produce byte-identical
// per-node results and Metrics.
func TestEnginesAgree(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid":     graph.Grid(6, 7),
		"path":     graph.Path(33),
		"complete": graph.Complete(17),
	}
	for name, g := range graphs {
		for seed := int64(1); seed <= 3; seed++ {
			legacyOut, legacyM := runChatter(t, g, Config{Seed: seed, Engine: EngineLegacy})
			out, m := runChatter(t, g, Config{Seed: seed, Engine: EngineStep})
			if !reflect.DeepEqual(legacyOut, out) {
				t.Fatalf("%s seed %d: per-node results differ between legacy and step", name, seed)
			}
			if legacyM != m {
				t.Fatalf("%s seed %d: metrics differ: legacy %+v step %+v", name, seed, legacyM, m)
			}
		}
	}
}

// TestShardCountInvariance: the step engine's results must not depend on
// the shard count (delivery order is (sender ID, send order) by
// construction, whatever the sharding). The program is a goroutine
// Program, so this also covers the per-shard adapter groups.
func TestShardCountInvariance(t *testing.T) {
	g := graph.Grid(5, 8)
	baseOut, baseM := runChatter(t, g, Config{Engine: EngineStep, Seed: 11, Shards: 1})
	for _, shards := range []int{2, 3, 7, 16, 40, 1000} {
		out, m := runChatter(t, g, Config{Engine: EngineStep, Seed: 11, Shards: shards})
		if !reflect.DeepEqual(baseOut, out) {
			t.Fatalf("shards=%d: results differ from shards=1", shards)
		}
		if m != baseM {
			t.Fatalf("shards=%d: metrics differ: %+v vs %+v", shards, m, baseM)
		}
	}
}

// TestShardedInboxReuseSafe: the inbox returned by Step is valid until the
// next Step call even though the step engine recycles buffers. A program
// that reads its inbox as late as legally possible must see intact data.
func TestShardedInboxReuseSafe(t *testing.T) {
	g := graph.Path(8)
	sums := make([]int64, g.N())
	_, err := Run(g, Config{Engine: EngineStep, Seed: 4}, func(env *Env) {
		var held Inbox
		for r := 0; r < 20; r++ {
			// Read the PREVIOUS round's inbox only now, just before Step.
			for _, gm := range held.Global {
				sums[env.ID()] += gm.F0
			}
			env.SendGlobal((env.ID()+1)%env.N(), 0, int64(r), 0, 0, 0)
			held = env.Step()
		}
		for _, gm := range held.Global {
			sums[env.ID()] += gm.F0
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(20 * 19 / 2) // rounds 0..19 from the left neighbor
	for v, s := range sums {
		if s != want {
			t.Fatalf("node %d accumulated %d, want %d", v, s, want)
		}
	}
}

// TestShardedViolationsDeterministic: when several nodes exceed the strict
// receive cap in the same round, the step engine must report the
// lowest-ID violator regardless of worker scheduling.
func TestShardedViolationsDeterministic(t *testing.T) {
	g := graph.Path(64)
	for _, shards := range []int{1, 4, 16} {
		_, err := Run(g, Config{Engine: EngineStep, StrictRecvFactor: 1, Shards: shards}, func(env *Env) {
			// Everyone floods both node 5 and node 50.
			if env.ID() != 5 && env.ID() != 50 {
				env.SendGlobal(5, 0, 0, 0, 0, 0)
				env.SendGlobal(50, 0, 0, 0, 0, 0)
			}
			env.Step()
		})
		if err == nil {
			t.Fatalf("shards=%d: want strict-recv violation", shards)
		}
		const want = "sim: node 5 received"
		if got := err.Error(); len(got) < len(want) || got[:len(want)] != want {
			t.Fatalf("shards=%d: err = %q, want prefix %q", shards, got, want)
		}
	}
}

// TestEngineString pins the flag/benchmark labels and the default: the
// zero Config runs EngineStep. ParseEngine inverts String for the three
// engines and rejects everything else.
func TestEngineString(t *testing.T) {
	want := map[Engine]string{EngineStep: "step", EngineLegacy: "legacy", EngineDist: "dist", Engine(99): "Engine(99)"}
	for e, name := range want {
		if e.String() != name {
			t.Errorf("engine %d is named %q, want %q", int(e), e, name)
		}
	}
	if (Config{}).Engine != EngineStep {
		t.Errorf("the zero Config runs %s, want step", Config{}.Engine)
	}
	for _, e := range []Engine{EngineStep, EngineLegacy, EngineDist} {
		if got, err := ParseEngine(e.String()); err != nil || got != e {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", e, got, err, e)
		}
	}
	for _, name := range []string{"sharded", "", "Step", "Engine(99)"} {
		if _, err := ParseEngine(name); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown engine %q", name)) {
			t.Errorf("ParseEngine(%q): err = %v, want unknown engine", name, err)
		}
	}
}

// TestUnknownEngineRejected: an Engine value outside the three is a
// configuration error on both entry points, not a silent fallback.
func TestUnknownEngineRejected(t *testing.T) {
	g := graph.Path(4)
	for _, eng := range []Engine{Engine(-1), Engine(3), Engine(99)} {
		cfg := Config{Engine: eng}
		ran := false
		_, err := Run(g, cfg, func(env *Env) { ran = true })
		if err == nil || !strings.Contains(err.Error(), "unknown engine") {
			t.Errorf("Run with %v: err = %v, want unknown engine", eng, err)
		}
		_, err = RunStep(g, cfg, func(env *Env) StepProgram {
			ran = true
			return StepFunc(func(*Env) bool { return true })
		})
		if err == nil || !strings.Contains(err.Error(), "unknown engine") {
			t.Errorf("RunStep with %v: err = %v, want unknown engine", eng, err)
		}
		if ran {
			t.Errorf("engine %v ran a node program", eng)
		}
	}
}

func benchEngineRounds(b *testing.B, eng Engine, traffic bool) {
	g := graph.Grid(32, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := Run(g, Config{Engine: eng}, func(env *Env) {
			for r := 0; r < 200; r++ {
				if traffic {
					env.BroadcastLocal(r)
					env.SendGlobal((env.ID()+r)%env.N(), 0, 1, 2, 3, 4)
				}
				env.Step()
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// The barrier benchmarks isolate the goroutine engine's round-boundary
// cost (no messages); the traffic benchmarks add a broadcast plus one
// global message per node per round, the regime where the legacy
// coordinator's fresh inboxes cost the most. BenchmarkEngine*Step in
// step_test.go runs the same workloads on the step engine.
func BenchmarkEngineBarrierLegacy(b *testing.B) { benchEngineRounds(b, EngineLegacy, false) }
func BenchmarkEngineTrafficLegacy(b *testing.B) { benchEngineRounds(b, EngineLegacy, true) }
