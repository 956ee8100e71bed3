package sim

import (
	"reflect"
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
// and seeds, the legacy and sharded engines must produce byte-identical
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
			for _, eng := range []Engine{EngineSharded, EngineStep} {
				out, m := runChatter(t, g, Config{Seed: seed, Engine: eng})
				if !reflect.DeepEqual(legacyOut, out) {
					t.Fatalf("%s seed %d: per-node results differ between legacy and %s", name, seed, eng)
				}
				if legacyM != m {
					t.Fatalf("%s seed %d: metrics differ: legacy %+v %s %+v", name, seed, legacyM, eng, m)
				}
			}
		}
	}
}

// TestShardCountInvariance: the sharded engine's results must not depend on
// the shard count (delivery order is (sender ID, send order) by
// construction, whatever the sharding).
func TestShardCountInvariance(t *testing.T) {
	g := graph.Grid(5, 8)
	baseOut, baseM := runChatter(t, g, Config{Engine: EngineSharded, Seed: 11, Shards: 1})
	for _, shards := range []int{2, 3, 7, 16, 40, 1000} {
		out, m := runChatter(t, g, Config{Engine: EngineSharded, Seed: 11, Shards: shards})
		if !reflect.DeepEqual(baseOut, out) {
			t.Fatalf("shards=%d: results differ from shards=1", shards)
		}
		if m != baseM {
			t.Fatalf("shards=%d: metrics differ: %+v vs %+v", shards, m, baseM)
		}
	}
}

// TestShardedInboxReuseSafe: the inbox returned by Step is valid until the
// next Step call even though the sharded engine recycles buffers. A program
// that reads its inbox as late as legally possible must see intact data.
func TestShardedInboxReuseSafe(t *testing.T) {
	g := graph.Path(8)
	sums := make([]int64, g.N())
	_, err := Run(g, Config{Engine: EngineSharded, Seed: 4}, func(env *Env) {
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
// receive cap in the same round, the sharded engine must report the
// lowest-ID violator regardless of worker scheduling.
func TestShardedViolationsDeterministic(t *testing.T) {
	g := graph.Path(64)
	for _, shards := range []int{1, 4, 16} {
		_, err := Run(g, Config{Engine: EngineSharded, StrictRecvFactor: 1, Shards: shards}, func(env *Env) {
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
// zero Config runs EngineStep.
func TestEngineString(t *testing.T) {
	want := map[Engine]string{EngineStep: "step", EngineSharded: "sharded", EngineLegacy: "legacy", EngineDist: "dist", Engine(99): "Engine(99)"}
	for e, name := range want {
		if e.String() != name {
			t.Errorf("engine %d is named %q, want %q", int(e), e, name)
		}
	}
	if (Config{}).Engine != EngineStep {
		t.Errorf("the zero Config runs %s, want step", Config{}.Engine)
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

// The barrier benchmarks isolate the round-boundary cost (no messages);
// the traffic benchmarks add a broadcast plus one global message per node
// per round, the regime where the sharded engine's reused inboxes and
// bucketed delivery separate from the legacy coordinator.
func BenchmarkEngineBarrierSharded(b *testing.B) { benchEngineRounds(b, EngineSharded, false) }
func BenchmarkEngineBarrierLegacy(b *testing.B)  { benchEngineRounds(b, EngineLegacy, false) }
func BenchmarkEngineTrafficSharded(b *testing.B) { benchEngineRounds(b, EngineSharded, true) }
func BenchmarkEngineTrafficLegacy(b *testing.B)  { benchEngineRounds(b, EngineLegacy, true) }
