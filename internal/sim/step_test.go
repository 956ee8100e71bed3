package sim

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

// stepChatter is a native StepProgram version of chatterProgram: same
// messages, same randomness, same uneven finishing times, same accumulator.
// It exists so the engine matrix is tested with a step-native workload, not
// only through the goroutine adapter.
type stepChatter struct {
	out    []int64
	rounds int
	acc    int64
	i      int
}

func newStepChatter(env *Env, out []int64) *stepChatter {
	return &stepChatter{out: out, rounds: 6 + env.ID()%5, acc: int64(env.ID())}
}

func (c *stepChatter) Step(env *Env) bool {
	if c.i > 0 {
		in := env.Incoming()
		for _, lm := range in.Local {
			c.acc = c.acc*31 + int64(lm.From)
			if v, ok := lm.Payload.(int64); ok {
				c.acc = c.acc*31 + v
			}
		}
		for _, gm := range in.Global {
			c.acc = c.acc*31 + int64(gm.Src)*8191 + gm.F1*13 + gm.F2
		}
	}
	if c.i == c.rounds {
		c.out[env.ID()] = c.acc
		return true
	}
	r := c.i
	for _, nb := range env.Neighbors() {
		if env.Rand().Intn(2) == 0 {
			env.SendLocal(nb.To, int64(env.ID()*1000+r))
		}
	}
	sends := env.Rand().Intn(env.GlobalCap() + 1)
	for s := 0; s < sends; s++ {
		env.SendGlobal(env.Rand().Intn(env.N()), Kind(r), int64(env.ID()), int64(r), int64(s), 7)
	}
	c.i++
	return false
}

// TestStepNativeAgrees runs the native step chatter on both in-process
// engines (DriveProgram on EngineLegacy, the bare loop on EngineStep) and
// against the goroutine chatterProgram as oracle: three executions, one
// answer.
func TestStepNativeAgrees(t *testing.T) {
	g := graph.Grid(6, 7)
	for seed := int64(1); seed <= 3; seed++ {
		oracleOut, oracleM := runChatter(t, g, Config{Seed: seed, Engine: EngineLegacy})
		for _, eng := range []Engine{EngineLegacy, EngineStep} {
			out := make([]int64, g.N())
			m, err := RunStep(g, Config{Seed: seed, Engine: eng}, func(env *Env) StepProgram {
				return newStepChatter(env, out)
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(oracleOut, out) {
				t.Fatalf("seed %d engine %s: step-native results differ from goroutine oracle", seed, eng)
			}
			if oracleM != m {
				t.Fatalf("seed %d engine %s: metrics differ: %+v vs %+v", seed, eng, oracleM, m)
			}
		}
	}
}

// TestStepShardCountInvariance: like TestShardCountInvariance, for a
// step-native program.
func TestStepShardCountInvariance(t *testing.T) {
	g := graph.Grid(5, 8)
	base := make([]int64, g.N())
	baseM, err := RunStep(g, Config{Seed: 11, Engine: EngineStep, Shards: 1}, func(env *Env) StepProgram {
		return newStepChatter(env, base)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3, 7, 16, 40, 1000} {
		out := make([]int64, g.N())
		m, err := RunStep(g, Config{Seed: 11, Engine: EngineStep, Shards: shards}, func(env *Env) StepProgram {
			return newStepChatter(env, out)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, out) {
			t.Fatalf("shards=%d: results differ from shards=1", shards)
		}
		if m != baseM {
			t.Fatalf("shards=%d: metrics differ: %+v vs %+v", shards, m, baseM)
		}
	}
}

// TestLoopSemantics pins the Loop contract: Recv for round i-1 before Send
// for round i, exactly Rounds round barriers, mid-segment finish.
func TestLoopSemantics(t *testing.T) {
	g := graph.Path(2)
	var trace []string
	m, err := RunStep(g, Config{Seed: 1, Engine: EngineStep}, func(env *Env) StepProgram {
		if env.ID() != 0 {
			return &Loop{Rounds: 3}
		}
		return &Loop{
			Rounds: 3,
			Send:   func(env *Env, i int) { trace = append(trace, fmt.Sprintf("send%d", i)) },
			Recv:   func(env *Env, in Inbox, i int) { trace = append(trace, fmt.Sprintf("recv%d", i)) },
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"send0", "recv0", "send1", "recv1", "send2", "recv2"}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	if m.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", m.Rounds)
	}
	// A zero-round Loop consumes no barriers at all.
	m, err = RunStep(g, Config{Seed: 1, Engine: EngineStep}, func(env *Env) StepProgram {
		return &Loop{Rounds: 0}
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rounds != 0 {
		t.Fatalf("zero-round loop took %d rounds", m.Rounds)
	}
}

// TestSequenceMidSegmentHandoff: two chained loops must behave exactly like
// the goroutine program that calls the two collective phases back to back —
// the second phase's first sends share a round with the first phase's last
// receive.
func TestSequenceMidSegmentHandoff(t *testing.T) {
	g := graph.Path(6)
	oracle := make([]int, g.N())
	oracleM, err := Run(g, Config{Seed: 2, Engine: EngineLegacy}, func(env *Env) {
		got := 0
		for i := 0; i < 2; i++ { // phase A: flood own ID right for 2 rounds
			if env.ID()+1 < env.N() {
				env.SendLocal(env.ID()+1, int64(env.ID()))
			}
			in := env.Step()
			got += len(in.Local)
		}
		for i := 0; i < 2; i++ { // phase B: flood left
			if env.ID() > 0 {
				env.SendLocal(env.ID()-1, int64(env.ID()))
			}
			in := env.Step()
			got += len(in.Local)
		}
		oracle[env.ID()] = got
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []Engine{EngineLegacy, EngineStep} {
		out := make([]int, g.N())
		m, err := RunStep(g, Config{Seed: 2, Engine: eng}, func(env *Env) StepProgram {
			got := 0
			mk := func(right bool) *Loop {
				return &Loop{
					Rounds: 2,
					Send: func(env *Env, i int) {
						if right && env.ID()+1 < env.N() {
							env.SendLocal(env.ID()+1, int64(env.ID()))
						}
						if !right && env.ID() > 0 {
							env.SendLocal(env.ID()-1, int64(env.ID()))
						}
					},
					Recv: func(env *Env, in Inbox, i int) { got += len(in.Local) },
				}
			}
			return Sequence(
				func(env *Env) StepProgram { return mk(true) },
				func(env *Env) StepProgram { return mk(false) },
				Finish(func(env *Env) { out[env.ID()] = got }),
			)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(oracle, out) {
			t.Fatalf("engine %s: handoff results differ: %v vs %v", eng, out, oracle)
		}
		if m != oracleM {
			t.Fatalf("engine %s: metrics differ: %+v vs %+v", eng, m, oracleM)
		}
	}
}

// TestStepProgramMustNotCallEnvStep: calling the blocking Env.Step from a
// native machine is a programming error the engine reports, not a hang.
func TestStepProgramMustNotCallEnvStep(t *testing.T) {
	g := graph.Path(2)
	_, err := RunStep(g, Config{Seed: 1, Engine: EngineStep}, func(env *Env) StepProgram {
		return StepFunc(func(env *Env) bool {
			env.Step()
			return true
		})
	})
	if err == nil || !strings.Contains(err.Error(), "use Incoming") {
		t.Fatalf("err = %v, want Env.Step rejection", err)
	}
}

// TestAdapterMaxRounds: a never-finishing adapted Program must hit the
// MaxRounds guard on the step engine and unwind its goroutines cleanly.
func TestAdapterMaxRounds(t *testing.T) {
	g := graph.Path(4)
	_, err := Run(g, Config{Seed: 1, Engine: EngineStep, MaxRounds: 50}, func(env *Env) {
		for {
			env.Step()
		}
	})
	if !errors.Is(err, ErrTooManyRounds) {
		t.Fatalf("err = %v, want ErrTooManyRounds", err)
	}
}

// TestStepNativeMaxRounds: same guard for a never-finishing native machine.
func TestStepNativeMaxRounds(t *testing.T) {
	g := graph.Path(4)
	_, err := RunStep(g, Config{Seed: 1, Engine: EngineStep, MaxRounds: 50}, func(env *Env) StepProgram {
		return StepFunc(func(env *Env) bool { return false })
	})
	if !errors.Is(err, ErrTooManyRounds) {
		t.Fatalf("err = %v, want ErrTooManyRounds", err)
	}
}

// TestStepEngineViolationsReported: model violations inside a machine
// surface as run errors with the engine's usual message.
func TestStepEngineViolationsReported(t *testing.T) {
	g := graph.Path(4)
	_, err := RunStep(g, Config{Seed: 1, Engine: EngineStep}, func(env *Env) StepProgram {
		return StepFunc(func(env *Env) bool {
			if env.ID() == 2 {
				env.SendLocal(0, "not my neighbor") // 0 is two hops away
			}
			return true
		})
	})
	if err == nil || !strings.Contains(err.Error(), "non-neighbor") {
		t.Fatalf("err = %v, want non-neighbor violation", err)
	}
}

// TestStepEnginePanicCaptured: a panicking machine fails the run like a
// panicking Program does.
func TestStepEnginePanicCaptured(t *testing.T) {
	g := graph.Path(3)
	_, err := RunStep(g, Config{Seed: 1, Engine: EngineStep}, func(env *Env) StepProgram {
		return StepFunc(func(env *Env) bool {
			if env.ID() == 1 {
				panic("boom")
			}
			return false
		})
	})
	if err == nil || !strings.Contains(err.Error(), "node 1 panicked") {
		t.Fatalf("err = %v, want node panic report", err)
	}
}

// TestStepUnevenFinish: nodes finishing at different rounds must still
// produce the goroutine engine's round accounting (a finisher's last sends
// are delivered; Metrics.Rounds is the max over nodes).
func TestStepUnevenFinish(t *testing.T) {
	g := graph.Complete(9)
	oracle := make([]int64, g.N())
	oracleM, err := Run(g, Config{Seed: 3, Engine: EngineLegacy}, func(env *Env) {
		total := int64(0)
		for r := 0; r <= env.ID(); r++ {
			env.BroadcastLocal(int64(env.ID()))
			in := env.Step()
			for _, lm := range in.Local {
				total += lm.Payload.(int64)
			}
		}
		oracle[env.ID()] = total
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []Engine{EngineLegacy, EngineStep} {
		out := make([]int64, g.N())
		m, err := RunStep(g, Config{Seed: 3, Engine: eng}, func(env *Env) StepProgram {
			total := int64(0)
			return &Loop{
				Rounds: env.ID() + 1,
				Send:   func(env *Env, i int) { env.BroadcastLocal(int64(env.ID())) },
				Recv: func(env *Env, in Inbox, i int) {
					for _, lm := range in.Local {
						total += lm.Payload.(int64)
					}
					if i == env.ID() {
						out[env.ID()] = total
					}
				},
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(oracle, out) {
			t.Fatalf("engine %s: results differ: %v vs %v", eng, out, oracle)
		}
		if m != oracleM {
			t.Fatalf("engine %s: metrics differ: %+v vs %+v", eng, m, oracleM)
		}
	}
}

// TestLocalBitsAccounting pins the LocalBits metric: payloads implementing
// WordSized are charged their word count, others one word, scaled by logN
// bits, identically on every engine.
func TestLocalBitsAccounting(t *testing.T) {
	g := graph.Path(4)
	logN := int64(Log2Ceil(g.N()))
	for _, eng := range []Engine{EngineLegacy, EngineStep} {
		m, err := Run(g, Config{Seed: 1, Engine: eng}, func(env *Env) {
			if env.ID() == 1 {
				env.SendLocal(0, fourWordPayload{}) // 4 words
				env.SendLocal(2, "opaque")          // default: 1 word
			}
			env.Step()
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := 5 * logN; m.LocalBits != want {
			t.Fatalf("engine %s: LocalBits = %d, want %d", eng, m.LocalBits, want)
		}
		if m.LocalMsgs != 2 {
			t.Fatalf("engine %s: LocalMsgs = %d, want 2", eng, m.LocalMsgs)
		}
	}
}

type fourWordPayload struct{}

func (fourWordPayload) PayloadWords() int64 { return 4 }

func benchStepEngineRounds(b *testing.B, eng Engine, traffic bool) {
	g := graph.Grid(32, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := RunStep(g, Config{Engine: eng}, func(env *Env) StepProgram {
			return &Loop{
				Rounds: 200,
				Send: func(env *Env, r int) {
					if traffic {
						env.BroadcastLocal(r)
						env.SendGlobal((env.ID()+r)%env.N(), 0, 1, 2, 3, 4)
					}
				},
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// The step-native engine benchmarks measure the same workloads as
// benchEngineRounds with no goroutines at all: the gap to
// BenchmarkEngineBarrierLegacy is the scheduler wake/park cost (and, with
// traffic, the allocating delivery) the step engine deletes.
func BenchmarkEngineBarrierStep(b *testing.B) { benchStepEngineRounds(b, EngineStep, false) }
func BenchmarkEngineTrafficStep(b *testing.B) { benchStepEngineRounds(b, EngineStep, true) }

// TestAdapterGroupMixedNodes runs the chatter workload with half the nodes
// adapted legacy Programs (driven by the per-shard adapter multiplexer)
// and half native step machines, across several shard counts, against the
// legacy engine as oracle. It pins the multiplexer's byte-identity on the
// hardest layout: adapted and native nodes interleaved inside one shard.
func TestAdapterGroupMixedNodes(t *testing.T) {
	g := graph.Grid(9, 9)
	oracle, oracleM := runChatter(t, g, Config{Seed: 42, Engine: EngineLegacy})
	for _, shards := range []int{1, 3, 16} {
		out := make([]int64, g.N())
		adapted := AdaptProgram(chatterProgram(out))
		m, err := RunStep(g, Config{Seed: 42, Engine: EngineStep, Shards: shards}, func(env *Env) StepProgram {
			if env.ID()%2 == 0 {
				return adapted(env)
			}
			return newStepChatter(env, out)
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(oracle, out) {
			t.Errorf("shards=%d: mixed adapted/native results diverge from legacy oracle", shards)
		}
		if oracleM != m {
			t.Errorf("shards=%d: metrics diverge: legacy %+v step %+v", shards, oracleM, m)
		}
	}
}

// TestAdapterGroupPanic pins the multiplexer's abort path: a panicking
// adapted program must surface as a run error and unwind every parked
// member of every group without deadlocking.
func TestAdapterGroupPanic(t *testing.T) {
	g := graph.Grid(6, 6)
	_, err := Run(g, Config{Engine: EngineStep, Shards: 4}, func(env *Env) {
		for r := 0; ; r++ {
			if env.ID() == 13 && r == 3 {
				panic("boom")
			}
			env.Step()
		}
	})
	if err == nil || !strings.Contains(err.Error(), "node 13 panicked") {
		t.Fatalf("err = %v, want node 13 panic", err)
	}
}

// benchAdaptedEngineRounds measures legacy Programs under EngineStep. The
// default path goes through the per-shard adapter multiplexer (one
// broadcast wake per shard per round); perNode forces the pre-multiplexer
// per-node channel protocol by nesting the adapter inside a composite
// machine, so the pair isolates the multiplexer's win.
func benchAdaptedEngineRounds(b *testing.B, perNode, traffic bool) {
	g := graph.Grid(32, 32)
	b.ReportAllocs()
	program := func(env *Env) {
		for r := 0; r < 200; r++ {
			if traffic {
				env.BroadcastLocal(r)
				env.SendGlobal((env.ID()+r)%env.N(), 0, 1, 2, 3, 4)
			}
			env.Step()
		}
	}
	factory := AdaptProgram(program)
	if perNode {
		inner := factory
		factory = func(env *Env) StepProgram {
			return Sequence(func(env *Env) StepProgram { return inner(env) })
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunStep(g, Config{Engine: EngineStep}, factory); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineBarrierAdapted(b *testing.B) { benchAdaptedEngineRounds(b, false, false) }
func BenchmarkEngineTrafficAdapted(b *testing.B) { benchAdaptedEngineRounds(b, false, true) }
func BenchmarkEngineBarrierAdapterPerNode(b *testing.B) {
	benchAdaptedEngineRounds(b, true, false)
}
func BenchmarkEngineTrafficAdapterPerNode(b *testing.B) {
	benchAdaptedEngineRounds(b, true, true)
}

// TestNestedAdapterAbortReleases pins the abort path for adapters nested
// inside composite machines (the per-node protocol): an aborting run must
// wake every parked nested program so its goroutine unwinds, instead of
// leaking it parked in Env.Step forever.
func TestNestedAdapterAbortReleases(t *testing.T) {
	g := graph.Grid(4, 4)
	var unwound atomic.Int32
	inner := AdaptProgram(func(env *Env) {
		defer unwound.Add(1)
		for {
			env.Step() // never finishes; only the abort unwinds it
		}
	})
	_, err := RunStep(g, Config{Engine: EngineStep, MaxRounds: 20}, func(env *Env) StepProgram {
		return Sequence(func(env *Env) StepProgram { return inner(env) })
	})
	if !errors.Is(err, ErrTooManyRounds) {
		t.Fatalf("err = %v, want ErrTooManyRounds", err)
	}
	if got := unwound.Load(); got != int32(g.N()) {
		t.Fatalf("%d of %d nested adapted programs unwound after abort", got, g.N())
	}
}
