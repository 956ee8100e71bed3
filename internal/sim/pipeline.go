package sim

import "repro/internal/graph"

// Pipeline bundles the two execution forms of one collective algorithm —
// the blocking goroutine form and the resumable step-machine form — behind
// a single value, so callers can hold one code path and still select any
// engine. It is the contract every algorithm package exports to be
// "engine-complete": the two forms must be faithful twins (identical
// messages, randomness order, and round count for a fixed seed), which the
// per-package differential tests enforce with the goroutine form as the
// oracle. ARCHITECTURE.md's "Pipeline contract" section documents the
// porting rules.
type Pipeline[T any] struct {
	// Run executes the algorithm collectively as a blocking Program at one
	// node and returns that node's result. It is the form the goroutine
	// engine, EngineLegacy, executes.
	Run func(env *Env) T

	// Machine builds the node's algorithm as a resumable state machine and
	// arranges for done to receive the node's result when the machine
	// finishes. It is the form EngineStep executes natively — no per-node
	// goroutine, no adapter fallback.
	Machine func(env *Env, done func(T)) StepProgram
}

// RunPipeline executes p on every node of g under cfg, dispatching on the
// engine: the step-native machine form on EngineStep and EngineDist, the
// blocking closure on EngineLegacy. It returns the per-node results
// indexed by node ID, with Run's usual error contract.
func RunPipeline[T any](g *graph.Graph, cfg Config, p Pipeline[T]) ([]T, Metrics, error) {
	out := make([]T, g.N())
	var m Metrics
	var err error
	if cfg.Engine != EngineLegacy {
		m, err = RunStep(g, cfg, func(env *Env) StepProgram {
			id := env.ID()
			return p.Machine(env, func(res T) { out[id] = res })
		})
	} else {
		m, err = Run(g, cfg, func(env *Env) {
			out[env.ID()] = p.Run(env)
		})
	}
	if err != nil {
		return nil, m, err
	}
	return out, m, nil
}
