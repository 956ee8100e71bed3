package sim

import (
	"fmt"
	"sync/atomic"

	"repro/internal/graph"
)

// This file implements EngineStep, the goroutine-free round engine, and the
// StepProgram execution model it runs.
//
// The goroutine engine (EngineLegacy) executes each node's Program as a
// blocking goroutine and synchronizes them at a barrier inside Env.Step.
// That is maximally convenient to program against, but it puts two
// scheduler wake/park cycles on every (node, round) pair: at n = 16384 the
// barrier alone costs ~0.4µs/node/round and dominates APSP wall clock.
//
// EngineStep removes the floor by inverting control: each node is an
// explicit resumable state machine (StepProgram) and the engine's round
// loop IS the barrier —
//
//	for every round:
//	    for every unfinished node (shard-parallel):
//	        install the node's inbox; run its StepProgram.Step
//	    deliver staged messages (the sharded delivery path, sharded.go)
//
// No node blocks, so no node ever parks or wakes: a round costs one
// function call per node plus delivery.
//
// # The StepProgram contract
//
// One Step call executes exactly the code a Program would run between two
// consecutive Env.Step calls (one "round segment"):
//
//   - Read the round's inbox with Env.Incoming (empty on the first call).
//     The slices are owned by the node until its next round segment and
//     must not be retained, exactly like Env.Step's return value.
//   - Stage sends with SendLocal / BroadcastLocal / SendGlobal as usual.
//   - Return false to take the round barrier, true when the node is done.
//     Returning true consumes no further rounds: it corresponds to a
//     Program returning, and like a returning Program the node's staged
//     messages are still delivered.
//
// A StepProgram must never call Env.Step (the engine panics if it does) and
// never blocks; composition replaces blocking. Chain, Sequence, Finish and
// Loop cover the compositions the paper's algorithms need: collective
// phases run one after another by handing the round mid-segment from a
// finishing machine to its successor, which reproduces the goroutine
// programs' behavior exactly — a finishing phase only reads its last inbox,
// a starting phase only sends, so both share one round segment the same way
// sequential calls share a round between two Env.Step calls.
//
// # Compatibility across engines
//
// Both program models run on every engine:
//
//   - A Program runs on EngineStep and EngineDist through a goroutine-backed
//     adapter (AdaptProgram): the program keeps its blocking style and
//     yields to the engine loop at every Env.Step. This keeps every
//     algorithm working on every engine, at roughly the goroutine engine's
//     per-round cost.
//   - A StepProgram runs on EngineLegacy through DriveProgram, which
//     replays the engine loop's install-inbox/step cycle inside the node's
//     goroutine.
//
// Either way, for a fixed seed every engine produces byte-identical
// results and Metrics; the differential tests (engines_test.go here and at
// the repository root) enforce this across the execution-model matrix.

// StepProgram is a node's algorithm as an explicit resumable state machine:
// Step executes one round segment and reports whether the node is done. See
// the contract above.
type StepProgram interface {
	Step(env *Env) (done bool)
}

// StepFactory builds one node's StepProgram. It runs before the first
// round; construction may read env (ID, Rand, topology) and corresponds to
// a Program's code before its first Env.Step... which is exactly where the
// machine's first Step call begins, so factories should only allocate and
// sample, not send. (Sends staged during construction would still be
// delivered in round 1, but keeping them in Step keeps the two execution
// models aligned line for line.)
type StepFactory func(env *Env) StepProgram

// StepFunc adapts a plain function to the StepProgram interface.
type StepFunc func(env *Env) bool

// Step implements StepProgram.
func (f StepFunc) Step(env *Env) bool { return f(env) }

// Chain runs machines produced on demand, one after another: when the
// current machine finishes, next is called immediately — within the same
// round segment — to produce its successor, and a nil return finishes the
// chain. next sees every predecessor's result (via the closure) and may
// decide data-dependently, which is what the protocols' aggregate-and-
// continue loops need (e.g. routing's reply drain). A finished chain drops
// next, releasing everything its closure captured, and keeps reporting
// done.
func Chain(next func(env *Env) StepProgram) StepProgram {
	return &chain{next: next}
}

type chain struct {
	next func(env *Env) StepProgram
	cur  StepProgram
	done bool
}

// Step implements StepProgram.
func (c *chain) Step(env *Env) bool {
	if c.done {
		return true
	}
	for {
		if c.cur == nil {
			if c.cur = c.next(env); c.cur == nil {
				// Drop the generator: its closure is what keeps the
				// finished children (and their scratch) reachable.
				c.done, c.next = true, nil
				return true
			}
		}
		if !c.cur.Step(env) {
			return false
		}
		c.cur = nil
	}
}

// Sequence chains a fixed list of phases. Each phase is a thunk evaluated
// lazily when its turn comes — mid-segment, exactly where the goroutine
// program would call the corresponding collective function — so per-node
// randomness and sends are consumed in identical order on every engine. A
// thunk may return nil to skip its phase.
func Sequence(phases ...func(env *Env) StepProgram) StepProgram {
	i := 0
	return Chain(func(env *Env) StepProgram {
		for i < len(phases) {
			p := phases[i](env)
			i++
			if p != nil {
				return p
			}
		}
		return nil
	})
}

// Finish wraps a zero-round computation as a Sequence/Chain phase: f runs
// mid-segment when the phase is reached (typically combining the results of
// the preceding machines) and consumes no rounds.
func Finish(f func(env *Env)) func(env *Env) StepProgram {
	return func(env *Env) StepProgram {
		f(env)
		return nil
	}
}

// Loop is the step form of the canonical collective round pattern
//
//	for i := 0; i < rounds; i++ {
//		send(i)
//		in := env.Step()
//		recv(in, i)
//	}
//
// which nearly every phase of the paper's protocols instantiates (floods,
// paced global sends, tree aggregations). One Step call runs Recv for the
// round that just ended (skipped before the first round), then Send for the
// next; the machine finishes — mid-segment, after its last Recv — once Send
// has run Rounds times. Either callback may be nil. A Loop is single-use:
// it drops both callbacks when it finishes, releasing what they captured,
// and keeps reporting done.
type Loop struct {
	Rounds int
	Send   func(env *Env, i int)
	Recv   func(env *Env, in Inbox, i int)
	i      int
}

// Step implements StepProgram.
func (l *Loop) Step(env *Env) bool {
	if l.i > 0 && l.Recv != nil {
		l.Recv(env, env.Incoming(), l.i-1)
	}
	if l.i >= l.Rounds {
		l.Send, l.Recv = nil, nil
		return true
	}
	if l.Send != nil {
		l.Send(env, l.i)
	}
	l.i++
	return false
}

// DriveProgram runs a StepProgram to completion on the goroutine engine by
// replaying the step engine's install-inbox/step cycle inside the node's
// Program goroutine. It is how step-native algorithms stay runnable (and
// differentially testable) on EngineLegacy.
func DriveProgram(env *Env, sp StepProgram) {
	env.curInbox = Inbox{}
	for !sp.Step(env) {
		env.curInbox = env.Step()
	}
}

// AsProgram converts a StepFactory into a Program for the goroutine
// engine.
func AsProgram(factory StepFactory) Program {
	return func(env *Env) {
		DriveProgram(env, factory(env))
	}
}

// adapterBuilds counts programAdapter constructions — legacy Programs
// falling back to the goroutine-backed compatibility path under the step
// engine. The facade's step-nativeness test reads it to assert that no
// public algorithm silently regresses onto the adapter.
var adapterBuilds atomic.Int64

// AdapterBuilds reports how many legacy Programs have been wrapped for the
// step engine since process start. A step-native pipeline run on
// EngineStep must not advance it.
func AdapterBuilds() int64 { return adapterBuilds.Load() }

// AdaptProgram converts a legacy Program into a StepFactory backed by one
// goroutine per node: the program keeps its blocking style, parking in
// Env.Step until the engine loop's next round. This is the compatibility
// path that keeps un-ported algorithms running on EngineStep — correct and
// byte-identical, but it reintroduces the per-node wake/park cost the
// step-native ports avoid. Top-level adapted programs are driven by a
// per-shard multiplexer (see adapterGroup); adapters nested inside
// composite machines fall back to the per-node channel protocol.
func AdaptProgram(program Program) StepFactory {
	return func(env *Env) StepProgram {
		adapterBuilds.Add(1)
		return &programAdapter{
			program: program,
			resume:  make(chan struct{}, 1),
			yield:   make(chan bool, 1),
		}
	}
}

// programAdapter runs a blocking Program under the step engine. In the
// per-node protocol (adapters nested inside composite machines) the
// engine's Step call and the program strictly alternate over the
// resume/yield channels, both buffered so neither side can block the other
// during shutdown. Top-level adapters are instead driven collectively by
// their shard's adapterGroup: group is set at registration and switches
// await/run to the broadcast-wake protocol.
type programAdapter struct {
	program  Program
	started  bool
	returned bool // program returned; its goroutine is gone (per-node protocol)
	resume   chan struct{}
	yield    chan bool // false: round segment done; true: program returned
	group    *adapterGroup
}

// adapterGroup drives all top-level adapted Programs of one shard with one
// broadcast wake per round instead of two channel handoffs per node: the
// shard worker swaps-and-closes the group's release channel, waking every
// parked program at once, and the last member to finish its round segment
// signals done. The members' round segments therefore run concurrently —
// exactly as the goroutine engine runs all programs concurrently, so any
// program correct there is correct here — while the shard worker steps its
// native machines inline and then waits for the group.
type adapterGroup struct {
	members []*Env // envs of this shard's adapted programs
	started bool
	release atomic.Value  // chan struct{}; closed to wake the group
	pending atomic.Int32  // members still to arrive this round
	done    chan struct{} // cap 1; signaled by the last arrival
}

func newAdapterGroup() *adapterGroup {
	g := &adapterGroup{done: make(chan struct{}, 1)}
	g.release.Store(make(chan struct{}))
	return g
}

// arrive reports one member's round segment finished (or its program
// returned, or unwound after an abort); the last arrival wakes the engine.
func (g *adapterGroup) arrive() {
	if g.pending.Add(-1) == 0 {
		g.done <- struct{}{}
	}
}

// wake releases every member parked in await. The members loaded the old
// release channel before arriving last round, so closing it wakes exactly
// the parked generation; the swap happens before the close, so a waking
// member always parks on the new channel next.
func (g *adapterGroup) wake() {
	old := g.release.Load().(chan struct{})
	g.release.Store(make(chan struct{}))
	close(old)
}

// initAdapterGroups partitions top-level adapted Programs into per-shard
// groups. Runs once, after the machines are built and before round 0.
func (e *engine) initAdapterGroups() {
	for i, sp := range e.progs {
		a, ok := sp.(*programAdapter)
		if !ok || e.envs[i].finished {
			continue
		}
		if e.adGroups == nil {
			e.adGroups = make([]*adapterGroup, e.nShards)
		}
		k := e.shardOf(i)
		g := e.adGroups[k]
		if g == nil {
			g = newAdapterGroup()
			e.adGroups[k] = g
		}
		env := e.envs[i]
		a.group = g
		env.adapter = a
		g.members = append(g.members, env)
	}
}

// Step implements StepProgram: resume the program goroutine (starting it on
// the first call) and wait until it parks in Env.Step or returns.
func (a *programAdapter) Step(env *Env) bool {
	if !a.started {
		a.started = true
		env.adapter = a
		go a.run(env)
	} else {
		a.resume <- struct{}{}
	}
	done := <-a.yield
	if done {
		a.returned = true
	}
	return done
}

// run executes the program on its own goroutine, mirroring the goroutine
// engine's panic handling. Group-driven members report completion to their
// group; per-node adapters yield to the engine's Step call.
func (a *programAdapter) run(env *Env) {
	defer func() {
		if r := recover(); r != nil {
			if r != errAbort { //nolint:errorlint // sentinel identity check
				env.eng.fail(fmt.Errorf("sim: node %d panicked: %v", env.id, r))
			}
		}
		if a.group != nil {
			env.finished = true
			a.group.arrive()
			return
		}
		a.yield <- true
	}()
	a.program(env)
}

// await is the Env.Step implementation for adapted programs: yield the
// round segment to the engine loop and park until the next round's inbox is
// installed. Group-driven members arrive at the group barrier and park on
// the shared release channel (loaded before arriving, exactly like the
// goroutine engine's barrier); per-node adapters use the resume/yield
// protocol.
func (a *programAdapter) await(env *Env) Inbox {
	if env.eng.aborted.Load() {
		panic(errAbort)
	}
	if g := a.group; g != nil {
		rel := g.release.Load().(chan struct{})
		g.arrive()
		<-rel
		if env.eng.aborted.Load() {
			panic(errAbort)
		}
		return env.curInbox
	}
	a.yield <- false
	<-a.resume
	if env.eng.aborted.Load() {
		panic(errAbort)
	}
	return env.curInbox
}

// RunStep executes one StepProgram per node of g under cfg and returns the
// collected metrics; it is to StepPrograms what Run is to Programs, with
// the same error contract. Under EngineStep and EngineDist the machines
// run natively on the goroutine-free loop; under EngineLegacy they run
// through DriveProgram, so callers can hold one code path and still select
// any engine.
func RunStep(g *graph.Graph, cfg Config, factory StepFactory) (Metrics, error) {
	if cfg.Engine == EngineLegacy {
		return Run(g, cfg, AsProgram(factory))
	}
	eng, err := newEngine(g, cfg)
	if eng == nil {
		return Metrics{}, err
	}
	eng.stepMode = true
	eng.distMode = cfg.Engine == EngineDist
	eng.initSharded()
	defer eng.stopSharded()
	if eng.distMode {
		if err := eng.startDist(); err != nil {
			return Metrics{}, err
		}
		defer eng.distRouter.Close()
	}
	eng.runStepLoop(factory)
	if eng.distMode {
		if fl, ok := eng.distRouter.(DistFlusher); ok {
			if err := fl.Flush(); err != nil {
				eng.fail(err)
			}
		}
	}
	return eng.results()
}

// runStepLoop is the EngineStep main loop: construct the machines, then
// alternate round segments with sharded delivery until every node is done.
// Unlike coordinate() there is nothing to wake or park — the loop iterates.
func (e *engine) runStepLoop(factory StepFactory) {
	e.stepInit(factory)
	for !e.stepAdvance() {
	}
}

// stepInit constructs the machines and arms the step loop's progress
// counter; it runs before round 0, exactly once per run.
func (e *engine) stepInit(factory StepFactory) {
	e.progs = make([]StepProgram, e.n)
	for i, env := range e.envs {
		e.progs[i] = e.buildProg(factory, env)
	}
	e.initAdapterGroups()
	e.stepActive = e.n
}

// stepAdvance executes one iteration of the step loop — one round segment
// for every unfinished node plus delivery — and reports whether the run is
// over (every node done, or aborted). It is the unit Stepper.Advance
// exposes; runStepLoop is nothing but stepInit plus stepAdvance-until-true.
func (e *engine) stepAdvance() bool {
	e.stepGeneration()
	e.stepActive -= e.deliverRound()
	if e.generation >= e.cfg.MaxRounds {
		e.fail(fmt.Errorf("%w (%d)", ErrTooManyRounds, e.cfg.MaxRounds))
	}
	e.roundBoundary()
	if e.aborted.Load() {
		e.releaseAdapters()
		return true
	}
	return e.stepActive == 0
}

// Stepper exposes the EngineStep main loop one delivered round at a time,
// for harnesses that interleave measurement with the engine's progress —
// the allocation-regression tests advance through a run's warmup and then
// assert that further rounds allocate nothing. Only EngineStep is
// supported: the goroutine engine has no externally steppable loop.
//
// A Stepper must be finished exactly once (Finish stops the worker pool);
// Advance after the run completed is a no-op.
type Stepper struct {
	eng  *engine
	done bool
}

// NewStepper builds the engine and the per-node machines (round 0 has not
// run yet) and returns the paused run.
func NewStepper(g *graph.Graph, cfg Config, factory StepFactory) (*Stepper, error) {
	if cfg.Engine != EngineStep {
		return nil, fmt.Errorf("sim: Stepper requires EngineStep, got %v", cfg.Engine)
	}
	eng, err := newEngine(g, cfg)
	if eng == nil {
		return nil, err
	}
	eng.stepMode = true
	eng.initSharded()
	eng.stepInit(factory)
	return &Stepper{eng: eng}, nil
}

// Advance runs up to `rounds` engine iterations and reports whether the
// run completed (all nodes done or the run aborted).
func (s *Stepper) Advance(rounds int) bool {
	for i := 0; i < rounds && !s.done; i++ {
		s.done = s.eng.stepAdvance()
	}
	return s.done
}

// Finish drives the run to completion, stops the worker pool, and returns
// the collected metrics with the engines' shared error contract.
func (s *Stepper) Finish() (Metrics, error) {
	for !s.done {
		s.done = s.eng.stepAdvance()
	}
	s.eng.stopSharded()
	return s.eng.results()
}

// buildProg constructs one node's machine with the engines' shared panic
// contract: a panicking factory fails the run and finishes the node.
func (e *engine) buildProg(factory StepFactory, env *Env) (sp StepProgram) {
	defer func() {
		if r := recover(); r != nil {
			if r != errAbort { //nolint:errorlint // sentinel identity check
				e.fail(fmt.Errorf("sim: node %d panicked: %v", env.id, r))
			}
			env.finished = true
		}
	}()
	return factory(env)
}

// stepGeneration advances every unfinished node by one round segment,
// shard-parallel when the worker pool exists (the calling goroutine takes
// shard 0).
func (e *engine) stepGeneration() {
	for k := 1; k < e.nShards; k++ {
		e.workCh <- shardTask{k: k, step: true}
	}
	e.stepShard(0)
	for k := 1; k < e.nShards; k++ {
		poolRecv(e.resCh, e.poolSpin)
	}
}

// stepShard runs one round segment for the nodes of shard k: install each
// node's inbox for the generation being executed and call its machine.
// Workers touch disjoint node state, and sends stage into per-sender
// buckets, so concurrent shards need no locks (the same disjointness
// argument as runShard). The shard's adapted programs, if any, are woken
// first and run concurrently while the native machines are stepped inline;
// the worker then waits for the group before returning.
func (e *engine) stepShard(k int) {
	lo := k * e.shardSize
	hi := lo + e.shardSize
	if hi > e.n {
		hi = e.n
	}
	gen := e.generation // deliveries completed so far
	p := gen & 1
	var g *adapterGroup
	if e.adGroups != nil {
		g = e.adGroups[k]
	}
	if g != nil {
		active := int32(0)
		for _, env := range g.members {
			if env.finished {
				continue
			}
			env.round = gen
			if gen > 0 {
				env.curInbox = Inbox{Local: env.inLocalBuf[p], Global: env.inGlobalBuf[p]}
			} else {
				env.curInbox = Inbox{}
			}
			active++
		}
		if active == 0 {
			g = nil
		} else {
			g.pending.Store(active)
			if !g.started {
				g.started = true
				for _, env := range g.members {
					go env.adapter.run(env)
				}
			} else {
				g.wake()
			}
		}
	}
	for v := lo; v < hi; v++ {
		env := e.envs[v]
		// Group members are skipped before their finished flag is read:
		// their run goroutines may still be writing it this round.
		if env.adapter != nil && env.adapter.group != nil {
			continue
		}
		if env.finished {
			continue
		}
		env.round = gen
		if gen > 0 {
			env.curInbox = Inbox{Local: env.inLocalBuf[p], Global: env.inGlobalBuf[p]}
		} else {
			env.curInbox = Inbox{}
		}
		e.stepNode(env, v)
	}
	if g != nil {
		<-g.done
	}
}

// stepNode runs one machine call under the engines' shared panic contract.
func (e *engine) stepNode(env *Env, v int) {
	defer func() {
		if r := recover(); r != nil {
			if r != errAbort { //nolint:errorlint // sentinel identity check
				e.fail(fmt.Errorf("sim: node %d panicked: %v", v, r))
			}
			env.finished = true
		}
	}()
	if e.progs[v].Step(env) {
		env.finished = true
	}
}

// releaseAdapters unblocks adapted-program goroutines parked in Env.Step
// after an abort, so they observe the abort flag and unwind. Native
// machines hold no goroutines and need no cleanup.
func (e *engine) releaseAdapters() {
	// Group-driven adapters: wake each group once; the parked members see
	// the abort flag, unwind, and arrive through run's deferred handler.
	for _, g := range e.adGroups {
		if g == nil || !g.started {
			continue
		}
		active := int32(0)
		for _, env := range g.members {
			if !env.finished {
				active++
			}
		}
		if active == 0 {
			continue
		}
		g.pending.Store(active)
		g.wake()
		<-g.done
	}
	// Per-node adapters (nested inside composite machines): reachable only
	// through env.adapter, which tracks the node's most recent adapter —
	// earlier ones in a sequence have necessarily returned. A returned
	// adapter's goroutine is gone; resuming it would block forever.
	for _, env := range e.envs {
		a := env.adapter
		if a == nil || a.group != nil || !a.started || a.returned || env.finished {
			continue
		}
		a.resume <- struct{}{}
		<-a.yield
		env.finished = true
	}
}
