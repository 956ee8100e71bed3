package sim

import (
	"runtime"
	"testing"
	"weak"
)

// scratch stands in for a phase's working state. It is large enough to get
// its own allocation, so a weak pointer to it goes nil exactly when the
// value becomes unreachable.
type scratch struct{ buf [1024]int64 }

// collected forces a collection and reports whether w's value is gone.
func collected(w weak.Pointer[scratch]) bool {
	runtime.GC()
	return w.Value() == nil
}

// runToDone steps sp on env until it reports done.
func runToDone(t *testing.T, env *Env, sp StepProgram) {
	t.Helper()
	for i := 0; !sp.Step(env); i++ {
		if i > 100 {
			t.Fatal("machine did not finish")
		}
	}
}

// TestSequenceReleasesFinishedPhases: state captured only by a Sequence's
// phase closures (and the child machines they built) must be collectable
// once the Sequence reports done, even while the Sequence itself is still
// reachable — the engine may hold a finished composite for the rest of the
// run.
func TestSequenceReleasesFinishedPhases(t *testing.T) {
	env := &Env{}
	var w weak.Pointer[scratch]
	seq := func() StepProgram {
		s := &scratch{}
		w = weak.Make(s)
		var child *Loop
		return Sequence(
			func(env *Env) StepProgram {
				child = &Loop{Rounds: 2, Send: func(env *Env, i int) { s.buf[i]++ }}
				return child
			},
			Finish(func(env *Env) { s.buf[2] = s.buf[0] + s.buf[1] + int64(child.Rounds) }),
		)
	}()
	runToDone(t, env, seq)
	if !collected(w) {
		t.Fatal("a finished Sequence still pins the state its phases captured")
	}
	if !seq.Step(env) {
		t.Fatal("Step after done must keep reporting done")
	}
	runtime.KeepAlive(seq)
}

// TestLoopReleasesCallbacks: state captured only by a Loop's Send and Recv
// must be collectable once the Loop reports done.
func TestLoopReleasesCallbacks(t *testing.T) {
	env := &Env{}
	var wSend, wRecv weak.Pointer[scratch]
	loop := func() *Loop {
		s, r := &scratch{}, &scratch{}
		wSend, wRecv = weak.Make(s), weak.Make(r)
		return &Loop{
			Rounds: 3,
			Send:   func(env *Env, i int) { s.buf[i]++ },
			Recv:   func(env *Env, in Inbox, i int) { r.buf[i] += int64(len(in.Local)) },
		}
	}()
	runToDone(t, env, loop)
	if !collected(wSend) || !collected(wRecv) {
		t.Fatal("a finished Loop still pins the state its callbacks captured")
	}
	if !loop.Step(env) {
		t.Fatal("Step after done must keep reporting done")
	}
	runtime.KeepAlive(loop)
}
