package sim

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/graph"
)

// TestPoolSpinNeedsAProcPerShard pins when the worker pool polls instead of
// parking: only under the step engine, and only when every shard has a P of
// its own. A poller that shared its P with the goroutine it waits for
// would delay that goroutine by the whole spin bound.
func TestPoolSpinNeedsAProcPerShard(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	g := graph.Grid(4, 4)
	for _, tc := range []struct {
		procs, shards int
		step, spin    bool
	}{
		{procs: 2, shards: 2, step: true, spin: true},
		{procs: 4, shards: 2, step: true, spin: true},
		{procs: 1, shards: 2, step: true, spin: false},
		{procs: 2, shards: 3, step: true, spin: false},
		{procs: 2, shards: 2, step: false, spin: false},
		{procs: 2, shards: 1, step: true, spin: false},
	} {
		runtime.GOMAXPROCS(tc.procs)
		e, err := newEngine(g, Config{Shards: tc.shards})
		if err != nil {
			t.Fatal(err)
		}
		e.stepMode = tc.step
		e.initSharded()
		e.stopSharded()
		if e.poolSpin != tc.spin {
			t.Errorf("GOMAXPROCS=%d shards=%d step=%v: poolSpin=%v, want %v",
				tc.procs, tc.shards, tc.step, e.poolSpin, tc.spin)
		}
	}
}

// TestPoolRecv checks both paths of poolRecv: a value already queued, a
// value that arrives only after the spin bound (the receiver has parked),
// and a closed channel.
func TestPoolRecv(t *testing.T) {
	for _, spin := range []bool{false, true} {
		ch := make(chan int, 1)
		ch <- 7
		if v, ok := poolRecv(ch, spin); v != 7 || !ok {
			t.Fatalf("spin=%v: queued value: got %d, %v", spin, v, ok)
		}
		go func() {
			time.Sleep(5 * poolSpinWait)
			ch <- 8
		}()
		if v, ok := poolRecv(ch, spin); v != 8 || !ok {
			t.Fatalf("spin=%v: late value: got %d, %v", spin, v, ok)
		}
		close(ch)
		if _, ok := poolRecv(ch, spin); ok {
			t.Fatalf("spin=%v: closed channel reported ok", spin)
		}
	}
}
