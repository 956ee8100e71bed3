package sim

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/graph"
)

// TestPoolSpinNeedsAProcPerShard pins when the worker pool polls instead of
// parking: only when every shard has a P and a CPU of its own. A poller
// that shared its P or its CPU with the goroutine it waits for would delay
// that goroutine by the whole spin bound.
func TestPoolSpinNeedsAProcPerShard(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cpus := runtime.NumCPU()
	g := graph.Path(16 * (cpus + 1)) // every case gets the shards it asks for
	for _, tc := range []struct {
		procs, shards int
		spin          bool // when the machine has at least shards CPUs
	}{
		{procs: 2, shards: 2, spin: true},
		{procs: 4, shards: 2, spin: true},
		{procs: 1, shards: 2, spin: false},
		{procs: 2, shards: 3, spin: false},
		{procs: 2, shards: 1, spin: false},
		// More Ps than CPUs: one shard per P would oversubscribe the CPUs.
		{procs: cpus + 1, shards: cpus + 1, spin: false},
	} {
		runtime.GOMAXPROCS(tc.procs)
		e, err := newEngine(g, Config{Shards: tc.shards})
		if err != nil {
			t.Fatal(err)
		}
		e.initSharded()
		e.stopSharded()
		if want := tc.spin && tc.shards <= cpus; e.poolSpin != want {
			t.Errorf("GOMAXPROCS=%d shards=%d NumCPU=%d: poolSpin=%v, want %v",
				tc.procs, tc.shards, cpus, e.poolSpin, want)
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
