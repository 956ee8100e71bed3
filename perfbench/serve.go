package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	hybrid "repro"
	"repro/internal/serve"
	"repro/internal/serve/replay"
)

// serve-zipf shape: a unit is a closed-loop batch at serveConns
// connections, then one open-loop second at serveRate queries/s on the
// same connections with one Server.Reload in it.
const (
	serveConns       = 2
	serveClosedBatch = 10000
	serveRate        = 4000
	serveOpenSpan    = time.Second
	serveReloadAt    = 400 * time.Millisecond
	serveRouteEvery  = 4
	serveZipfS       = 1.2
	serveProbeQs     = 2500
)

// serveInst is the serve-zipf workload after set-up.
type serveInst struct {
	g        *hybrid.Graph
	truth    [][]int64
	srv      *serve.Server
	closedQs []replay.Query
	openQs   []replay.Query
}

func buildTables(g *hybrid.Graph, seed int64) (*serve.Tables, float64, float64, error) {
	t0 := time.Now()
	dist := hybrid.ExactAPSP(g)
	t1 := time.Now()
	next := hybrid.NextHops(g, dist)
	t2 := time.Now()
	tb, err := serve.NewTables(g, dist, next, serve.BuildInfo{Graph: "grid", Seed: seed, Engine: "sequential"})
	return tb, t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), err
}

func setupServe(seed int64) (*serveInst, map[string]float64, error) {
	g := hybrid.GridGraph(32, 32)
	tb, apspS, nextS, err := buildTables(g, seed)
	if err != nil {
		return nil, nil, err
	}
	srv := serve.New(tb)
	srv.SetRebuild(func() (*serve.Tables, error) {
		tb, _, _, err := buildTables(g, seed)
		return tb, err
	})
	n := g.N()
	seq := func(s int64, count int) []replay.Query {
		return replay.Sequence(replay.Config{N: n, Queries: count, Seed: s, ZipfS: serveZipfS, RouteEvery: serveRouteEvery})
	}
	inst := &serveInst{
		g:        g,
		truth:    tb.Dist,
		srv:      srv,
		closedQs: seq(seed, serveClosedBatch),
		openQs:   seq(seed+1_000_003, int(serveRate*serveOpenSpan/time.Second)),
	}
	return inst, map[string]float64{"graph.apsp_s": apspS, "graph.nexthops_s": nextS}, nil
}

// conn is one keep-alive HTTP/1.1 connection driven by a single
// goroutine: it writes each request and reads the response itself, so no
// client transport goroutines sit between the load generator and the
// server.
type conn struct {
	nc  net.Conn
	br  *bufio.Reader
	req []byte
}

func dial(addr string) (*conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{nc: nc, br: bufio.NewReader(nc)}, nil
}

// do sends one query; a broken connection or an unreadable response
// leaves status 0, which the checker counts as a failure.
func (c *conn) do(q replay.Query) query {
	out := query{s: q.S, t: q.T, route: q.Route}
	c.req = append(c.req[:0], "GET /distance?s="...)
	if q.Route {
		c.req = append(c.req[:0], "GET /route?s="...)
	}
	c.req = strconv.AppendInt(c.req, int64(q.S), 10)
	c.req = append(c.req, "&t="...)
	c.req = strconv.AppendInt(c.req, int64(q.T), 10)
	c.req = append(c.req, " HTTP/1.1\r\nHost: perfbench\r\n\r\n"...)
	if _, err := c.nc.Write(c.req); err != nil {
		return out
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return out
	}
	out.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil {
		out.status = resp.StatusCode
	}
	return out
}

// serveUnit is one closed batch plus one open-loop second.
type serveUnit struct {
	closed    meter
	closedUS  []float64 // closed loop, send to answer
	answers   []query
	openUS    []float64 // open loop, from each request's due time
	nearUS    []float64 // open loop, due while the reload was running
	lateUS    []float64 // how far the generator overslept each send
	reloadDur time.Duration
	tally     tally
}

// unit runs one closed batch and one open-loop second. Each phase starts
// from a collected heap, so where the reload's garbage lands in the GC
// cycle is the same in every unit and every process.
func (in *serveInst) unit(rep *report, conns []*conn) serveUnit {
	var u serveUnit
	closed := make([]query, len(in.closedQs))
	u.closedUS = make([]float64, len(in.closedQs))
	var cursor atomic.Int64
	runtime.GC()
	u.closed.time(func() {
		var wg sync.WaitGroup
		for _, c := range conns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(cursor.Add(1) - 1)
					if i >= len(closed) {
						return
					}
					t := time.Now()
					closed[i] = c.do(in.closedQs[i])
					u.closedUS[i] = float64(time.Since(t).Nanoseconds()) / 1e3
				}
			}()
		}
		wg.Wait()
	})

	// Open loop: request i is due at t0 + i/serveRate whatever happened
	// to earlier ones; each connection takes every serveConns-th request.
	// Latency runs from the due time, so waiting for a connection held up
	// by an earlier slow answer counts. Only the generator's own oversleep
	// (it woke after the connection was free and the request was due) is
	// taken out, and reported as loadgen.late_us_p99.
	open := make([]query, len(in.openQs))
	lat := make([]time.Duration, len(open))
	due := make([]time.Time, len(open))
	late := make([]time.Duration, len(open))
	period := time.Second / serveRate
	runtime.GC()
	t0 := time.Now().Add(2 * time.Millisecond)
	var reloadStart, reloadEnd time.Time
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(time.Until(t0.Add(serveReloadAt)))
		reloadStart = time.Now()
		if _, err := in.srv.Reload(); err != nil {
			rep.problem("Reload: %v", err)
		}
		reloadEnd = time.Now()
	}()
	for k, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := t0
			for i := k; i < len(open); i += len(conns) {
				due[i] = t0.Add(time.Duration(i) * period)
				waitUntil(due[i])
				sent := time.Now()
				open[i] = c.do(in.openQs[i])
				done := time.Now()
				late[i] = max(0, sent.Sub(later(due[i], free)))
				lat[i] = done.Sub(due[i]) - late[i]
				free = done
			}
		}()
	}
	wg.Wait()
	u.reloadDur = reloadEnd.Sub(reloadStart)
	for i := range open {
		us := float64(lat[i].Nanoseconds()) / 1e3
		u.openUS = append(u.openUS, us)
		u.lateUS = append(u.lateUS, float64(late[i].Nanoseconds())/1e3)
		if !due[i].Before(reloadStart) && due[i].Before(reloadEnd) {
			u.nearUS = append(u.nearUS, us)
		}
	}
	u.answers = append(closed, open...)
	u.tally = checkQueries(in.g, in.truth, u.answers)
	return u
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// waitUntil blocks until t. time.Sleep rounds sub-millisecond waits up
// to about a millisecond when the process is otherwise idle, which would
// dominate open-loop latency; a raw nanosleep wakes within the kernel's
// timer slack, and the last stretch is spent yielding.
func waitUntil(t time.Time) {
	const slack = 60 * time.Microsecond
	if d := time.Until(t) - slack; d > 0 {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		syscall.Nanosleep(&ts, nil)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// probeHandler times the handler chain alone (no socket) over the first
// serveProbeQs closed-loop queries of each kind.
func (in *serveInst) probeHandler(rep *report) {
	h := in.srv.Handler()
	var w discardWriter
	for _, route := range []bool{false, true} {
		var reqs []*http.Request
		for _, q := range in.closedQs {
			if q.Route != route || len(reqs) == serveProbeQs {
				continue
			}
			path := "/distance"
			if route {
				path = "/route"
			}
			r, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s?s=%d&t=%d", path, q.S, q.T), nil)
			if err != nil {
				rep.problem("probe request: %v", err)
				return
			}
			reqs = append(reqs, r)
		}
		var m meter
		m.time(func() {
			for _, r := range reqs {
				w.reset()
				h.ServeHTTP(&w, r)
			}
		})
		if w.status != http.StatusOK {
			rep.problem("handler probe answered %d", w.status)
		}
		per := float64(m.wall.Nanoseconds()) / float64(len(reqs))
		if route {
			rep.metrics["serve.handler_ns_route"] = per
		} else {
			rep.metrics["serve.handler_ns_distance"] = per
		}
		rep.metrics["serve.alloc_bytes_per_query"] += m.rt.allocBytes / float64(2*len(reqs))
	}
}

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status, so the probe measures the handler rather than a recorder.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) reset() {
	if w.h == nil {
		w.h = make(http.Header)
	}
	clear(w.h)
	w.status = http.StatusOK
}
func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }

// serve-zipf: an in-process serve.Server on loopback with tables from
// graph.APSP and graph.NextHops, so the simulator does no work. Zipf
// sources, uniform targets, one /route in four. Every body is checked.
func runServeZipf(cfg runConfig) (*report, error) {
	rep := newReport()
	inst, err := repeatSetup(rep, func() (*serveInst, map[string]float64, error) { return setupServe(cfg.seed) })
	if err != nil {
		return nil, err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: inst.srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()
	conns := make([]*conn, serveConns)
	for k := range conns {
		if conns[k], err = dial(ln.Addr().String()); err != nil {
			return nil, fmt.Errorf("dial: %w", err)
		}
		defer conns[k].nc.Close()
	}

	if !cfg.trace {
		units := repeatUnits(cfg, func() serveUnit { return inst.unit(rep, conns) })
		var walls, cpus, lat []float64
		for _, u := range units {
			walls = append(walls, u.closed.wall.Seconds())
			cpus = append(cpus, u.closed.cpu.Seconds())
			lat = append(lat, u.closedUS...)
			rep.tally.add(u.tally)
		}
		solve := median(walls)
		rep.metrics["solve_s"] = solve
		rep.metrics["cpu_s"] = median(cpus)
		rep.metrics["ops_per_s"] = serveClosedBatch / solve
		rep.metrics["p50_us"] = median(lat)
		rep.metrics["peak_rss_mb"] = peakRSSMB()
		return rep, nil
	}

	// The traced units run for the run's length: one unit gives the CPU
	// profile under a hundred samples.
	ref := inst.unit(rep, conns)
	rep.tally.add(ref.tally)
	prof, err := startProfiler()
	if err != nil {
		return nil, fmt.Errorf("profiler: %w", err)
	}
	units := repeatUnits(cfg, func() serveUnit { return inst.unit(rep, conns) })
	if err := prof.stop(rep.metrics); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: module shares unavailable: %v\n", err)
	}
	inst.probeHandler(rep)
	var walls, allUS, distUS, routeUS, openUS, nearUS, lateUS, reloadMS []float64
	var shed int
	for _, u := range units {
		rep.tally.add(u.tally)
		walls = append(walls, u.closed.wall.Seconds())
		allUS = append(allUS, u.closedUS...)
		for i, q := range inst.closedQs {
			if q.Route {
				routeUS = append(routeUS, u.closedUS[i])
			} else {
				distUS = append(distUS, u.closedUS[i])
			}
		}
		openUS = append(openUS, u.openUS...)
		nearUS = append(nearUS, u.nearUS...)
		lateUS = append(lateUS, u.lateUS...)
		reloadMS = append(reloadMS, float64(u.reloadDur.Microseconds())/1e3)
		for _, q := range u.answers {
			if q.status == http.StatusTooManyRequests {
				shed++
			}
		}
	}
	putRuntime(rep, units[0].closed)
	putOverhead(rep, ref.closed.wall, time.Duration(median(walls)*float64(time.Second)))
	rep.metrics["serve.p99_us"] = quantile(allUS, 0.99)
	rep.metrics["serve.distance_us_p99"] = quantile(distUS, 0.99)
	rep.metrics["serve.route_us_p99"] = quantile(routeUS, 0.99)
	rep.metrics["serve.open_p50_us"] = quantile(openUS, 0.50)
	rep.metrics["serve.open_p99_us"] = quantile(openUS, 0.99)
	rep.metrics["serve.reload_ms"] = median(reloadMS)
	rep.metrics["serve.p99_us_near_reload"] = quantile(nearUS, 0.99)
	rep.metrics["loadgen.late_us_p99"] = quantile(lateUS, 0.99)
	rep.metrics["serve.shed_429"] = float64(shed)
	return rep, nil
}
