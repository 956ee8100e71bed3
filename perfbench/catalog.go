package main

// metricDef is one metric the benchmark reports. The lists mirror
// BENCHMARK.json (catalog_test.go keeps them in step); METRICS.md says
// what each per-layer metric should move, on which workload.
type metricDef struct {
	name, unit, better string
}

// endToEnd are reported by untraced runs on every workload. A user of
// each workload sees all of them; none is ever 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"solve_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"p50_us", "us", "lower"},
}

// shareModules are the program's packages a profile is grouped into,
// plus the Go runtime (GC, scheduler, allocator).
var shareModules = []string{
	"sim", "routing", "helpers", "ncc", "skeleton", "hybridapsp", "kssp",
	"clique", "diameter", "flatmap", "dist", "serve", "graph", "runtime",
}

// perLayer are reported by traced runs on every workload; a layer the
// workload does not exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.rounds", "count", "lower"},
		{"sim.round_us_p50", "us", "lower"},
		{"sim.round_us_p99", "us", "lower"},
		{"sim.ns_per_node_round", "ns", "lower"},
		{"sim.ns_per_msg", "ns", "lower"},
		{"sim.global_msgs", "count", "lower"},
		{"sim.local_msgs", "count", "lower"},
		{"sim.global_bits", "count", "lower"},
		{"sim.local_bits", "count", "lower"},
		{"sim.max_global_recv", "count", "lower"},
		{"alloc_mb", "MB", "lower"},
		{"allocs", "count", "lower"},
		{"gc_cycles", "count", "lower"},
		{"gc_cpu_s", "s", "lower"},
		{"routing.setup_call_s", "s", "lower"},
		{"routing.setup_rounds", "count", "lower"},
		{"routing.reuse_call_s", "s", "lower"},
		{"routing.reuse_rounds", "count", "lower"},
		{"dist.ipc_us_per_round", "us", "lower"},
		{"dist.ipc_ns_per_msg", "ns", "lower"},
		{"dist.extra_alloc_mb", "MB", "lower"},
		{"dist.worker_cpu_s", "s", "lower"},
		{"serve.handler_ns_distance", "ns", "lower"},
		{"serve.handler_ns_route", "ns", "lower"},
		{"serve.p99_us", "us", "lower"},
		{"serve.distance_us_p99", "us", "lower"},
		{"serve.route_us_p99", "us", "lower"},
		{"serve.open_p50_us", "us", "lower"},
		{"serve.open_p99_us", "us", "lower"},
		{"serve.reload_ms", "ms", "lower"},
		{"serve.p99_us_near_reload", "us", "lower"},
		{"serve.alloc_bytes_per_query", "B", "lower"},
		{"serve.shed_429", "count", "lower"},
		{"loadgen.late_us_p99", "us", "lower"},
		{"graph.apsp_s", "s", "lower"},
		{"graph.nexthops_s", "s", "lower"},
		{"trace.overhead_s", "s", "lower"},
		{"trace.overhead_pct", "%", "lower"},
	}
	for _, m := range shareModules {
		defs = append(defs, metricDef{"cpu_share." + m, "ratio", "lower"})
	}
	for _, m := range shareModules {
		defs = append(defs, metricDef{"alloc_share." + m, "ratio", "lower"})
	}
	return defs
}()
