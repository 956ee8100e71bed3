// Command benchwarm measures the persistent warm-start cache end to end
// and emits a machine-readable BENCH_warmstart.json, so the cache's perf
// trajectory (file sizes, save/load wall times, cold vs warm vs cross-seed
// round counts) is recorded run over run instead of living in PR
// descriptions.
//
//	benchwarm -graph grid -n 1024 -engine step
//	benchwarm -graph grid,tree,geometric -n 1024 -out BENCH_warmstart.json
//
// -graph takes a comma-separated topology list; the JSON output is an
// array with one row per topology, so irregular cluster structures
// (tree, geometric) are tracked alongside the regular ones. For each
// graph the program runs APSP four times: cold (populating the cache),
// warm (same seed, full file set), cross-seed cold (reference, no cache),
// and cross-seed warm (structural section only). It self-verifies that
// every mode produces byte-identical distances to its cold reference and
// that the cross-seed round count lands strictly between cold and
// full-warm, exiting non-zero otherwise — the JSON is only written for
// runs whose correctness story holds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"time"

	hybrid "repro"
	"repro/internal/sim"
)

// report is one row of the BENCH_warmstart.json array.
type report struct {
	Graph  string `json:"graph"`
	N      int    `json:"n"`
	Engine string `json:"engine"`
	Seed   int64  `json:"seed"`
	Seed2  int64  `json:"seed2"`

	StructBytes int64 `json:"struct_bytes"`
	SeedBytes   int64 `json:"seed_bytes"`
	TotalBytes  int64 `json:"total_bytes"`

	SaveMS float64 `json:"save_ms"`
	LoadMS float64 `json:"load_ms"`

	ColdRounds int     `json:"cold_rounds"`
	ColdWallMS float64 `json:"cold_wall_ms"`
	WarmRounds int     `json:"warm_rounds"`
	WarmWallMS float64 `json:"warm_wall_ms"`

	CrossColdRounds int     `json:"cross_cold_rounds"`
	CrossColdWallMS float64 `json:"cross_cold_wall_ms"`
	CrossSeedRounds int     `json:"cross_seed_rounds"`
	CrossSeedWallMS float64 `json:"cross_seed_wall_ms"`
}

func main() {
	graphKinds := flag.String("graph", "grid", "comma-separated graphs: grid|path|cycle|tree|sparse|geometric")
	n := flag.Int("n", 1024, "number of nodes")
	engine := flag.String("engine", "step", "round engine: step|legacy|dist")
	seed := flag.Int64("seed", 1, "seed of the cold/warm pair")
	seed2 := flag.Int64("seed2", 2, "seed of the cross-seed pair")
	out := flag.String("out", "BENCH_warmstart.json", "output JSON path")
	cacheDir := flag.String("cache-dir", "", "cache directory (default: a temp dir, removed afterwards)")
	flag.Parse()

	if err := run(*graphKinds, *n, *engine, *seed, *seed2, *out, *cacheDir); err != nil {
		fmt.Fprintf(os.Stderr, "benchwarm: %v\n", err)
		os.Exit(1)
	}
}

// run measures every topology in the comma-separated graphKinds list and
// writes the row array to out. One shared cache directory serves all
// rows (files are fingerprint-keyed, so topologies never collide).
func run(graphKinds string, n int, engine string, seed, seed2 int64, out, cacheDir string) error {
	eng, err := sim.ParseEngine(engine)
	if err != nil {
		return err
	}

	if cacheDir == "" {
		dir, err := os.MkdirTemp("", "benchwarm-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cacheDir = dir
	}

	var rows []report
	for _, kind := range strings.Split(graphKinds, ",") {
		kind = strings.TrimSpace(kind)
		rep, err := runOne(kind, n, engine, eng, seed, seed2, cacheDir)
		if err != nil {
			return fmt.Errorf("%s: %w", kind, err)
		}
		rows = append(rows, rep)
	}

	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("%s", data)
	return nil
}

// runOne is the four-run measurement for a single topology.
func runOne(graphKind string, n int, engine string, eng hybrid.Engine, seed, seed2 int64, cacheDir string) (report, error) {
	var rep report
	var g *hybrid.Graph
	rng := rand.New(rand.NewSource(seed))
	switch graphKind {
	case "grid":
		g = hybrid.GridGraph(sim.SqrtCeil(n), sim.SqrtCeil(n))
	case "path":
		g = hybrid.PathGraph(n)
	case "cycle":
		g = hybrid.CycleGraph(n)
	case "tree":
		g = hybrid.RandomTreeGraph(n, rng)
	case "sparse":
		g = hybrid.SparseGraph(n, 1.2, rng)
	case "geometric":
		g = hybrid.GeometricGraph(n, 0.15, rng)
	default:
		return rep, fmt.Errorf("unknown graph kind %q", graphKind)
	}

	rep = report{Graph: graphKind, N: g.N(), Engine: engine, Seed: seed, Seed2: seed2}
	newNet := func(s int64) *hybrid.Network {
		return hybrid.New(g, hybrid.WithSeed(s), hybrid.WithEngine(eng), hybrid.WithCacheDir(cacheDir))
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

	// Cold run + timed save.
	coldNet := newNet(seed)
	start := time.Now()
	cold, err := coldNet.APSP()
	if err != nil {
		return rep, err
	}
	rep.ColdWallMS = ms(time.Since(start))
	rep.ColdRounds = cold.Metrics.Rounds
	start = time.Now()
	if err := coldNet.SaveCache(); err != nil {
		return rep, err
	}
	rep.SaveMS = ms(time.Since(start))
	structInfo, seedInfo := coldNet.CacheFiles()
	if !structInfo.Exists || !seedInfo.Exists {
		return rep, fmt.Errorf("cache files missing after save")
	}
	rep.StructBytes, rep.SeedBytes = structInfo.Bytes, seedInfo.Bytes
	rep.TotalBytes = structInfo.Bytes + seedInfo.Bytes

	// Timed load + warm run.
	warmNet := newNet(seed)
	start = time.Now()
	status, err := warmNet.LoadCache()
	if err != nil {
		return rep, err
	}
	rep.LoadMS = ms(time.Since(start))
	if !status.Seed || !status.Structural {
		return rep, fmt.Errorf("warm load restored %+v, want both sections", status)
	}
	start = time.Now()
	warm, err := warmNet.APSP()
	if err != nil {
		return rep, err
	}
	rep.WarmWallMS = ms(time.Since(start))
	rep.WarmRounds = warm.Metrics.Rounds
	if !reflect.DeepEqual(cold.Dist, warm.Dist) {
		return rep, fmt.Errorf("warm distances diverge from cold")
	}

	// Cross-seed: cold reference without cache, then the structural-only
	// warm start.
	start = time.Now()
	crossCold, err := hybrid.New(g, hybrid.WithSeed(seed2), hybrid.WithEngine(eng)).APSP()
	if err != nil {
		return rep, err
	}
	rep.CrossColdWallMS = ms(time.Since(start))
	rep.CrossColdRounds = crossCold.Metrics.Rounds

	crossNet := newNet(seed2)
	status, err = crossNet.LoadCache()
	if err != nil {
		return rep, err
	}
	if !status.Structural || status.Seed {
		return rep, fmt.Errorf("cross-seed load restored %+v, want structural only", status)
	}
	start = time.Now()
	cross, err := crossNet.APSP()
	if err != nil {
		return rep, err
	}
	rep.CrossSeedWallMS = ms(time.Since(start))
	rep.CrossSeedRounds = cross.Metrics.Rounds
	if !reflect.DeepEqual(crossCold.Dist, cross.Dist) {
		return rep, fmt.Errorf("cross-seed distances diverge from that seed's cold run")
	}
	if !(rep.WarmRounds < rep.CrossSeedRounds && rep.CrossSeedRounds < rep.CrossColdRounds) {
		return rep, fmt.Errorf("cross-seed rounds %d not strictly between warm %d and cold %d",
			rep.CrossSeedRounds, rep.WarmRounds, rep.CrossColdRounds)
	}
	return rep, nil
}
