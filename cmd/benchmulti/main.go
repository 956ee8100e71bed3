// Command benchmulti measures round-engine scaling and emits a
// machine-readable report. In the default -engine step mode it sweeps
// GOMAXPROCS and writes BENCH_multicore.json: one row per core count, all
// solving the identical APSP instance with the autotuned shard count.
// With -engine dist it instead sweeps the distributed engine's
// worker-process count and writes one row per -workers entry
// (BENCH_dist.json is the committed artifact) — the scaling axis is OS
// processes connected over the wire protocol, not scheduler threads. The
// committed files are the repository's record of how each configuration
// behaves; the scheduled CI job regenerates them on hosted runners, where
// the core count actually varies.
//
//	benchmulti -graph grid -n 1024 -procs 1,2,4,8
//	benchmulti -graph grid -n 1024 -engine dist -workers 1,2,4 -out BENCH_dist.json
//
// Every row self-verifies against the first: the distance matrices and
// round counts must be byte-identical across the sweep (engine results
// are independent of the parallel grain — the same property the
// differential tests pin for shard counts and worker counts), and the
// program exits non-zero if any row diverges, so the JSON is only written
// for sweeps whose correctness story holds.
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	hybrid "repro"
	"repro/internal/sim"
)

// report is one row of the emitted JSON array.
type report struct {
	Graph      string `json:"graph"`
	N          int    `json:"n"`
	Seed       int64  `json:"seed"`
	Engine     string `json:"engine"`
	Gomaxprocs int    `json:"gomaxprocs"`
	Shards     int    `json:"shards"`
	// Workers is the dist engine's worker-process count; zero (omitted)
	// on step-engine rows, where processes play no part.
	Workers int `json:"workers,omitempty"`

	Rounds   int     `json:"rounds"`
	WallMS   float64 `json:"wall_ms"`
	Speedup  float64 `json:"speedup"`
	Checksum string  `json:"checksum"`
}

// label names a row in error messages by its sweep axis.
func (r report) label() string {
	if r.Engine == "dist" {
		return fmt.Sprintf("workers=%d", r.Workers)
	}
	return fmt.Sprintf("gomaxprocs=%d", r.Gomaxprocs)
}

func main() {
	graphKind := flag.String("graph", "grid", "graph: grid|path|cycle|tree|sparse|geometric")
	n := flag.Int("n", 1024, "number of nodes")
	engine := flag.String("engine", "step", "engine to sweep: step (GOMAXPROCS axis) | dist (worker-process axis)")
	procs := flag.String("procs", "1,2,4,8", "comma-separated GOMAXPROCS sweep (step engine)")
	workers := flag.String("workers", "1,2,4", "comma-separated worker-process sweep (dist engine)")
	seed := flag.Int64("seed", 1, "run seed")
	out := flag.String("out", "BENCH_multicore.json", "output JSON path")
	flag.Parse()

	if err := run(*graphKind, *n, *engine, *procs, *workers, *seed, *out); err != nil {
		fmt.Fprintf(os.Stderr, "benchmulti: %v\n", err)
		os.Exit(1)
	}
}

// buildGraph constructs the sweep's instance; every row reuses the same
// graph value, so the instance is identical by construction and only the
// engine's parallel grain varies.
func buildGraph(kind string, n int, seed int64) (*hybrid.Graph, error) {
	rng := rand.New(rand.NewSource(seed))
	switch kind {
	case "grid":
		return hybrid.GridGraph(sim.SqrtCeil(n), sim.SqrtCeil(n)), nil
	case "path":
		return hybrid.PathGraph(n), nil
	case "cycle":
		return hybrid.CycleGraph(n), nil
	case "tree":
		return hybrid.RandomTreeGraph(n, rng), nil
	case "sparse":
		return hybrid.SparseGraph(n, 1.2, rng), nil
	case "geometric":
		return hybrid.GeometricGraph(n, 0.15, rng), nil
	default:
		return nil, fmt.Errorf("unknown graph kind %q", kind)
	}
}

// parseSweep parses a comma-separated list of positive ints.
func parseSweep(name, list string) ([]int, error) {
	var vals []int
	for _, f := range strings.Split(list, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad %s entry %q", name, f)
		}
		vals = append(vals, v)
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("%s is empty", name)
	}
	return vals, nil
}

// run executes the sweep and writes the row array to out. In step mode
// GOMAXPROCS is set per row and restored to the entry value before
// returning; in dist mode each row spawns its own worker processes and
// GOMAXPROCS is left alone.
func run(graphKind string, n int, engine, procsList, workersList string, seed int64, out string) error {
	g, err := buildGraph(graphKind, n, seed)
	if err != nil {
		return err
	}

	var rows []report
	switch engine {
	case "step":
		procs, err := parseSweep("-procs", procsList)
		if err != nil {
			return err
		}
		prev := runtime.GOMAXPROCS(0)
		defer runtime.GOMAXPROCS(prev)
		for _, p := range procs {
			runtime.GOMAXPROCS(p)
			net := hybrid.New(g, hybrid.WithSeed(seed), hybrid.WithEngine(hybrid.EngineStep),
				hybrid.WithShards(0))
			start := time.Now()
			res, err := net.APSP()
			if err != nil {
				return fmt.Errorf("gomaxprocs=%d: %w", p, err)
			}
			rows = append(rows, report{
				Graph:      graphKind,
				N:          g.N(),
				Seed:       seed,
				Engine:     "step",
				Gomaxprocs: p,
				Shards:     0,
				Rounds:     res.Metrics.Rounds,
				WallMS:     float64(time.Since(start).Microseconds()) / 1000,
				Checksum:   checksum(res.Dist),
			})
		}
	case "dist":
		workers, err := parseSweep("-workers", workersList)
		if err != nil {
			return err
		}
		for _, w := range workers {
			net := hybrid.New(g, hybrid.WithSeed(seed), hybrid.WithEngine(hybrid.EngineDist),
				hybrid.WithWorkers(w))
			start := time.Now()
			res, err := net.APSP()
			if err != nil {
				return fmt.Errorf("workers=%d: %w", w, err)
			}
			rows = append(rows, report{
				Graph:      graphKind,
				N:          g.N(),
				Seed:       seed,
				Engine:     "dist",
				Gomaxprocs: runtime.GOMAXPROCS(0),
				Workers:    w,
				Rounds:     res.Metrics.Rounds,
				WallMS:     float64(time.Since(start).Microseconds()) / 1000,
				Checksum:   checksum(res.Dist),
			})
		}
	default:
		return fmt.Errorf("unknown engine %q (want step or dist)", engine)
	}

	// Cross-row self-verification: the parallel grain must not change the
	// answer (or the round count).
	for _, row := range rows[1:] {
		if row.Checksum != rows[0].Checksum {
			return fmt.Errorf("%s: distance checksum %s differs from %s's %s",
				row.label(), row.Checksum, rows[0].label(), rows[0].Checksum)
		}
		if row.Rounds != rows[0].Rounds {
			return fmt.Errorf("%s: %d rounds differ from %s's %d",
				row.label(), row.Rounds, rows[0].label(), rows[0].Rounds)
		}
	}
	for i := range rows {
		rows[i].Speedup = rows[0].WallMS / rows[i].WallMS
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

// checksum is an FNV-1a digest of the dense distance matrix, used to
// compare rows without holding every matrix in memory.
func checksum(dist [][]int64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, row := range dist {
		for _, d := range row {
			binary.LittleEndian.PutUint64(buf[:], uint64(d))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
