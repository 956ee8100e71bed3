// Command perfbench is the repository's benchmark. It runs one workload
// through the public APIs, checks every answer against sequential ground
// truth, and prints its metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"solve_s": {"value": 17.3, "unit": "s"}, ...}}
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) reports the per-layer metrics, including its own
// overhead. Inputs are a pure function of --seed. See METRICS.md for the
// workloads and what each metric should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	hybrid "repro"
)

// runConfig is what one invocation measures.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// report is one run's outcome before it is printed.
type report struct {
	tally
	metrics  map[string]float64
	problems []string   // anything that makes the run incorrect
	counts   *simCounts // deterministic counts, guarded across runs
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }

func (r *report) problem(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

// setupReps is how many times a run builds its inputs; setup_s is the
// median.
const setupReps = 3

// repeatSetup builds the workload's inputs setupReps times and keeps the
// last. It reports setup_s and the median of each per-layer timing the
// set-up returns.
func repeatSetup[T any](rep *report, setup func() (T, map[string]float64, error)) (T, error) {
	var inst T
	var setups []float64
	layers := make(map[string][]float64)
	for range setupReps {
		t0 := time.Now()
		in, lm, err := setup()
		if err != nil {
			return inst, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		for k, v := range lm {
			layers[k] = append(layers[k], v)
		}
		inst = in
	}
	rep.metrics["setup_s"] = median(setups)
	for k, vs := range layers {
		rep.metrics[k] = median(vs)
	}
	return inst, nil
}

// repeatUnits runs units until the next one would overrun the run's
// length, and at least one.
func repeatUnits[U any](cfg runConfig, unit func() U) []U {
	var units []U
	start := time.Now()
	var last time.Duration
	for len(units) == 0 || time.Since(start)+last <= cfg.seconds {
		t0 := time.Now()
		units = append(units, unit())
		last = time.Since(t0)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d units in %.1fs\n", cfg.workload, len(units), time.Since(start).Seconds())
	return units
}

var workloads = map[string]func(runConfig) (*report, error){
	"apsp-grid":  runAPSPGrid,
	"route-dist": runRouteDist,
	"diam-geo":   runDiamGeo,
	"serve-zipf": runServeZipf,
}

func main() {
	var cfg runConfig
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: apsp-grid|route-dist|diam-geo|serve-zipf")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&seconds, "seconds", 15, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace != 0

	run, ok := workloads[cfg.workload]
	if !ok || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", cfg.workload, seconds, trace)
		os.Exit(2)
	}
	stealBefore := stealTicks()
	missed := checkVerifiers()
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	for _, m := range missed {
		rep.problem("checker self-test: %s", m)
	}
	src := sourceHash(".")
	guardDeterminism(cfg, rep, src)
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", cfg.workload, p)
	}
	prov := provenance(cfg, src)
	prov["steal_share"] = stealShare(stealBefore, stealTicks())
	line, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Println(string(line))
	printResult(cfg, rep)
}

// printResult writes the result line with exactly the catalog's metrics
// for the mode.
func printResult(cfg runConfig, rep *report) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && !cfg.trace {
			rep.problem("end-to-end metric %s was not measured", d.name)
		}
		metrics[d.name] = value{v, d.unit}
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   rep.failed == 0 && len(rep.problems) == 0 && rep.attempted > 0,
		Attempted: max(rep.attempted, 1),
		Failed:    rep.failed,
		Metrics:   metrics,
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// provenance identifies what was measured, printed just before the result.
func provenance(cfg runConfig, src string) map[string]any {
	p := map[string]any{
		"workload":       cfg.workload,
		"seed":           cfg.seed,
		"trace":          cfg.trace,
		"default_engine": defaultEngine(),
		"engine":         defaultEngine(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"nproc":          runtime.NumCPU(),
		"go":             runtime.Version(),
		"commit":         "unknown",
		"source_sha256":  src,
	}
	if e, ok := workloadEngine[cfg.workload]; ok {
		p["engine"] = e
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["commit"] = s.Value
			case "vcs.modified":
				p["commit_modified"] = s.Value == "true"
			}
		}
	}
	return p
}

// defaultEngine is the engine a Network built without WithEngine runs
// on. The facade does not export it, so it is read off a fresh Network;
// a default flip then shows up here rather than silently.
func defaultEngine() string {
	nw := hybrid.New(hybrid.PathGraph(2))
	f := reflect.ValueOf(nw).Elem().FieldByName("cfg")
	if f.IsValid() {
		if e := f.FieldByName("Engine"); e.IsValid() && e.CanInt() {
			return hybrid.Engine(e.Int()).String()
		}
	}
	return "unresolved"
}

// workloadEngine names the engine a workload runs on when it is not the
// facade default.
var workloadEngine = map[string]string{
	"route-dist": hybrid.EngineDist.String(),
	"serve-zipf": "none (tables from graph.APSP)",
}

// sourceHash fingerprints the program under test (every .go file and
// go.mod outside the benchmark), standing in for the commit where the
// checkout is not a git repository.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "perfbench" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
