package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

// profiler records a CPU profile and an allocation-profile delta around
// the traced unit, then groups both by module with `go tool pprof`.
type profiler struct {
	dir     string
	cpuFile *os.File
}

func startProfiler() (*profiler, error) {
	dir, err := os.MkdirTemp("", "perfbench-prof")
	if err != nil {
		return nil, err
	}
	p := &profiler{dir: dir}
	if err := p.writeHeap("heap-before.pb.gz"); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "cpu.pb.gz"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	p.cpuFile = f
	return p, nil
}

// writeHeap snapshots the cumulative allocation profile; the GC first
// brings its counts up to date.
func (p *profiler) writeHeap(name string) error {
	runtime.GC()
	f, err := os.Create(filepath.Join(p.dir, name))
	if err != nil {
		return err
	}
	if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stop ends profiling and puts cpu_share.* and alloc_share.* into m.
func (p *profiler) stop(m map[string]float64) error {
	defer os.RemoveAll(p.dir)
	pprof.StopCPUProfile()
	if err := p.cpuFile.Close(); err != nil {
		return err
	}
	if err := p.writeHeap("heap-after.pb.gz"); err != nil {
		return err
	}
	cpu, err := moduleShares("-sample_index=cpu", filepath.Join(p.dir, "cpu.pb.gz"))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	alloc, err := moduleShares("-sample_index=alloc_space",
		"-base", filepath.Join(p.dir, "heap-before.pb.gz"), filepath.Join(p.dir, "heap-after.pb.gz"))
	if err != nil {
		return fmt.Errorf("alloc profile: %w", err)
	}
	for _, mod := range shareModules {
		m["cpu_share."+mod] = cpu[mod]
		m["alloc_share."+mod] = alloc[mod]
	}
	return nil
}

// moduleShares runs `go tool pprof -top` and sums each function's flat
// share of the total into its module.
func moduleShares(args ...string) (map[string]float64, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-top", "-flat", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	shares := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(out))
	header := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !header {
			header = len(fields) >= 2 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(fields[1], "%"), 64)
		if err != nil {
			continue
		}
		if mod := moduleOf(strings.Join(fields[5:], " ")); mod != "" {
			shares[mod] += pct / 100
		}
	}
	if !header {
		return nil, fmt.Errorf("go tool pprof: no table in output")
	}
	return shares, nil
}

// moduleOf maps a symbol to its shareModules entry: repro/internal/<m>
// (subpackages included) or the Go runtime; "" for anything else.
func moduleOf(sym string) string {
	if rest, ok := strings.CutPrefix(sym, "repro/internal/"); ok {
		end := strings.IndexAny(rest, "./")
		if end < 0 {
			return ""
		}
		mod := rest[:end]
		for _, m := range shareModules {
			if m == mod {
				return mod
			}
		}
		return ""
	}
	if strings.HasPrefix(sym, "runtime.") || strings.HasPrefix(sym, "runtime/") || strings.HasPrefix(sym, "internal/runtime/") {
		return "runtime"
	}
	return ""
}
