package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestCatalogMatchesBenchmarkJSON keeps the metric lists the program
// prints in step with the repository's BENCHMARK.json.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is in BENCHMARK.json but not in the program", w.Name)
		}
	}
	compare := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if w := want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, m, w)
			}
		}
	}
	compare("end_to_end", bench.EndToEnd, endToEnd)
	compare("per_layer", bench.PerLayer, perLayer)
}

func TestModuleOf(t *testing.T) {
	for sym, want := range map[string]string{
		"repro/internal/sim.(*engine).stepRange":            "sim",
		"repro/internal/dist/wire.AppendFrame":              "dist",
		"repro/internal/flatmap.(*Map[go.shape.int64]).Get": "flatmap",
		"repro/internal/persist.Load":                       "",
		"runtime.mallocgc":                                  "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":      "runtime",
		"repro.(*Network).APSP":                             "",
		"net/http.(*conn).serve":                            "",
	} {
		if got := moduleOf(sym); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", sym, got, want)
		}
	}
}
