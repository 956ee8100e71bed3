package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	hybrid "repro"
)

// simCounts are the deterministic cost counts of one unit of work. For a
// fixed workload and seed they must be identical in every unit of every
// run, traced or not; a difference is a reported failure, never averaged.
type simCounts struct {
	Rounds        int   `json:"rounds"`
	GlobalMsgs    int64 `json:"global_msgs"`
	GlobalBits    int64 `json:"global_bits"`
	LocalMsgs     int64 `json:"local_msgs"`
	LocalBits     int64 `json:"local_bits"`
	MaxGlobalRecv int   `json:"max_global_recv"`
}

func (c *simCounts) add(m hybrid.Metrics) {
	c.Rounds += m.Rounds
	c.GlobalMsgs += m.GlobalMsgs
	c.GlobalBits += m.GlobalBits
	c.LocalMsgs += m.LocalMsgs
	c.LocalBits += m.LocalBits
	c.MaxGlobalRecv = max(c.MaxGlobalRecv, m.MaxGlobalRecv)
}

// sameCounts records a problem unless every unit's counts equal the first.
func sameCounts(rep *report, units []simCounts) {
	for i, c := range units {
		if c != units[0] {
			rep.problem("determinism: unit %d counts %+v differ from unit 0 %+v", i, c, units[0])
		}
	}
	if len(units) > 0 {
		c := units[0]
		rep.counts = &c
	}
}

// recordsDir holds one record per (workload, seed) run in this checkout.
const recordsDir = ".bench_build/determinism"

// guardDeterminism compares the run's counts with the record left by an
// earlier run of the same workload and seed on the same program sources
// (src is their hash), and leaves a record if there is none.
func guardDeterminism(cfg runConfig, rep *report, src string) {
	if rep.counts == nil {
		return
	}
	path := filepath.Join(recordsDir, fmt.Sprintf("%s-seed%d-%s.json", cfg.workload, cfg.seed, src))
	if data, err := os.ReadFile(path); err == nil {
		var prev simCounts
		if err := json.Unmarshal(data, &prev); err != nil {
			rep.problem("determinism: unreadable record %s: %v", path, err)
			return
		}
		if prev != *rep.counts {
			rep.problem("determinism: counts %+v differ from an earlier run's %+v (%s)", *rep.counts, prev, path)
		}
		return
	}
	if err := os.MkdirAll(recordsDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: determinism record: %v\n", err)
		return
	}
	data, _ := json.Marshal(rep.counts)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err == nil {
		err = os.Rename(tmp, path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: determinism record: %v\n", err)
		}
	}
}
