package hybrid

import (
	"strings"
	"testing"
)

// TestUniformEstimateDetectsDisagreement exercises the diameter-agreement
// check directly: the collective protocols end with an announced common
// value, and a divergent node must surface as an error naming it, not be
// papered over by returning node 0's answer.
func TestUniformEstimateDetectsDisagreement(t *testing.T) {
	if got, err := uniformEstimate([]int64{4, 4, 4}, "diameter"); err != nil || got != 4 {
		t.Fatalf("agreeing vector: got (%d, %v)", got, err)
	}
	_, err := uniformEstimate([]int64{4, 4, 9, 4}, "diameter")
	if err == nil {
		t.Fatal("disagreeing vector accepted")
	}
	if !strings.Contains(err.Error(), "node 2") || !strings.Contains(err.Error(), "diameter") {
		t.Errorf("error %q does not identify the disagreeing node and quantity", err)
	}
	if got, err := uniformEstimate(nil, "diameter"); err != nil || got != 0 {
		t.Fatalf("empty vector: got (%d, %v)", got, err)
	}
}

// TestDefaultEngineIsStep: a Network built without WithEngine runs the
// goroutine-free step engine.
func TestDefaultEngineIsStep(t *testing.T) {
	if got := New(PathGraph(2)).cfg.Engine; got != EngineStep {
		t.Fatalf("default engine is %s, want step", got)
	}
}
