package main

import "testing"

// TestCheckVerifiers asserts that every corrupted answer of the checker
// self-test is counted as a failure and every right answer is not.
func TestCheckVerifiers(t *testing.T) {
	for _, m := range checkVerifiers() {
		t.Error(m)
	}
}
