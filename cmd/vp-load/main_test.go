package main

import "testing"

// The checks vp-load runs are tests of the session server too, so
// go test ./... and the race job run them.
func TestChecks(t *testing.T) {
	if err := verify(); err != nil {
		t.Fatal(err)
	}
}
