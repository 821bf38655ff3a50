package main

import "testing"

func TestCovered(t *testing.T) {
	spans := []span{
		{Start: 0, End: 100, Parent: -1},
		{Start: 10, End: 30, Parent: 0},
		{Start: 20, End: 50, Parent: 0},
		{Start: 90, End: 120, Parent: 0},
	}
	if got := covered(spans, spans[0], []int{1, 2, 3}); got != 50 {
		t.Errorf("covered = %d, want 50", got)
	}
}
