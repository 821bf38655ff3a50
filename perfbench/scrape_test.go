package main

import (
	"os"
	"strings"
	"testing"
)

func readFixture(t *testing.T, name string) sample {
	t.Helper()
	f, err := os.Open("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := parseMetrics(f)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestScrapeDelta parses two /metrics captures of a real lsrd (an LRU of
// 2 entries over an on-disk store) taken around six requests: /v1/run of
// A, A (an LRU hit), B, C, then A again and /v1/compile of B, both
// evicted from the LRU by then and so store hits. A metric family with
// no series yet (lsrd_compiles_total before any compile) counts from 0.
func TestScrapeDelta(t *testing.T) {
	d := readFixture(t, "metrics_after.txt").delta(readFixture(t, "metrics_before.txt"))
	for name, want := range map[string]float64{
		"lsrd_cache_hits_total":      1,
		"lsrd_cache_misses_total":    5,
		"lsrd_cache_evictions_total": 3,
		"lsrd_store_hits_total":      2,
		"lsrd_store_misses_total":    3,
		"lsrd_compiles_total":        3,
		"lsrd_store_entries":         3,
		"lsrd_shed_total":            0,
		"lsrd_cache_dedup_total":     0,
		"lsrd_requests_total":        6,
		"lsrd_request_seconds_count": 6,
	} {
		if got := d.sum(name); got != want {
			t.Errorf("delta of %s = %v, want %v", name, got, want)
		}
	}
	if got := d[`lsrd_requests_total{endpoint="run",code="200"}`]; got != 5 {
		t.Errorf("run requests = %v, want 5", got)
	}
}

func TestParseMetricsRejectsGarbage(t *testing.T) {
	if _, err := parseMetrics(strings.NewReader("lsrd_x_total notanumber\n")); err == nil {
		t.Error("no error for a non-numeric value")
	}
}
