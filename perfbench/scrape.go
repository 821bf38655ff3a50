package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// sample is one scrape of lsrd's /metrics: the value of every series,
// keyed by the series as written (name plus labels).
type sample map[string]float64

// scrape reads lsrd's /metrics.
func scrape(c *http.Client, url string) (sample, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: HTTP %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// parseMetrics parses the Prometheus text exposition format: one
// "series value" pair a line, comments skipped.
func parseMetrics(r io.Reader) (sample, error) {
	out := sample{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Label values may hold spaces; the value follows the last one.
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out, sc.Err()
}

// delta is s minus an earlier sample, series by series.
func (s sample) delta(earlier sample) sample {
	out := sample{}
	for k, v := range s {
		out[k] = v - earlier[k]
	}
	return out
}

// sum adds every series of one metric name, whatever its labels.
func (s sample) sum(name string) float64 {
	t := 0.0
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}
