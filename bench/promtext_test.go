package main

import (
	"math"
	"os"
	"testing"
)

func loadScrape(t *testing.T, path string) scrape {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := parseProm(raw)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The testdata files are two /metrics scrapes of a real dqm-serve with five
// more vote posts, five estimate reads, a CI read and a gate read between
// them.
func TestParsePromCapturedScrape(t *testing.T) {
	a := loadScrape(t, "testdata/metrics-before.txt")
	b := loadScrape(t, "testdata/metrics-after.txt")
	if v := a["dqm_engine_votes_total"]; v != 6 {
		t.Errorf("votes before = %v, want 6", v)
	}
	// Labels are canonicalised: the server prints path before le.
	if _, ok := b[`dqm_engine_estimate_seconds_bucket{le="+Inf",path="cached"}`]; !ok {
		t.Error("bucket series with sorted labels missing")
	}
	if _, ok := b[key("dqm_http_requests_total", `code="200"`, `route="votes"`)]; !ok {
		t.Error("two-label counter missing")
	}

	d := b.delta(a)
	for k, want := range map[string]float64{
		"dqm_engine_votes_total":                               10,
		"dqm_wal_fsyncs_total":                                 2,
		"dqm_gate_transitions_total":                           2,
		key("dqm_http_request_seconds_count", `route="votes"`): 5,
		"dqm_engine_bootstrap_seconds_count":                   1,
	} {
		if got := d[k]; got != want {
			t.Errorf("delta %s = %v, want %v", k, got, want)
		}
	}
	if got, want := d.histMean("dqm_wal_fsync_seconds"), (0.000785143-0.000295443)/2; math.Abs(got-want) > 1e-15 {
		t.Errorf("fsync mean over the delta = %v, want %v", got, want)
	}
	if got := d.ratio("dqm_wal_fsyncs_total", "dqm_engine_votes_total"); got != 0.2 {
		t.Errorf("fsyncs per vote = %v, want 0.2", got)
	}
	// A series born between the scrapes counts from zero.
	born := key("dqm_http_requests_total", `code="200"`, `route="gate"`)
	if _, ok := a[born]; ok {
		t.Fatalf("%s already in the first scrape", born)
	}
	if d[born] != b[born] || d[born] == 0 {
		t.Errorf("delta of new series = %v, want %v", d[born], b[born])
	}
	// Missing series are absent (NaN), not zero and not an error.
	if !math.IsNaN(d.ratio("dqm_no_such_total", "dqm_engine_votes_total")) ||
		!math.IsNaN(d.histMean("dqm_no_such_seconds")) {
		t.Error("missing series should read as NaN")
	}
}

func TestParsePromRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"metric_without_value\n",
		"m{a=\"x\" 1\n",
		"m{a=x} 1\n",
		"m 1.2.3\n",
	} {
		if _, err := parseProm([]byte(bad)); err == nil {
			t.Errorf("parseProm(%q) succeeded", bad)
		}
	}
	s, err := parseProm([]byte("# HELP m help\n# TYPE m counter\nm{b=\"2\",a=\"x,\\\"y\"} 3\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if v := s[`m{a="x,\"y",b="2"}`]; v != 3 {
		t.Errorf("escaped label value: got %v from %v", v, s)
	}
}
