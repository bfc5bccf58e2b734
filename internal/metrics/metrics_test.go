package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestExpositionGolden locks the exposition format byte-for-byte: families
// sorted by name, series by label signature, histograms as cumulative
// le-buckets plus _sum/_count.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_votes_total", "Votes ingested.").Add(42)
	r.Counter("test_requests_total", "Requests.", Label{"route", "estimates"}, Label{"code", "200"}).Add(3)
	r.Counter("test_requests_total", "Requests.", Label{"route", "votes"}, Label{"code", "200"}).Inc()
	sessions := r.Gauge("test_sessions", "Live sessions.")
	for i := 0; i < 8; i++ {
		sessions.Inc()
	}
	sessions.Dec()
	r.GaugeFunc("test_uptime_seconds", "Uptime.", func() float64 { return 1.5 })
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.005)
	h.Observe(0.5)
	h.Observe(9)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.01"} 2
test_latency_seconds_bucket{le="0.1"} 2
test_latency_seconds_bucket{le="1"} 3
test_latency_seconds_bucket{le="+Inf"} 4
test_latency_seconds_sum 9.51
test_latency_seconds_count 4
# HELP test_requests_total Requests.
# TYPE test_requests_total counter
test_requests_total{code="200",route="estimates"} 3
test_requests_total{code="200",route="votes"} 1
# HELP test_sessions Live sessions.
# TYPE test_sessions gauge
test_sessions 7
# HELP test_uptime_seconds Uptime.
# TYPE test_uptime_seconds gauge
test_uptime_seconds 1.5
# HELP test_votes_total Votes ingested.
# TYPE test_votes_total counter
test_votes_total 42
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestHistogramBucketMath pins the bucket assignment rules: bounds are
// inclusive upper bounds, values above the last bound land in +Inf only, and
// the rendered buckets are cumulative.
func TestHistogramBucketMath(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("m", "m.", []float64{1, 2, 4})
	for _, v := range []float64{0, 1, 1.5, 2, 2.0001, 4, 5, 100} {
		h.Observe(v)
	}
	// Raw (non-cumulative) per-bucket counts: (-inf,1]=2, (1,2]=2, (2,4]=2, (4,inf)=2.
	for i, want := range []uint64{2, 2, 2, 2} {
		if got := h.counts[i].Load(); got != want {
			t.Errorf("bucket %d = %d, want %d", i, got, want)
		}
	}
	if got, want := h.Count(), uint64(8); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
	if got, want := h.Sum(), 0.0+1+1.5+2+2.0001+4+5+100; math.Abs(got-want) > 1e-9 {
		t.Errorf("Sum = %g, want %g", got, want)
	}
	h.ObserveSince(time.Now().Add(-3 * time.Second))
	if got := h.counts[2].Load(); got != 3 {
		t.Errorf("ObserveSince(-3s) bucket (2,4] = %d, want 3", got)
	}
}

// TestRegisterIdempotent: same (name, labels) returns the same instrument
// regardless of label order; a type clash panics.
func TestRegisterIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c", "c.", Label{"x", "1"}, Label{"y", "2"})
	b := r.Counter("c", "c.", Label{"y", "2"}, Label{"x", "1"})
	if a != b {
		t.Error("same name+labels returned distinct counters")
	}
	a.Inc()
	if v, ok := r.Value("c", Label{"y", "2"}, Label{"x", "1"}); !ok || v != 1 {
		t.Errorf("Value = %v, %v", v, ok)
	}
	if _, ok := r.Value("c", Label{"x", "1"}); ok {
		t.Error("Value matched a different label set")
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter name as a gauge did not panic")
		}
	}()
	r.Gauge("c", "c.")
}

// TestGaugeKindMismatchPanics: Gauge and GaugeFunc share the exposition type
// but not an instrument; crossing them must fail with a clear message, not an
// interface-conversion panic at the call site.
func TestGaugeKindMismatchPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil {
				t.Errorf("%s did not panic", name)
			} else if !strings.Contains(fmt.Sprint(r), "gauge") {
				t.Errorf("%s panic message unhelpful: %v", name, r)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.GaugeFunc("gf", "gf.", func() float64 { return 1 })
	expectPanic("Gauge after GaugeFunc", func() { r.Gauge("gf", "gf.") })
	r.Gauge("gs", "gs.")
	expectPanic("GaugeFunc after Gauge", func() { r.GaugeFunc("gs", "gs.", func() float64 { return 1 }) })
}

// TestLabelEscaping: quotes, backslashes and newlines in label values must
// not corrupt the format.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("e_total", "e.", Label{"v", "a\"b\\c\nd"}).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `e_total{v="a\"b\\c\nd"} 1`) {
		t.Errorf("escaped series missing:\n%s", b.String())
	}
}

// TestHandler serves the concatenation of multiple registries with the
// exposition content type.
func TestHandler(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	r1.Counter("one_total", "one.").Inc()
	two := r2.Gauge("two", "two.")
	two.Inc()
	two.Inc()
	rec := httptest.NewRecorder()
	Handler(r1, r2).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	body, _ := io.ReadAll(rec.Body)
	for _, want := range []string{"one_total 1", "two 2"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("body missing %q:\n%s", want, body)
		}
	}
}

// TestConcurrentObserve hammers one histogram and counter from many
// goroutines while scraping; run under -race this is the data-race check, and
// the final counts must be exact (no lost updates).
func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cc_total", "cc.")
	h := r.Histogram("hh", "hh.", DurationBuckets)
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i%10) * 1e-6)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = r.WritePrometheus(io.Discard)
		}
	}()
	wg.Wait()
	<-done
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
}

// BenchmarkCounterInc and BenchmarkHistogramObserve pin the hot-path cost:
// both must be allocation-free (the ingest and WAL paths rely on it).
func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("b_total", "b.")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("b", "b.", DurationBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-6)
	}
}
