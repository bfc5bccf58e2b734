// Package metrics is the zero-dependency observability plane under the DQM
// engine, WAL and HTTP layers: atomic counters, gauges and fixed-bucket
// histograms, collected in registries and exposed in the Prometheus text
// format (version 0.0.4).
//
// The package exists because the system's hot paths are allocation-free and
// must stay that way when instrumented: every instrument is a plain struct of
// atomics, Observe/Add/Inc never allocate, never take a lock and never touch
// a map, so a counter bump on the ingest path costs one atomic add. All the
// bookkeeping (names, labels, exposition ordering) happens at registration
// time or scrape time, both cold.
//
// Instruments register into a Registry keyed by (name, label set);
// registering the same key twice returns the same instrument, so package-level
// instrument variables across packages compose onto the shared Default
// registry without init-order coupling. Scrapes walk the registry sorted by
// family name and label signature, so exposition output is deterministic.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Default is the process-wide registry that package-level instruments in
// internal/engine and internal/wal register into; cmd/dqm-serve scrapes it
// alongside its own server-scoped registry.
var Default = NewRegistry()

// Label is one name="value" pair attached to an instrument at registration.
type Label struct {
	Name  string
	Value string
}

// DurationBuckets spans the latencies this system produces — sub-microsecond
// cached reads, tens-of-microseconds appends, millisecond fsyncs, second-scale
// slow requests — in a roughly-logarithmic ladder (seconds).
var DurationBuckets = []float64{
	1e-6, 5e-6, 25e-6, 100e-6, 500e-6, 2.5e-3, 10e-3, 50e-3, 250e-3, 1, 5,
}

// Counter is a monotonically increasing value. The zero value is usable, but
// instruments are normally obtained from a Registry so they are scraped.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed cumulative buckets. Observe is
// lock-free and allocation-free: one atomic add on the bucket plus a CAS loop
// folding the value into the running sum.
type Histogram struct {
	// bounds are the inclusive upper bounds of each bucket, ascending; the
	// implicit final bucket is +Inf.
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; counts[len(bounds)] is +Inf
	sum    atomic.Uint64   // float64 bits of the observation sum
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	// Linear scan: bucket ladders are ~a dozen wide and the scan is
	// branch-predictable, which beats binary search at this size.
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// series is one labeled instrument inside a family.
type series struct {
	labels []Label // sorted by name
	inst   any     // *Counter | *Gauge | func() float64 | *Histogram
}

// family groups every series of one metric name.
type family struct {
	name string
	help string
	typ  string // "counter" | "gauge" | "histogram"
	// series is keyed by the canonical label signature.
	series map[string]*series
}

// Registry holds instruments and renders them. All methods are safe for
// concurrent use; the registry lock is never touched by the instruments
// themselves.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelKey builds the canonical `{a="x",b="y"}` signature (sorted, escaped);
// empty labels yield "".
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// register returns the instrument under (name, labels), creating it with
// build on first registration. It panics when the name is already registered
// as a different metric type — that is a programming error, not input.
func (r *Registry) register(name, help, typ string, labels []Label, build func() any) any {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, k int) bool { return ls[i].Name < ls[k].Name })
	key := labelKey(ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s, re-registered as %s", name, f.typ, typ))
	}
	if s, ok := f.series[key]; ok {
		return s.inst
	}
	s := &series{labels: ls, inst: build()}
	f.series[key] = s
	return s.inst
}

// Counter returns the counter registered under (name, labels), creating it on
// first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.register(name, help, "counter", labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge registered under (name, labels). It panics when
// the series already exists as a callback gauge (GaugeFunc) — the two share
// the exposition type but not a settable instrument.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g, ok := r.register(name, help, "gauge", labels, func() any { return &Gauge{} }).(*Gauge)
	if !ok {
		panic(fmt.Sprintf("metrics: %s registered as a callback gauge (GaugeFunc), re-requested as a settable Gauge", name))
	}
	return g
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape time —
// for values the system already tracks elsewhere (live sessions, uptime).
// Re-registering the same (name, labels) keeps the first function; it panics
// when the series already exists as a settable Gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	inst := r.register(name, help, "gauge", labels, func() any { return fn })
	if _, ok := inst.(func() float64); !ok {
		panic(fmt.Sprintf("metrics: %s registered as a settable Gauge, re-requested as a callback gauge (GaugeFunc)", name))
	}
}

// Histogram returns the histogram registered under (name, labels) with the
// given bucket upper bounds (ascending; +Inf is implicit). The bounds of the
// first registration win.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return r.register(name, help, "histogram", labels, func() any {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("metrics: %s: bucket bounds not ascending", name))
			}
		}
		return &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Uint64, len(bounds)+1),
		}
	}).(*Histogram)
}

// Value returns the current value of the series under (name, labels):
// counters and gauges report their value, histograms their observation count.
// It reports false when no such series exists.
func (r *Registry) Value(name string, labels ...Label) (float64, bool) {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, k int) bool { return ls[i].Name < ls[k].Name })
	r.mu.Lock()
	f, ok := r.families[name]
	var s *series
	if ok {
		s, ok = f.series[labelKey(ls)]
	}
	r.mu.Unlock()
	if !ok {
		return 0, false
	}
	switch inst := s.inst.(type) {
	case *Counter:
		return float64(inst.Value()), true
	case *Gauge:
		return float64(inst.Value()), true
	case func() float64:
		return inst(), true
	case *Histogram:
		return float64(inst.Count()), true
	}
	return 0, false
}

// HistogramStats returns the observation count and sum of the histogram under
// (name, labels) — enough to derive a mean, which is what periodic stats
// lines want from a histogram. It reports false when no such series exists or
// the series is not a histogram.
func (r *Registry) HistogramStats(name string, labels ...Label) (count uint64, sum float64, ok bool) {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, k int) bool { return ls[i].Name < ls[k].Name })
	r.mu.Lock()
	f, ok := r.families[name]
	var s *series
	if ok {
		s, ok = f.series[labelKey(ls)]
	}
	r.mu.Unlock()
	if !ok {
		return 0, 0, false
	}
	h, ok := s.inst.(*Histogram)
	if !ok {
		return 0, 0, false
	}
	return h.Count(), h.Sum(), true
}

// fmtFloat renders a float in the exposition format (shortest round-trip).
func fmtFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in the Prometheus text exposition format,
// sorted by family name and label signature so scrapes are deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	// Snapshot the series lists under the lock; values are read lock-free
	// afterwards (atomics — a scrape concurrent with ingest sees a consistent
	// enough cut, as Prometheus clients do).
	type flatSeries struct {
		key string
		s   *series
	}
	type flatFamily struct {
		f      *family
		series []flatSeries
	}
	fams := make([]flatFamily, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		ff := flatFamily{f: f, series: make([]flatSeries, 0, len(f.series))}
		for key, s := range f.series {
			ff.series = append(ff.series, flatSeries{key: key, s: s})
		}
		sort.Slice(ff.series, func(i, k int) bool { return ff.series[i].key < ff.series[k].key })
		fams = append(fams, ff)
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, ff := range fams {
		f := ff.f
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, fs := range ff.series {
			switch inst := fs.s.inst.(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, fs.key, inst.Value())
			case *Gauge:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, fs.key, inst.Value())
			case func() float64:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, fs.key, fmtFloat(inst()))
			case *Histogram:
				writeHistogram(&b, f.name, fs.s.labels, inst)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram series: cumulative le-labeled buckets,
// then _sum and _count.
func writeHistogram(b *strings.Builder, name string, labels []Label, h *Histogram) {
	var cum uint64
	scratch := make([]Label, len(labels), len(labels)+1)
	copy(scratch, labels)
	for i := range h.counts {
		bound := math.Inf(+1)
		if i < len(h.bounds) {
			bound = h.bounds[i]
		}
		cum += h.counts[i].Load()
		// le joins the sorted label set out of order, which the format allows;
		// keeping it last matches common practice.
		key := labelKey(append(scratch, Label{Name: "le", Value: fmtFloat(bound)}))
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, key, cum)
	}
	key := labelKey(labels)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, key, fmtFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, key, cum)
}

// Handler serves the given registries concatenated — typically the Default
// registry (engine + WAL instruments) followed by a server-scoped one.
// Families must not be split across registries: each name belongs to one.
func Handler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, r := range regs {
			if err := r.WritePrometheus(w); err != nil {
				return
			}
		}
	})
}
