// Package metrics is a dependency-free metrics registry: atomic counters,
// gauges, and fixed-bucket histograms, rendered in the Prometheus text
// exposition format (version 0.0.4).
//
// Design constraints, in order:
//
//   - Zero overhead when unused: every instrument is a plain struct of
//     atomics; components hold nil-able pointers to instrument bundles and
//     skip instrumentation entirely when no registry is attached.
//   - Coherent snapshots under concurrency: a histogram's observation
//     count is derived from its bucket counters at read time (never stored
//     separately), so a scrape can never observe count != sum(buckets) no
//     matter how many writers race it. This is what the -race coherence
//     tests lean on.
//   - No dependencies: the text format is hand-rolled; the HTTP handler is
//     a plain http.Handler usable on any mux (cmd/mdp and cmd/lmr share it
//     with the pprof mux).
//
// Families are identified by name; instruments within a family differ by
// their constant labels (e.g. one histogram per publish stage under a
// single mdv_publish_stage_seconds family). Dynamic families — those whose
// sample set is only known at scrape time, like per-subscriber delivery
// gauges — register a sample function instead of instruments.
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

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must not be negative; counters only go up).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. It stores float64 bits so
// non-integral gauges (seconds, ratios) work too.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (CAS loop; gauges are rarely contended).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram. Bounds are inclusive upper bounds
// in increasing order; one overflow bucket (+Inf) is implicit. Bucket
// counters are stored non-cumulatively so the total observation count can
// be derived, keeping scrapes coherent by construction.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits of the running value sum
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	// SearchFloat64s returns the insertion point for v (first bound >= v
	// when present); NaN observations land in the overflow bucket.
	if math.IsNaN(v) {
		i = len(h.bounds)
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// Count returns the total number of observations (the sum of all bucket
// counters; coherent with any concurrent snapshot).
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values. It may trail Count by a few
// in-flight observations (the bucket increment happens first).
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Buckets returns the bucket bounds and their non-cumulative counts
// (the final count is the +Inf overflow bucket).
func (h *Histogram) Buckets() ([]float64, []uint64) {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return h.bounds, out
}

// TimeBuckets covers 1µs..10s exponentially: statement execution through
// whole slow publishes fit without tuning.
var TimeBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5,
	1, 2.5, 5, 10,
}

// SizeBuckets covers counts 1..4096 in powers of two (group-commit batch
// sizes, queue depths, batch document counts).
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// Label is one constant name/value pair attached to an instrument or
// emitted with a dynamic sample.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Sample is one dynamically produced metric value (see Registry.SampleFunc).
type Sample struct {
	Labels []Label
	Value  float64
}

// Instrument types, in the Prometheus TYPE vocabulary.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

type instrument struct {
	labels  []Label
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
}

type family struct {
	name  string
	help  string
	typ   string
	insts []*instrument
	// sampleFn produces this family's samples at scrape time (dynamic
	// families, e.g. per-subscriber gauges).
	sampleFn func() []Sample
}

// Registry holds metric families and renders them as Prometheus text.
// Instrument registration is idempotent: asking for the same name and
// label set returns the existing instrument, so components can re-wire a
// registry without double counting.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

func (r *Registry) familyLocked(name, help, typ string) *family {
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.fams[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: family %s registered as %s and %s", name, f.typ, typ))
	}
	return f
}

func labelsEqual(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (f *family) find(labels []Label) *instrument {
	for _, in := range f.insts {
		if labelsEqual(in.labels, labels) {
			return in
		}
	}
	return nil
}

// Counter registers (or returns) a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, TypeCounter)
	if in := f.find(labels); in != nil {
		return in.counter
	}
	in := &instrument{labels: labels, counter: &Counter{}}
	f.insts = append(f.insts, in)
	return in.counter
}

// Gauge registers (or returns) a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, TypeGauge)
	if in := f.find(labels); in != nil {
		return in.gauge
	}
	in := &instrument{labels: labels, gauge: &Gauge{}}
	f.insts = append(f.insts, in)
	return in.gauge
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, TypeGauge)
	if f.find(labels) != nil {
		return
	}
	f.insts = append(f.insts, &instrument{labels: labels, fn: fn})
}

// Histogram registers (or returns) a histogram with the given bucket
// bounds (strictly increasing; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, TypeHistogram)
	if in := f.find(labels); in != nil {
		return in.hist
	}
	h := &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	f.insts = append(f.insts, &instrument{labels: labels, hist: h})
	return h
}

// SampleFunc registers a dynamic family: fn is called at scrape time and
// its samples are rendered under one TYPE header. typ is TypeCounter or
// TypeGauge.
func (r *Registry) SampleFunc(name, help, typ string, fn func() []Sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, typ)
	f.sampleFn = fn
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeLabels renders {a="b",c="d"} (empty string for no labels). extra is
// appended after the fixed labels (used for the histogram le label).
func writeLabels(sb *strings.Builder, labels []Label, extra ...Label) {
	if len(labels) == 0 && len(extra) == 0 {
		return
	}
	sb.WriteByte('{')
	first := true
	for _, l := range append(append([]Label{}, labels...), extra...) {
		if !first {
			sb.WriteByte(',')
		}
		first = false
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
}

// WriteText renders the registry in the Prometheus text exposition format,
// families in registration order.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	order := append([]string{}, r.order...)
	fams := make([]*family, 0, len(order))
	for _, name := range order {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()

	var sb strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&sb, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.name, f.typ)
		r.mu.Lock()
		insts := append([]*instrument{}, f.insts...)
		sampleFn := f.sampleFn
		r.mu.Unlock()
		for _, in := range insts {
			switch {
			case in.counter != nil:
				sb.WriteString(f.name)
				writeLabels(&sb, in.labels)
				fmt.Fprintf(&sb, " %d\n", in.counter.Value())
			case in.gauge != nil:
				sb.WriteString(f.name)
				writeLabels(&sb, in.labels)
				fmt.Fprintf(&sb, " %s\n", formatFloat(in.gauge.Value()))
			case in.fn != nil:
				sb.WriteString(f.name)
				writeLabels(&sb, in.labels)
				fmt.Fprintf(&sb, " %s\n", formatFloat(in.fn()))
			case in.hist != nil:
				bounds, counts := in.hist.Buckets()
				var cum, count uint64
				sum := in.hist.Sum()
				for i, b := range bounds {
					cum += counts[i]
					sb.WriteString(f.name)
					sb.WriteString("_bucket")
					writeLabels(&sb, in.labels, L("le", formatFloat(b)))
					fmt.Fprintf(&sb, " %d\n", cum)
				}
				cum += counts[len(bounds)]
				count = cum
				sb.WriteString(f.name)
				sb.WriteString("_bucket")
				writeLabels(&sb, in.labels, L("le", "+Inf"))
				fmt.Fprintf(&sb, " %d\n", cum)
				sb.WriteString(f.name)
				sb.WriteString("_sum")
				writeLabels(&sb, in.labels)
				fmt.Fprintf(&sb, " %s\n", formatFloat(sum))
				sb.WriteString(f.name)
				sb.WriteString("_count")
				writeLabels(&sb, in.labels)
				fmt.Fprintf(&sb, " %d\n", count)
			}
		}
		if sampleFn != nil {
			for _, s := range sampleFn() {
				sb.WriteString(f.name)
				writeLabels(&sb, s.Labels)
				fmt.Fprintf(&sb, " %s\n", formatFloat(s.Value))
			}
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// Text renders the registry to a string.
func (r *Registry) Text() string {
	var sb strings.Builder
	r.WriteText(&sb) // strings.Builder writes cannot fail
	return sb.String()
}

// Handler returns an http.Handler serving the registry (for /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}
