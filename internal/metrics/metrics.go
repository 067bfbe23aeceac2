// Package metrics is a small, dependency-free instrumentation layer:
// counters, gauges and histograms registered in a Registry that renders
// the Prometheus text exposition format (version 0.0.4). It exists so the
// server can expose operational state on GET /metrics without pulling an
// external client library into a reproduction repo.
//
// All instruments are safe for concurrent use and allocation-free on the
// update path (atomic integers; histogram observations touch one bucket
// counter and two accumulators). Instruments are identified by a family
// name plus an optional pre-rendered label set:
//
//	reg := metrics.NewRegistry()
//	hits := reg.Counter("dramserved_cache_hits_total", "", "Model cache hits.")
//	lat := reg.Histogram("dramserved_request_seconds", `path="/v1/evaluate"`,
//		"Request latency.", metrics.LatencyBuckets)
//	hits.Inc()
//	lat.Observe(0.0041)
//	reg.WritePrometheus(w)
//
// Registering the same name+labels twice returns the existing instrument,
// so call sites don't need to thread instrument handles around.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// LatencyBuckets is a set of histogram upper bounds (seconds) that covers
// sub-millisecond model-cache hits up to multi-second trace replays.
var LatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the exposition to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to subtract).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one; Dec subtracts one.
func (g *Gauge) Inc() { g.v.Add(1) }
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into cumulative buckets, Prometheus
// style: bucket i counts observations <= bounds[i], plus an implicit +Inf
// bucket, a running sum and a total count.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	sum    atomicFloat
	total  atomic.Int64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.add(v)
	h.total.Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// atomicFloat accumulates a float64 with a CAS loop on its bit pattern.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// kind tags an instrument family for the exposition TYPE line.
type kind int

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// instrument is one registered name+labels series.
type instrument struct {
	name   string // family name
	labels string // pre-rendered `k="v",k2="v2"` or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups the series of one metric name.
type family struct {
	kind kind
	help string
	ins  []*instrument
}

// Registry holds instruments and renders them. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	byKey    map[string]*instrument
	names    []string // registration order of families
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		families: map[string]*family{},
		byKey:    map[string]*instrument{},
	}
}

// lookup finds or creates the series name{labels}, with its instrument
// (a histogram gets bounds), under the registry lock: handlers register
// series on first use, concurrently. It panics if the name was
// previously registered with a different instrument kind — that is a
// programming error, not an operational condition.
func (r *Registry) lookup(name, labels, help string, k kind, bounds []float64) *instrument {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := name + "{" + labels + "}"
	f := r.families[name]
	if f != nil && f.kind != k {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.kind, k))
	}
	if in, ok := r.byKey[key]; ok {
		return in
	}
	if f == nil {
		f = &family{kind: k, help: help}
		r.families[name] = f
		r.names = append(r.names, name)
	}
	in := &instrument{name: name, labels: labels}
	switch k {
	case counterKind:
		in.c = &Counter{}
	case gaugeKind:
		in.g = &Gauge{}
	default:
		h := &Histogram{bounds: append([]float64(nil), bounds...)}
		h.counts = make([]atomic.Int64, len(h.bounds)+1)
		in.h = h
	}
	f.ins = append(f.ins, in)
	r.byKey[key] = in
	return in
}

// Counter finds or creates a counter. labels is a pre-rendered label set
// like `path="/v1/evaluate",code="200"`, or "" for none.
func (r *Registry) Counter(name, labels, help string) *Counter {
	return r.lookup(name, labels, help, counterKind, nil).c
}

// Gauge finds or creates a gauge.
func (r *Registry) Gauge(name, labels, help string) *Gauge {
	return r.lookup(name, labels, help, gaugeKind, nil).g
}

// Histogram finds or creates a histogram with the given upper bounds
// (ascending; +Inf is implicit). Re-registrations ignore the bounds and
// return the existing histogram.
func (r *Registry) Histogram(name, labels, help string, bounds []float64) *Histogram {
	return r.lookup(name, labels, help, histogramKind, bounds).h
}

// Labels renders pairs (key, value, key, value, ...) into the label
// string format Counter/Gauge/Histogram accept, escaping values. It
// panics on an odd pair count.
func Labels(kv ...string) string {
	if len(kv)%2 != 0 {
		panic("metrics: Labels requires key/value pairs")
	}
	out := ""
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			out += ","
		}
		out += kv[i] + "=" + strconv.Quote(kv[i+1])
	}
	return out
}

// WritePrometheus renders every registered instrument in the text
// exposition format, families in registration order, series within a
// family sorted by label set (deterministic output for tests and diffing).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	type familySnapshot struct {
		name string
		kind kind
		help string
		ins  []*instrument
	}
	snap := make([]familySnapshot, 0, len(r.names))
	for _, name := range r.names {
		f := r.families[name]
		ins := append([]*instrument(nil), f.ins...)
		sort.Slice(ins, func(i, j int) bool { return ins[i].labels < ins[j].labels })
		snap = append(snap, familySnapshot{name, f.kind, f.help, ins})
	}
	r.mu.Unlock()

	for _, f := range snap {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, in := range f.ins {
			if err := writeSeries(w, in, f.kind); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, in *instrument, k kind) error {
	switch k {
	case counterKind:
		_, err := fmt.Fprintf(w, "%s %d\n", series(in.name, in.labels), in.c.Value())
		return err
	case gaugeKind:
		_, err := fmt.Fprintf(w, "%s %d\n", series(in.name, in.labels), in.g.Value())
		return err
	default:
		h := in.h
		cum := int64(0)
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			le := strconv.FormatFloat(bound, 'g', -1, 64)
			if _, err := fmt.Fprintf(w, "%s %d\n",
				series(in.name+"_bucket", joinLabels(in.labels, `le="`+le+`"`)), cum); err != nil {
				return err
			}
		}
		cum += h.counts[len(h.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s %d\n",
			series(in.name+"_bucket", joinLabels(in.labels, `le="+Inf"`)), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", series(in.name+"_sum", in.labels),
			strconv.FormatFloat(h.Sum(), 'g', -1, 64)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s %d\n", series(in.name+"_count", in.labels), h.Count())
		return err
	}
}

// series renders `name{labels}` (or bare name without labels).
func series(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// joinLabels appends extra to a (possibly empty) label set.
func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}
