// Package telemetry is the dependency-free observability layer of the
// simulated GPGPU cluster: a metrics registry (atomic counters, gauges
// and histograms with labels), a span log for virtual-time timelines,
// Prometheus-text and JSON exposition, and an optional HTTP endpoint
// for watching long runs live.
//
// Every simulator layer publishes into a Registry: internal/gpu emits
// per-kernel transaction counts and the paper's model quantities
// (Eq. 1's code balance and α, coalescing efficiency), internal/simnet
// and internal/mpi emit wire traffic and serialization time,
// internal/distmv emits per-rank structure and run-level performance,
// and the solvers emit iteration/residual gauges. Output is
// deterministic: metric families are sorted by name, series by their
// canonical (sorted) label set, and spans by start time.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key/value dimension of a metric series.
type Label struct {
	Key, Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Li builds a Label with an integer value (ranks, node counts).
func Li(key string, value int) Label { return Label{Key: key, Value: strconv.Itoa(value)} }

// canonical renders labels in sorted {k="v",...} form; it is the
// series identity within a family and the exposition order.
func canonical(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].Key != ls[j].Key {
			return ls[i].Key < ls[j].Key
		}
		return ls[i].Value < ls[j].Value
	})
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel applies the Prometheus label-value escaping rules.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// validName reports whether name is a legal metric name.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// atomicFloat is a float64 updated with CAS on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Counter is a monotonically increasing series.
type Counter struct {
	labels []Label
	val    atomicFloat
}

// Add increases the counter; negative deltas panic (counters are
// monotone by contract).
func (c *Counter) Add(v float64) {
	if v < 0 {
		// Contract: deltas are counts or durations, never negative.
		panic(fmt.Sprintf("telemetry: negative counter delta %g", v))
	}
	c.val.add(v)
}

// Inc adds one.
func (c *Counter) Inc() { c.val.add(1) }

// Value returns the current total.
func (c *Counter) Value() float64 { return c.val.load() }

// Gauge is a series holding the last observed value.
type Gauge struct {
	labels []Label
	val    atomicFloat
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.val.store(v) }

// Add shifts the gauge by v.
func (g *Gauge) Add(v float64) { g.val.add(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.val.load() }

// Histogram accumulates observations into fixed cumulative buckets.
type Histogram struct {
	labels []Label
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []atomic.Uint64
	sum    atomicFloat
	n      atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.sum.add(v)
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// DefBuckets is the default byte-size bucket ladder used for message
// and transfer sizes.
var DefBuckets = []float64{64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304}

// Registry holds metric families. All methods are safe for concurrent
// use; series handles (Counter, Gauge, Histogram) update with atomics
// only.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// kind guards one name against being used as several metric types.
	kind map[string]string
	help map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		kind:     map[string]string{},
		help:     map[string]string{},
	}
}

// defaultRegistry collects everything not sent to an explicit registry;
// the cmd binaries expose it via -metrics-out / -metrics-addr.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Help attaches exposition help text to a family name.
func (r *Registry) Help(name, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = text
}

// checkKind registers (or verifies) the type of a family. Callers hold r.mu.
func (r *Registry) checkKind(name, want string) {
	if !validName(name) {
		// Contract: family names are constants; request data goes in label values.
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	if k, ok := r.kind[name]; ok && k != want {
		// Contract: one family name, one metric kind.
		panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, k, want))
	}
	r.kind[name] = want
}

// Counter returns the counter series for name+labels, creating it on
// first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	key := name + canonical(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[key]; ok {
		return c
	}
	r.checkKind(name, "counter")
	c := &Counter{labels: append([]Label(nil), labels...)}
	r.counters[key] = c
	return c
}

// Gauge returns the gauge series for name+labels, creating it on first
// use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	key := name + canonical(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[key]; ok {
		return g
	}
	r.checkKind(name, "gauge")
	g := &Gauge{labels: append([]Label(nil), labels...)}
	r.gauges[key] = g
	return g
}

// Histogram returns the histogram series for name+labels, creating it
// with the given ascending bucket bounds on first use (nil selects
// DefBuckets). Later calls reuse the first bounds.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	key := name + canonical(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[key]; ok {
		return h
	}
	r.checkKind(name, "histogram")
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			// Contract: bucket bounds are constant ascending tables.
			panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending", name))
		}
	}
	h := &Histogram{
		labels: append([]Label(nil), labels...),
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	r.hists[key] = h
	return h
}
