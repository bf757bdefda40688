package telemetry

import (
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"sync"
)

// Registry is a flat collection of named metric families exported as
// Prometheus text exposition (format 0.0.4) and as structured
// snapshots for the JSON metrics surface. Families are registered once
// at server construction; registration panics on a duplicate or
// ill-formed name, so a bad series is a startup failure, not a silent
// scrape gap. Every exported name must match MetricNameRE — the
// `make check` lint asserts the same over the live registry.
//
// Counter and gauge families are function-backed (the server already
// keeps its lifetime counters as atomics; the registry reads them at
// scrape time rather than duplicating state). Histogram families are
// vectors over one label and own their child Histogram values.
type Registry struct {
	mu    sync.Mutex
	fams  []*family
	names map[string]bool
}

// MetricNameRE is the shape every exported series name must have.
var MetricNameRE = regexp.MustCompile(`^hsis_[a-z_]+$`)

const (
	kindCounter = "counter"
	kindGauge   = "gauge"
	kindHist    = "histogram"
)

type family struct {
	name  string
	help  string
	kind  string
	label string       // label key of a histogram family
	fn    func() int64 // counter/gauge value source

	hmu      sync.RWMutex
	children map[string]*Histogram // label value → histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

func (r *Registry) register(f *family) {
	if !MetricNameRE.MatchString(f.name) {
		panic(fmt.Sprintf("telemetry: metric name %q does not match %s", f.name, MetricNameRE))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[f.name] {
		panic(fmt.Sprintf("telemetry: metric %q registered twice", f.name))
	}
	r.names[f.name] = true
	r.fams = append(r.fams, f)
}

// CounterFunc registers a monotonic counter read from fn at scrape time.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.register(&family{name: name, help: help, kind: kindCounter, fn: fn})
}

// GaugeFunc registers an instantaneous value read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.register(&family{name: name, help: help, kind: kindGauge, fn: fn})
}

// HistogramVec is a histogram family fanned out over one label; child
// histograms are created on first use of a label value.
type HistogramVec struct {
	fam *family
}

// NewHistogramVec registers a histogram vector with the given label key.
func (r *Registry) NewHistogramVec(name, help, label string) *HistogramVec {
	f := &family{name: name, help: help, kind: kindHist, label: label,
		children: make(map[string]*Histogram)}
	r.register(f)
	return &HistogramVec{fam: f}
}

// With returns the child histogram for a label value, creating it on
// first use.
func (v *HistogramVec) With(value string) *Histogram {
	f := v.fam
	f.hmu.RLock()
	h := f.children[value]
	f.hmu.RUnlock()
	if h != nil {
		return h
	}
	f.hmu.Lock()
	defer f.hmu.Unlock()
	if h = f.children[value]; h == nil {
		h = &Histogram{name: f.name}
		f.children[value] = h
	}
	return h
}

// Names returns every registered family name, sorted — the metrics-name
// lint walks this.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.fams))
	for _, f := range r.fams {
		out = append(out, f.name)
	}
	sort.Strings(out)
	return out
}

// LabeledSnapshot is one (possibly labeled) histogram snapshot, for
// the JSON metrics surface.
type LabeledSnapshot struct {
	HistogramSnapshot
	Label string // label key
	Value string // label value
}

// HistogramSnapshots returns a snapshot of every histogram family,
// families first-registered first, children sorted by label value.
func (r *Registry) HistogramSnapshots() []LabeledSnapshot {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	var out []LabeledSnapshot
	for _, f := range fams {
		if f.kind != kindHist {
			continue
		}
		f.hmu.RLock()
		vals := make([]string, 0, len(f.children))
		for v := range f.children {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		snaps := make([]LabeledSnapshot, 0, len(vals))
		for _, v := range vals {
			snaps = append(snaps, LabeledSnapshot{
				HistogramSnapshot: f.children[v].Snapshot(),
				Label:             f.label, Value: v,
			})
		}
		f.hmu.RUnlock()
		out = append(out, snaps...)
	}
	return out
}

// WritePrometheus renders the registry in Prometheus text exposition
// format 0.0.4: HELP/TYPE headers, cumulative le buckets in seconds
// with a +Inf bucket, and _sum/_count series per histogram.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()

	var b []byte
	for _, f := range fams {
		b = append(b, "# HELP "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, f.help...)
		b = append(b, "\n# TYPE "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, f.kind...)
		b = append(b, '\n')
		switch f.kind {
		case kindCounter, kindGauge:
			b = append(b, f.name...)
			b = append(b, ' ')
			b = strconv.AppendInt(b, f.fn(), 10)
			b = append(b, '\n')
		case kindHist:
			f.hmu.RLock()
			vals := make([]string, 0, len(f.children))
			for v := range f.children {
				vals = append(vals, v)
			}
			sort.Strings(vals)
			for _, v := range vals {
				b = appendPromHistogram(b, f.name, f.label, v, f.children[v].Snapshot())
			}
			f.hmu.RUnlock()
		}
	}
	_, err := w.Write(b)
	return err
}

// appendPromHistogram renders one histogram's bucket/sum/count series.
// Buckets are collapsed to the non-empty prefix (plus +Inf) to keep the
// exposition compact: trailing empty buckets add no information since
// the series is cumulative.
func appendPromHistogram(b []byte, name, label, value string, s HistogramSnapshot) []byte {
	last := 0
	for i, c := range s.Buckets {
		if c != 0 {
			last = i
		}
	}
	var cum int64
	for i := 0; i <= last; i++ {
		cum += s.Buckets[i]
		le := float64(bucketUpperUS(i)) / 1e6
		b = appendPromSeries(b, name, "_bucket", label, value, strconv.FormatFloat(le, 'g', -1, 64))
		b = strconv.AppendInt(b, cum, 10)
		b = append(b, '\n')
	}
	b = appendPromSeries(b, name, "_bucket", label, value, "+Inf")
	b = strconv.AppendInt(b, s.Count, 10)
	b = append(b, '\n')
	b = appendPromSeries(b, name, "_sum", label, value, "")
	b = strconv.AppendFloat(b, float64(s.SumUS)/1e6, 'g', -1, 64)
	b = append(b, '\n')
	b = appendPromSeries(b, name, "_count", label, value, "")
	b = strconv.AppendInt(b, s.Count, 10)
	b = append(b, '\n')
	return b
}

// appendPromSeries writes `name_suffix{label="value",le="bound"} ` up
// to and including the separating space; an empty bound omits le.
func appendPromSeries(b []byte, name, suffix, label, value, le string) []byte {
	b = append(b, name...)
	b = append(b, suffix...)
	b = append(b, '{')
	b = append(b, label...)
	b = append(b, '=')
	b = strconv.AppendQuote(b, value)
	if le != "" {
		b = append(b, `,le=`...)
		b = strconv.AppendQuote(b, le)
	}
	b = append(b, '}', ' ')
	return b
}
