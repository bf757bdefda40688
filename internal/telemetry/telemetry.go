// Package telemetry is the observability substrate of the verification
// stack: event tracing (JSONL spans and counters), latency histograms,
// a per-job flight recorder, and live-node gauges that every hot layer
// (the BDD kernel, the fixpoint drivers, the image pipeline, the
// simulator) reports into — and that is a strict no-op unless armed.
//
// # Scopes
//
// The unit of arming is the Scope: an instance-scoped bundle of an
// optional Tracer (JSONL sink), an optional flight Recorder, an
// optional MetricSet (latency histograms), and the live-node gauges.
// Every bdd.Manager carries a Scope pointer; instrumentation sites ask
// the manager (not the process) for their sink:
//
//	if sc := m.Telemetry(); sc != nil { ... sc.Emit(...) ... }
//
// so any number of managers — one per daemon job, one per CLI session
// — can be traced concurrently without sharing a stream. There is no
// process-wide scope: a manager reports only into the scope installed
// on it (Manager.SetTelemetry, usually via core.Options.Telemetry), and
// a manager without one is disarmed.
//
// The disabled-path contract: a disarmed site pays one atomic pointer
// load and a predicted branch — no field construction, no time
// syscalls, no allocation (BenchmarkDisabledScopeSite here and
// BenchmarkDisabledManagerSite in internal/bdd verify the cost). The
// package deliberately imports nothing from this repository, so any
// layer down to the BDD kernel may emit without an import cycle.
//
// An armed Tracer appends one JSON object per event to its sink (a
// JSONL trace file under the CLIs' -trace flag), aggregates per-kind
// counts and span durations for the end-of-run summary, and keeps a
// node-growth timeline fed by the kernel's gauge publications and an
// optional background sampler (see scope.go). Event encoding is
// hand-rolled so field order is deterministic: "ev" first, then "t_us",
// then the caller's fields in call order — a trace with its clock
// fields stripped is reproducible run to run, which is what the golden
// trace test pins down.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// fieldKind discriminates the value held by a Field.
type fieldKind byte

const (
	fieldInt fieldKind = iota
	fieldStr
	fieldFloat
	fieldBool
)

// Field is one key/value attribute of an event. Construct with Int,
// I64, Str, F64 or Bool; fields are encoded in the order given.
type Field struct {
	Key  string
	kind fieldKind
	i    int64
	s    string
	f    float64
}

// Int builds an integer field.
func Int(k string, v int) Field { return Field{Key: k, kind: fieldInt, i: int64(v)} }

// I64 builds a 64-bit integer field.
func I64(k string, v int64) Field { return Field{Key: k, kind: fieldInt, i: v} }

// Str builds a string field.
func Str(k, v string) Field { return Field{Key: k, kind: fieldStr, s: v} }

// F64 builds a float field (encoded with %g).
func F64(k string, v float64) Field { return Field{Key: k, kind: fieldFloat, f: v} }

// Bool builds a boolean field.
func Bool(k string, v bool) Field {
	f := Field{Key: k, kind: fieldBool}
	if v {
		f.i = 1
	}
	return f
}

// appendEvent encodes one event onto b in the canonical JSONL form:
// "ev" first, "t_us" second, the fields in call order, then
// "elapsed_us" when elapsed > 0. Shared by the tracer sink and the
// flight-recorder dump so both render identical lines.
func appendEvent(b []byte, kind string, tus int64, elapsed time.Duration, fields []Field) []byte {
	b = append(b, `{"ev":"`...)
	b = append(b, kind...)
	b = append(b, `","t_us":`...)
	b = strconv.AppendInt(b, tus, 10)
	for _, f := range fields {
		b = append(b, ',', '"')
		b = append(b, f.Key...)
		b = append(b, '"', ':')
		switch f.kind {
		case fieldInt:
			b = strconv.AppendInt(b, f.i, 10)
		case fieldStr:
			b = strconv.AppendQuote(b, f.s)
		case fieldFloat:
			b = strconv.AppendFloat(b, f.f, 'g', -1, 64)
		case fieldBool:
			b = strconv.AppendBool(b, f.i != 0)
		}
	}
	if elapsed > 0 {
		b = append(b, `,"elapsed_us":`...)
		b = strconv.AppendInt(b, elapsed.Microseconds(), 10)
	}
	b = append(b, '}', '\n')
	return b
}

// kindStat aggregates one event kind for the summary table.
type kindStat struct {
	count int64
	total time.Duration // accumulated span durations (0 for plain events)
}

// Sample is one point of the node-growth timeline.
type Sample struct {
	TUs  int64 // microseconds since the tracer started
	Live int64 // live BDD nodes at the sample
	Peak int64 // peak live nodes seen so far
}

// Tracer is an armed event sink. All methods are safe for concurrent
// use: with per-job scopes several goroutines of one job (the
// verification goroutine, the background sampler) may emit at once.
type Tracer struct {
	start time.Time

	mu      sync.Mutex
	w       *bufio.Writer
	c       io.Closer // underlying file, when OpenTrace created it
	buf     []byte    // reusable encoding buffer
	events  int64
	agg     map[string]*kindStat
	samples []Sample
	err     error // first sink write error, reported by Close
}

// New builds a tracer writing JSONL events to w. The caller owns w; use
// OpenTrace to write to a file the tracer closes itself.
func New(w io.Writer) *Tracer {
	return &Tracer{
		start: time.Now(),
		w:     bufio.NewWriter(w),
		agg:   make(map[string]*kindStat),
	}
}

// OpenTrace creates (truncating) the JSONL trace file at path and
// returns a tracer writing to it. Close flushes and closes the file.
func OpenTrace(path string) (*Tracer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	t := New(f)
	t.c = f
	return t, nil
}

// Emit appends one event. Fields are encoded after "ev" and "t_us" in
// the order given; keys must be plain identifiers (no escaping is done).
func (t *Tracer) Emit(kind string, fields ...Field) {
	t.emit(kind, 0, fields)
}

// Span is an in-flight timed event, created by Scope.Start and
// finished by End. The zero Span is valid and End on it is a no-op, so
// call sites can hold one unconditionally.
type Span struct {
	sc    *Scope
	kind  string
	begin time.Time
}

// End finishes the span, emitting its event with the given fields plus
// elapsed_us, and feeding the duration into the scope's histogram for
// the span's kind (when a MetricSet is armed).
func (sp Span) End(fields ...Field) {
	if sp.sc == nil {
		return
	}
	sp.sc.emit(sp.kind, time.Since(sp.begin), fields)
}

func (t *Tracer) emit(kind string, elapsed time.Duration, fields []Field) {
	tus := time.Since(t.start).Microseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events++
	st := t.agg[kind]
	if st == nil {
		st = &kindStat{}
		t.agg[kind] = st
	}
	st.count++
	st.total += elapsed

	b := appendEvent(t.buf[:0], kind, tus, elapsed, fields)
	t.buf = b
	if _, err := t.w.Write(b); err != nil && t.err == nil {
		t.err = err
	}
}

// Events returns the number of events emitted so far.
func (t *Tracer) Events() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events
}

// record appends a node-growth sample (and counts it as a sample event
// when emitEvent is set — the background sampler emits, gauge-driven
// kernel publications only append).
func (t *Tracer) record(live, peak int64, emitEvent bool) {
	tus := time.Since(t.start).Microseconds()
	t.mu.Lock()
	t.samples = append(t.samples, Sample{TUs: tus, Live: live, Peak: peak})
	t.mu.Unlock()
	if emitEvent {
		t.Emit("bdd.sample", I64("live", live), I64("peak_live", peak))
	}
}

// Samples returns a copy of the node-growth timeline.
func (t *Tracer) Samples() []Sample {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Sample(nil), t.samples...)
}

// Flush writes buffered events to the sink.
func (t *Tracer) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}

// Close flushes the sink and closes the trace file when the tracer
// opened it. It returns the first write error seen over the tracer's
// lifetime. A closed tracer must not be armed; a scope whose sampler
// feeds this tracer must StopSampler (or Scope.Close) first.
func (t *Tracer) Close() error {
	err := t.Flush()
	if t.c != nil {
		if cerr := t.c.Close(); cerr != nil && err == nil {
			err = cerr
		}
		t.c = nil
	}
	return err
}

// kindRow is one line of the summary's per-kind table.
type kindRow struct {
	Kind  string
	Count int64
	Total time.Duration
}

// kinds snapshots the per-kind aggregation, sorted by total duration
// (descending), then count, then name.
func (t *Tracer) kinds() []kindRow {
	t.mu.Lock()
	rows := make([]kindRow, 0, len(t.agg))
	for k, st := range t.agg {
		rows = append(rows, kindRow{Kind: k, Count: st.count, Total: st.total})
	}
	t.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Total != b.Total {
			return a.Total > b.Total
		}
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		return a.Kind < b.Kind
	})
	return rows
}

// Count returns how many events of the given kind have been emitted.
func (t *Tracer) Count(kind string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.agg[kind]; st != nil {
		return st.count
	}
	return 0
}

// Err returns the first sink write error, if any.
func (t *Tracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// String identifies the tracer in shell diagnostics.
func (t *Tracer) String() string {
	return fmt.Sprintf("tracer(%d events)", t.Events())
}
