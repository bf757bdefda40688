package telemetry

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.SumUS != 0 {
		t.Fatalf("empty histogram count/sum = %d/%d", s.Count, s.SumUS)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 1.0} {
		if got := s.QuantileUS(q); got != 0 {
			t.Fatalf("empty histogram q%.2f = %d, want 0", q, got)
		}
	}
	if s.MeanUS() != 0 {
		t.Fatal("empty histogram mean != 0")
	}
}

func TestHistogramSingleObservation(t *testing.T) {
	var h Histogram
	h.ObserveUS(100) // bucket 7: [64, 127]
	s := h.Snapshot()
	if s.Count != 1 || s.SumUS != 100 {
		t.Fatalf("count/sum = %d/%d, want 1/100", s.Count, s.SumUS)
	}
	// Every quantile of a single observation reports that observation's
	// bucket upper bound.
	for _, q := range []float64{0.01, 0.5, 0.99, 1.0} {
		if got := s.QuantileUS(q); got != 127 {
			t.Fatalf("q%.2f = %d, want 127", q, got)
		}
	}
	if s.MeanUS() != 100 {
		t.Fatalf("mean = %d, want 100", s.MeanUS())
	}
}

// TestHistogramBucketBoundaries pins the log-2 bucketing: 2^k-1 and 2^k
// land in adjacent buckets, 0 and negatives in bucket 0, and huge
// values clamp to the open-ended last bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		us     int64
		bucket int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3},
		{127, 7}, {128, 8}, {255, 8}, {256, 9},
		{1 << 50, HistogramBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.us); got != c.bucket {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.us, got, c.bucket)
		}
	}
	// Upper bounds: bucket i holds values up to 2^i - 1.
	var h Histogram
	h.ObserveUS(127)
	if got := h.Snapshot().P50US(); got != 127 {
		t.Fatalf("p50 of a 127µs observation = %d, want 127 (exact boundary)", got)
	}
	var h2 Histogram
	h2.ObserveUS(128)
	if got := h2.Snapshot().P50US(); got != 255 {
		t.Fatalf("p50 of a 128µs observation = %d, want 255", got)
	}
}

func TestHistogramQuantileRanks(t *testing.T) {
	var h Histogram
	// 90 fast observations (bucket 1: ≤1µs), 10 slow (bucket 11: ≤2047µs).
	for i := 0; i < 90; i++ {
		h.ObserveUS(1)
	}
	for i := 0; i < 10; i++ {
		h.ObserveUS(2000)
	}
	s := h.Snapshot()
	if got := s.P50US(); got != 1 {
		t.Fatalf("p50 = %d, want 1", got)
	}
	// Rank ceil(0.9*100) = 90 is the last fast observation.
	if got := s.P90US(); got != 1 {
		t.Fatalf("p90 = %d, want 1", got)
	}
	if got := s.P99US(); got != 2047 {
		t.Fatalf("p99 = %d, want 2047", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.ObserveUS(10)
	b.ObserveUS(1000)
	b.ObserveUS(1000)
	a.Merge(b.Snapshot())
	s := a.Snapshot()
	if s.Count != 3 || s.SumUS != 2010 {
		t.Fatalf("merged count/sum = %d/%d, want 3/2010", s.Count, s.SumUS)
	}
	a.Merge(HistogramSnapshot{}) // empty merge is a no-op
	if a.Snapshot().Count != 3 {
		t.Fatal("empty merge changed the histogram")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.ObserveUS(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != goroutines*per {
		t.Fatalf("count = %d, want %d", got, goroutines*per)
	}
}

func TestMetricSetKindRouting(t *testing.T) {
	ms := NewMetricSet()
	sc := NewScope(nil).WithMetrics(ms)
	for _, kind := range []string{"reach.iter", "sys.reach.iter",
		"ctl.eu.iter", "emptiness.hull.iter", "lc.bounded.iter"} {
		sc.EmitElapsed(kind, time.Millisecond)
	}
	sc.EmitElapsed("quant.image", time.Millisecond)
	sc.EmitElapsed("bdd.gc", time.Millisecond)
	sc.EmitElapsed("bdd.reorder_end", time.Millisecond)
	sc.EmitElapsed("quant.cluster", time.Millisecond) // trace-only kind
	sc.Emit("reach.iter")                             // untimed: not an observation
	if got := ms.FixpointIter.Snapshot().Count; got != 5 {
		t.Fatalf("fixpoint iterations = %d, want 5", got)
	}
	if ms.Image.Snapshot().Count != 1 || ms.GCPause.Snapshot().Count != 1 ||
		ms.Reorder.Snapshot().Count != 1 {
		t.Fatal("image/gc/reorder routing wrong")
	}
	snaps := ms.Snapshots()
	if len(snaps) != 4 || snaps[0].Name != "fixpoint_iteration" {
		t.Fatalf("bad snapshots: %+v", snaps)
	}
}

func TestRegistryValidatesNames(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"queue_depth", "hsis_Queue", "hsis_q1", "hsis-q", ""} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q was accepted", bad)
				}
			}()
			r.GaugeFunc(bad, "", func() int64 { return 0 })
		}()
	}
	r.GaugeFunc("hsis_queue_depth", "ok", func() int64 { return 0 })
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate registration was accepted")
			}
		}()
		r.CounterFunc("hsis_queue_depth", "dup", func() int64 { return 0 })
	}()
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("hsis_jobs_total", "jobs ever", func() int64 { return 42 })
	r.GaugeFunc("hsis_queue_depth", "queued now", func() int64 { return 3 })
	h := r.NewHistogramVec("hsis_gc_pause_seconds", "gc pauses", "engine").With("mono")
	h.ObserveUS(100)
	h.ObserveUS(5000)
	vec := r.NewHistogramVec("hsis_queue_wait_seconds", "queue wait", "tenant")
	vec.With("acme").ObserveUS(1)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP hsis_jobs_total jobs ever",
		"# TYPE hsis_jobs_total counter",
		"hsis_jobs_total 42",
		"# TYPE hsis_queue_depth gauge",
		"hsis_queue_depth 3",
		"# TYPE hsis_gc_pause_seconds histogram",
		`hsis_gc_pause_seconds_bucket{engine="mono",le="+Inf"} 2`,
		`hsis_gc_pause_seconds_count{engine="mono"} 2`,
		`hsis_gc_pause_seconds_sum{engine="mono"} 0.0051`,
		`hsis_queue_wait_seconds_bucket{tenant="acme",le="+Inf"} 1`,
		`hsis_queue_wait_seconds_count{tenant="acme"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Cumulative buckets: the le series of one child must be
	// non-decreasing.
	var prev int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, `hsis_gc_pause_seconds_bucket{engine="mono",le=`) {
			continue
		}
		v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("buckets not cumulative at %q", line)
		}
		prev = v
	}
	if prev < 0 {
		t.Fatal("no le bucket series for the labeled child")
	}
}

// BenchmarkHistogramObserve pins the lock-free observation cost.
func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveUS(int64(i & 0xffff))
	}
}
