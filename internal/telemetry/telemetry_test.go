package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestEmitJSONL checks every emitted line is a valid JSON object with
// "ev" first, "t_us" second, and the caller's fields in call order.
func TestEmitJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf)
	sc := NewScope(tr)
	tr.Emit("test.plain",
		Int("a", 1), I64("b", -2), Str("s", `x"y`), F64("f", 0.5), Bool("yes", true))
	sp := sc.Start("test.span")
	time.Sleep(time.Millisecond)
	sp.End(Int("n", 7))
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %d: %q", len(lines), buf.String())
	}
	var plain map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &plain); err != nil {
		t.Fatalf("line 0 is not JSON: %v", err)
	}
	if plain["ev"] != "test.plain" || plain["a"] != 1.0 || plain["b"] != -2.0 ||
		plain["s"] != `x"y` || plain["f"] != 0.5 || plain["yes"] != true {
		t.Fatalf("bad plain event: %v", plain)
	}
	if !strings.HasPrefix(lines[0], `{"ev":"test.plain","t_us":`) {
		t.Fatalf("field order not deterministic: %s", lines[0])
	}
	var span map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &span); err != nil {
		t.Fatalf("line 1 is not JSON: %v", err)
	}
	if span["ev"] != "test.span" || span["n"] != 7.0 {
		t.Fatalf("bad span event: %v", span)
	}
	if e, ok := span["elapsed_us"].(float64); !ok || e < 500 {
		t.Fatalf("span elapsed_us missing or too small: %v", span["elapsed_us"])
	}
	if tr.Events() != 2 {
		t.Fatalf("Events() = %d, want 2", tr.Events())
	}
	if tr.Count("test.plain") != 1 || tr.Count("test.span") != 1 {
		t.Fatal("per-kind counts wrong")
	}
}

func TestZeroSpanEndIsNoop(t *testing.T) {
	var sp Span
	sp.End(Int("x", 1)) // must not panic
}

func TestPublishNodesAndSampler(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf)
	sc := NewScope(tr)
	sc.PublishNodes(123, 456)
	if live, peak := sc.LiveNodes(); live != 123 || peak != 456 {
		t.Fatalf("gauges = %d/%d, want 123/456", live, peak)
	}
	// The publication lands in the timeline without emitting an event.
	if got := tr.Events(); got != 0 {
		t.Fatalf("publication should not emit events, got %d", got)
	}
	if s := tr.Samples(); len(s) != 1 || s[0].Live != 123 || s[0].Peak != 456 {
		t.Fatalf("bad timeline: %v", s)
	}
	// The sampler reads the gauges and emits bdd.sample events.
	sc.StartSampler(time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for tr.Count("bdd.sample") == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	sc.StopSampler()
	if tr.Count("bdd.sample") == 0 {
		t.Fatal("sampler emitted no bdd.sample events")
	}
}

// TestScopeIsolation checks two scopes keep separate gauges and sinks —
// the property that lets the daemon trace jobs concurrently.
func TestScopeIsolation(t *testing.T) {
	var buf1, buf2 bytes.Buffer
	sc1 := NewScope(New(&buf1))
	sc2 := NewScope(New(&buf2))
	sc1.PublishNodes(10, 10)
	sc2.PublishNodes(20, 30)
	if live, _ := sc1.LiveNodes(); live != 10 {
		t.Fatalf("scope 1 gauge = %d, want 10", live)
	}
	if live, peak := sc2.LiveNodes(); live != 20 || peak != 30 {
		t.Fatalf("scope 2 gauges = %d/%d, want 20/30", live, peak)
	}
	sc1.Emit("only.one")
	sc1.Close()
	sc2.Close()
	if !strings.Contains(buf1.String(), "only.one") {
		t.Fatal("scope 1 sink missed its event")
	}
	if strings.Contains(buf2.String(), "only.one") {
		t.Fatal("scope 2 sink saw scope 1's event")
	}
}

// TestSamplerCloseRace drives a fast sampler against concurrent
// publications and a racing StopSampler/Close — the shutdown-ordering
// audit from the issue, meaningful under -race.
func TestSamplerCloseRace(t *testing.T) {
	for i := 0; i < 10; i++ {
		var buf bytes.Buffer
		sc := NewScope(New(&buf))
		sc.PublishNodes(1, 1)
		sc.StartSampler(time.Millisecond)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				sc.PublishNodes(j, j)
			}
		}()
		go func() {
			defer wg.Done()
			sc.StopSampler() // concurrent with Close's own StopSampler
		}()
		time.Sleep(time.Millisecond)
		if err := sc.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		// After Close, the sampler goroutine has exited: no further
		// events can appear.
		n := sc.Tracer().Events()
		time.Sleep(2 * time.Millisecond)
		if got := sc.Tracer().Events(); got != n {
			t.Fatalf("events after Close: %d -> %d", n, got)
		}
	}
}

// TestConcurrentEmit drives the tracer from several goroutines at once
// — the kernel emits from the verification goroutine while the sampler
// ticks — and checks the sink still holds one valid JSON object per line.
func TestConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf)
	var wg sync.WaitGroup
	const goroutines, events = 4, 100
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				tr.Emit("conc", Int("g", g), Int("i", i))
			}
		}(g)
	}
	wg.Wait()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != goroutines*events {
		t.Fatalf("want %d lines, got %d", goroutines*events, len(lines))
	}
	for _, l := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("corrupt line %q: %v", l, err)
		}
	}
}

func TestSummaryBlocks(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf)
	sc := NewScope(tr)
	sp := sc.Start("phase.a")
	sp.End()
	tr.Emit("phase.b")
	sc.PublishNodes(10, 20)
	sc.PublishNodes(50, 50)
	sc.PublishNodes(30, 50)
	sum := tr.Summary("  stats-block-line\n")
	for _, want := range []string{
		"telemetry summary", "phase.a", "phase.b",
		"node growth", "<- peak", "stats-block-line",
	} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}

// TestTimelineCompaction checks long timelines compact to few rows while
// keeping the first, last and peak samples.
func TestTimelineCompaction(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf)
	sc := NewScope(tr)
	for i := 0; i < 100; i++ {
		live := i
		if i == 37 {
			live = 1000 // the peak, off the even grid
		}
		sc.PublishNodes(live, 1000)
	}
	tl := tr.Timeline(10)
	if !strings.Contains(tl, "1000") || !strings.Contains(tl, "<- peak") {
		t.Fatalf("timeline lost the peak:\n%s", tl)
	}
	if rows := strings.Count(tl, "\n"); rows > 14 {
		t.Fatalf("timeline not compacted: %d rows", rows)
	}
}

// BenchmarkDisabledScopeSite measures the disabled-path cost contract:
// an instrumentation site behind a nil-scope check must cost a branch —
// no allocation, no time syscall. BenchmarkDisabledManagerSite in
// internal/bdd times the same site behind Manager.Telemetry.
func BenchmarkDisabledScopeSite(b *testing.B) {
	var sc *Scope
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if sc != nil {
			sc.Emit("never", Int("x", i))
		}
	}
}
