package main

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestSupportedQuantileLeavesTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 20, 99, 500, 999, 1000, 1001, 5000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64((i*7919)%n) + 0.5 // distinct, unsorted
		}
		q := supportedQuantile(n, 0.99)
		if q > 0.99 {
			t.Fatalf("n=%d: quantile %v above the requested p99", n, q)
		}
		if got := samplesBeyond(xs, quantile(xs, q)); got < minBeyond {
			t.Errorf("n=%d: p%.4g leaves %d samples beyond it, want >= %d", n, 100*q, got, minBeyond)
		}
	}
	if q := supportedQuantile(1000, 0.99); q != 0.99 {
		t.Errorf("1000 samples support p99 exactly, got p%v", 100*q)
	}
	if q := supportedQuantile(500, 0.99); q != 0.98 {
		t.Errorf("500 samples support p98, got p%v", 100*q)
	}
	if q := supportedQuantile(10, 0.99); q != 0 {
		t.Errorf("10 samples support no tail percentile, got p%v", 100*q)
	}
}

func TestTailQuantileNeverBelowMedian(t *testing.T) {
	xs := make([]float64, 18)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, q := tailQuantile(xs); q != 0.5 || v != median(xs) {
		t.Errorf("18 samples: tail p%v = %v, want the median %v", 100*q, v, median(xs))
	}
	xs = make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, q := tailQuantile(xs); q != 0.99 {
		t.Errorf("2000 samples: tail p%v, want p99", 100*q)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if !reflect.DeepEqual(xs, []float64{4, 1, 3, 2}) {
		t.Errorf("quantile sorted its input in place: %v", xs)
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("median of no samples should be NaN")
	}
}

func testAnswers(t *testing.T) *answers {
	t.Helper()
	a, err := loadAnswers(expectedJSON)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// philosOutcome is a correct philos run with its debug artifacts.
func philosOutcome() *outcome {
	o := newOutcome("philos")
	o.Debug = true
	o.LC, o.CTL = 2, 2
	o.Reached = "13"
	for name, kind := range map[string]string{"eat_mutex": "lc", "eat_live": "lc", "mutex": "ctl", "progress": "ctl"} {
		o.Kinds[name] = kind
		o.Verdicts[name] = name == "eat_mutex" || name == "mutex"
	}
	o.TraceOK["eat_live"] = true
	o.BugReport["eat_live"] = true
	o.BugReport["progress"] = true
	o.Explained["progress"] = true
	return o
}

func TestFailedFracCountsWrongExpectation(t *testing.T) {
	a := testAnswers(t)
	var ok tally
	a.verify(philosOutcome(), &ok)
	if ok.failed != 0 || ok.attempted == 0 {
		t.Fatalf("correct philos run: %d of %d checks failed: %v", ok.failed, ok.attempted, ok.messages)
	}

	// Inject a wrong expectation: philos's failing LC property is
	// expected to pass, and its reachable count is off by one.
	e := a.Designs["philos"]
	e.Failing = []string{"progress"}
	e.Reached = "14"
	a.Designs["philos"] = e
	var bad tally
	a.verify(philosOutcome(), &bad)
	if bad.attempted != ok.attempted {
		t.Errorf("attempted %d checks, want %d", bad.attempted, ok.attempted)
	}
	if bad.failed != 2 {
		t.Errorf("failed %d checks, want 2 (verdict, reachable count): %v", bad.failed, bad.messages)
	}
	if got, want := bad.failedFrac(), 2/float64(bad.attempted); got != want {
		t.Errorf("failed_frac = %v, want %v", got, want)
	}
}

func TestFailedFracCountsMissingArtifactsAndJobFailures(t *testing.T) {
	a := testAnswers(t)
	o := philosOutcome()
	o.TraceOK["eat_live"] = false
	o.Explained["progress"] = false
	var tl tally
	a.verify(o, &tl)
	if tl.failed != 2 {
		t.Errorf("missing trace replay and explanation: %d failed checks, want 2: %v", tl.failed, tl.messages)
	}

	job := newOutcome("pingpong")
	job.Daemon = true
	job.Errors = []string{"queue full"}
	var jt tally
	a.verify(job, &jt)
	if jt.attempted != 1 || jt.failed != 1 {
		t.Errorf("rejected job: %d of %d checks failed, want 1 of 1", jt.failed, jt.attempted)
	}
}

func TestSchedulerClosedForm(t *testing.T) {
	a := testAnswers(t)
	for name, want := range a.SchedulerN.Examples {
		e, err := a.lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if e.Reached != want {
			t.Errorf("%s: closed form gives %s, file lists %s", name, e.Reached, want)
		}
	}
	if got := a.Designs["scheduler"].Reached; got != schedulerReached(16).String() {
		t.Errorf("bundled scheduler is scheduler-16: %s vs %s", got, schedulerReached(16))
	}
	if _, err := a.lookup("no-such-design"); err == nil {
		t.Error("unknown design has no expectation and must fail the check")
	}
}

func TestSelfTimeOfNestedSpans(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "design", Start: 10 * ms, End: 90 * ms},
		{ID: 3, Parent: 2, Name: "reach", Start: 10 * ms, End: 50 * ms},
		{ID: 4, Parent: 3, Name: "reorder", Start: 40 * ms, End: 50 * ms, Derived: true},
		{ID: 5, Parent: 2, Name: "lc", Start: 60 * ms, End: 80 * ms},
		// concurrent jobs under one root: the overlap counts once
		{ID: 6, Name: "run", Start: 0, End: 100 * ms},
		{ID: 7, Parent: 6, Name: "job", Start: 0, End: 60 * ms},
		{ID: 8, Parent: 6, Name: "job", Start: 30 * ms, End: 80 * ms},
	}
	want := map[string]time.Duration{
		"pass":    20 * ms, // 100 - 80 covered by design
		"design":  20 * ms, // 80 - 40 reach - 20 lc
		"reach":   30 * ms, // 40 - 10 reorder
		"reorder": 10 * ms,
		"lc":      20 * ms,
		"run":     20 * ms, // 100 - union [0,80)
		"job":     110 * ms,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
}

func TestJobListIsDeterministicPerSeed(t *testing.T) {
	list := func(seed int64) []jobSpec {
		s := newJobStream(seed)
		out := make([]jobSpec, 2000)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	a, b := list(7), list(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different job lists")
	}
	if reflect.DeepEqual(a, list(8)) {
		t.Fatal("different seeds gave the same job list")
	}
	tenants := map[string]int{}
	nonces := map[uint64]bool{}
	for start := 0; start < len(a); start += blockSize {
		mix := map[string]int{}
		reach := 0
		for _, j := range a[start:min(start+blockSize, len(a))] {
			mix[j.Design]++
			if j.Reach {
				reach++
			}
			tenants[j.Tenant]++
			if j.generated() {
				if !strings.HasPrefix(j.Design, "scheduler-") || nonces[j.Nonce] {
					t.Fatalf("generated job %+v: want a scheduler-N design with a fresh nonce", j)
				}
				nonces[j.Nonce] = true
			}
		}
		if start+blockSize > len(a) {
			break
		}
		if mix["pingpong"] != perBuiltin || mix["scheduler-8"] != perSched || reach != blockSize/2 {
			t.Fatalf("block at %d: mix %v with %d reach jobs, want %d per builtin, %d per scheduler-N, half with reach",
				start, mix, reach, perBuiltin, perSched)
		}
	}
	if len(tenants) != 2 {
		t.Errorf("jobs split over %d tenants, want 2", len(tenants))
	}
}
