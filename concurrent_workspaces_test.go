package hsis

// Concurrent independent workspaces, the way the hsisd job pool runs
// them: each design is compiled once and shared, and every job
// instantiates its own Workspace — its own BDD Manager — on whichever
// pool goroutine picks it up. Managers share no state, so a pool of N
// goroutines must reproduce, design by design, exactly what one
// goroutine computes: every verdict, the exact reachable-state count,
// the fixpoint's iteration count and the reached set's node count
// (a Manager's node numbering is a deterministic function of the
// operations run on it). `make check` runs these tests under -race.

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"hsis/internal/bdd"
	"hsis/internal/core"
	"hsis/internal/designs"
	"hsis/internal/reach"
)

// designRun is the observable outcome of verifying one design.
type designRun struct {
	states     string // exact reachable-state count
	iterations int
	reachNodes int
	verdicts   map[string]bool
}

// poolJob is one verification job: a shared compiled design, the
// workspace options, and an optional hook applied to the fresh manager
// before any checking runs.
type poolJob struct {
	name  string
	cd    *core.CompiledDesign
	opts  core.Options
	tweak func(*bdd.Manager)
}

func compileDesign(t *testing.T, name string) *core.CompiledDesign {
	t.Helper()
	d, err := designs.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := core.CompileVerilog(d.Verilog, name+".v", d.Top)
	if err != nil {
		t.Fatal(err)
	}
	if err := cd.AddPIF(d.PIF, name+".pif"); err != nil {
		t.Fatal(err)
	}
	return cd
}

// verifyJob instantiates a workspace for j, runs reachability and every
// property check, and records the outcome.
func verifyJob(j poolJob) (designRun, error) {
	w, err := j.cd.Instantiate(j.opts)
	if err != nil {
		return designRun{}, err
	}
	m := w.Net.Manager()
	if j.tweak != nil {
		j.tweak(m)
	}
	res := reach.Forward(w.Net, reach.Options{})
	if !res.Converged {
		return designRun{}, fmt.Errorf("%s: reachability diverged", j.name)
	}
	run := designRun{
		states:     w.Net.NumStatesExact(res.Reached).String(),
		iterations: res.Steps,
		reachNodes: m.NodeCount(res.Reached),
		verdicts:   make(map[string]bool),
	}
	for _, r := range w.VerifyAll() {
		if r.Err != nil {
			return designRun{}, fmt.Errorf("%s/%s: %v", j.name, r.Name, r.Err)
		}
		key := string(r.Kind) + "/" + r.Name
		if _, dup := run.verdicts[key]; dup {
			return designRun{}, fmt.Errorf("%s: duplicate property key %q", j.name, key)
		}
		run.verdicts[key] = r.Pass
	}
	return run, nil
}

// runPool verifies every job on a pool of workers goroutines, each job
// in its own workspace, and returns the outcomes by job index.
func runPool(t *testing.T, jobs []poolJob, workers int) []designRun {
	t.Helper()
	runs := make([]designRun, len(jobs))
	errs := make([]error, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				runs[i], errs[i] = verifyJob(jobs[i])
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d (%s) at %d workers: %v", i, jobs[i].name, workers, err)
		}
	}
	return runs
}

// sameRun reports every difference between a pool outcome and the
// one-goroutine outcome of the same job.
func sameRun(t *testing.T, got, want designRun) {
	t.Helper()
	if got.states != want.states {
		t.Errorf("states: got %s, want %s", got.states, want.states)
	}
	if got.iterations != want.iterations {
		t.Errorf("iterations: got %d, want %d", got.iterations, want.iterations)
	}
	if got.reachNodes != want.reachNodes {
		t.Errorf("reached-set nodes: got %d, want %d", got.reachNodes, want.reachNodes)
	}
	if len(got.verdicts) != len(want.verdicts) {
		t.Errorf("property count: got %d, want %d", len(got.verdicts), len(want.verdicts))
	}
	for key, pass := range want.verdicts {
		if gotPass, ok := got.verdicts[key]; !ok || gotPass != pass {
			t.Errorf("property %q: got (%v, present=%v), want %v", key, gotPass, ok, pass)
		}
	}
}

// largeDesign reports whether -short skips the design.
func largeDesign(name string) bool { return name == "scheduler" || name == "mdlc2" }

// TestWorkersDeterminism verifies the six Table-1 designs and philos-16
// on pools of 2 and 8 goroutines and compares every job with a run of
// the same design on one goroutine.
func TestWorkersDeterminism(t *testing.T) {
	names := append(designs.Names(), "philos-16")
	var jobs []poolJob
	for _, name := range names {
		if testing.Short() && largeDesign(name) {
			continue
		}
		jobs = append(jobs, poolJob{name: name, cd: compileDesign(t, name)})
	}
	base := runPool(t, jobs, 1)
	pools := map[int][]designRun{}
	for _, wk := range []int{2, 8} {
		pools[wk] = runPool(t, jobs, wk)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && largeDesign(name) {
				t.Skip("skipping large design in -short mode")
			}
			i := 0
			for jobs[i].name != name {
				i++
			}
			for _, wk := range []int{2, 8} {
				t.Run(fmt.Sprintf("workers=%d", wk), func(t *testing.T) {
					sameRun(t, pools[wk][i], base[i])
				})
			}
		})
	}
}

// TestWorkersDeterminismStress runs the same comparison on a pool of 4
// under the two configurations that move the most kernel state
// mid-fixpoint: a tiny GC threshold, so collections fire constantly,
// and growth-triggered auto-sifting, so reorder sessions run inside the
// checks.
func TestWorkersDeterminismStress(t *testing.T) {
	variants := []struct {
		name  string
		opts  core.Options
		tweak func(*bdd.Manager)
	}{
		{name: "gcstress", tweak: func(m *bdd.Manager) { m.SetGCThreshold(4096) }},
		{name: "autosift", opts: core.Options{Reorder: "auto", ReorderTrigger: 1.3}},
	}
	names := []string{"pingpong", "dcnew", "mdlc2"}
	compiled := map[string]*core.CompiledDesign{}
	for _, name := range names {
		compiled[name] = compileDesign(t, name)
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			var jobs []poolJob
			for _, name := range names {
				if testing.Short() && largeDesign(name) {
					continue
				}
				jobs = append(jobs, poolJob{name: name, cd: compiled[name], opts: v.opts, tweak: v.tweak})
			}
			base := runPool(t, jobs, 1)
			got := runPool(t, slices.Concat(jobs, jobs), 4)
			for _, name := range names {
				t.Run(name, func(t *testing.T) {
					if testing.Short() && largeDesign(name) {
						t.Skip("skipping large design in -short mode")
					}
					i := 0
					for jobs[i].name != name {
						i++
					}
					sameRun(t, got[i], base[i])
					sameRun(t, got[len(jobs)+i], base[i])
				})
			}
		})
	}
}
