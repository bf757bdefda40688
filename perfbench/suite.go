package main

import (
	"fmt"
	"runtime"
	"time"

	"hsis/internal/bdd"
	"hsis/internal/core"
	"hsis/internal/ctl"
	"hsis/internal/debug"
	"hsis/internal/designs"
)

// suiteDesign is one design of an in-process workload, with the
// options its workspace is built with.
type suiteDesign struct {
	name string
	opts core.Options
}

// table1Designs is the paper's evaluation with the options `hsis` and
// `table1` use by default: auto image engine, no reordering, and a
// GOMAXPROCS-wide kernel (what `-workers auto` resolves to).
func table1Designs() []suiteDesign {
	var out []suiteDesign
	for _, n := range designs.Names() {
		out = append(out, suiteDesign{n, core.Options{Image: "auto", Reorder: "off", Workers: runtime.GOMAXPROCS(0)}})
	}
	return out
}

// deepDesigns are two large state spaces on the sequential kernel,
// one per image engine and reorder path worth watching.
func deepDesigns() []suiteDesign {
	return []suiteDesign{
		{"dcnew", core.Options{Image: "clustered", AppendedOrder: true, Reorder: "auto", Workers: 1}},
		{"scheduler-32", core.Options{Image: "iso", Workers: 1}},
	}
}

// source is a design's text, generated once during set-up.
type source struct {
	suiteDesign
	d *designs.Design
}

func loadSources(ds []suiteDesign) ([]source, error) {
	out := make([]source, len(ds))
	for i, sd := range ds {
		d, err := designs.Get(sd.name)
		if err != nil {
			return nil, err
		}
		out[i] = source{sd, d}
	}
	return out, nil
}

// layerAcc sums one traced run's per-layer counts.
type layerAcc struct {
	counts  map[string]float64 // metric name -> total over traced units
	peak    int                // kernel.peak_live_nodes: max over designs
	hits    uint64             // op-cache hits, all caches
	calls   uint64             // op-cache probes, all caches
	units   int                // traced passes
	passDur []float64          // traced pass times, for trace.verify_s
}

func newLayerAcc() *layerAcc { return &layerAcc{counts: map[string]float64{}} }

func ops(s bdd.Statistics) uint64 {
	return s.ApplyCalls + s.ITECalls + s.QuantCalls + s.AndExistsCalls
}

// suiteRunner runs passes over an in-process workload.
type suiteRunner struct {
	srcs []source
	ans  *answers
	tl   *tally
	tr   *tracer   // nil: untraced
	acc  *layerAcc // per-layer counts of traced passes
}

// layer runs fn as one call into a layer. When the pass is traced it
// records a span and the kernel counters read before and after; the
// counter reads sit outside the span.
func (r *suiteRunner) layer(traced bool, parent int, name string, m func() *bdd.Manager, fn func()) {
	if !traced {
		fn()
		return
	}
	var before bdd.Statistics
	if mm := m(); mm != nil {
		before = mm.Stats()
	}
	id := r.tr.begin(name, parent)
	fn()
	r.tr.end(id)
	mm := m()
	if mm == nil {
		return
	}
	after := mm.Stats()
	d := int64(ops(after) - ops(before))
	r.tr.count(id, "ops", d)
	r.acc.counts[name+".ops"] += float64(d)
	if runs := after.Reorders - before.Reorders; runs > 0 {
		sid := r.tr.derivedChild(id, "reorder", after.ReorderTime-before.ReorderTime)
		swaps := int64(after.ReorderSwaps - before.ReorderSwaps)
		r.tr.count(sid, "runs", int64(runs))
		r.tr.count(sid, "swaps", swaps)
		r.acc.counts["reorder.runs"] += float64(runs)
		r.acc.counts["reorder.swaps"] += float64(swaps)
	}
}

// passTime is what one pass took: wall time and the process's CPU
// time, both summed over the designs' timed calls.
type passTime struct{ wall, cpu time.Duration }

// pass verifies every design once. The answer checks run between
// designs, outside the timed calls.
func (r *suiteRunner) pass(traced bool) passTime {
	pid := 0
	if traced {
		pid = r.tr.begin("pass", 0)
	}
	var t passTime
	for _, s := range r.srcs {
		o, d := r.design(s, traced, pid)
		r.ans.verify(o, r.tl)
		t.wall += d.wall
		t.cpu += d.cpu
	}
	if traced {
		r.tr.end(pid)
		r.acc.units++
		r.acc.passDur = append(r.acc.passDur, t.wall.Seconds())
	}
	return t
}

// design runs one design from Verilog text to every verdict, the exact
// reachable count and the debug artifacts of failing properties, the
// way a CLI run does. It returns the outcome and the time the calls
// into the verifier took.
func (r *suiteRunner) design(s source, traced bool, parent int) (*outcome, passTime) {
	o := newOutcome(s.name)
	o.Debug = true
	did := 0
	if traced {
		did = r.tr.begin("design", parent)
	}
	var ws *core.Workspace
	mgr := func() *bdd.Manager {
		if ws == nil {
			return nil
		}
		return ws.Net.Manager()
	}
	noMgr := func() *bdd.Manager { return nil }

	start, cpu0 := time.Now(), cpuTime()
	var cd *core.CompiledDesign
	var err error
	r.layer(traced, did, "frontend", noMgr, func() {
		cd, err = core.CompileVerilog(s.d.Verilog, s.name+".v", s.d.Top)
		if err == nil {
			err = cd.AddPIF(s.d.PIF, s.name+".pif")
		}
	})
	if err == nil {
		r.layer(traced, did, "compile", mgr, func() { ws, err = cd.Instantiate(s.opts) })
	}
	if err != nil {
		o.Errors = append(o.Errors, err.Error())
		if traced {
			r.tr.end(did)
		}
		return o, passTime{time.Since(start), cpuTime() - cpu0}
	}
	o.LC, o.CTL = len(ws.Automata), len(ws.CTLProps)
	r.layer(traced, did, "reach", mgr, func() { o.Reached = ws.ReachableStatesExact().String() })
	if len(ws.Automata) > 0 {
		r.layer(traced, did, "compile", mgr, func() { ws.Net.EnsureT() })
	}
	var failing []*core.PropertyResult
	record := func(res *core.PropertyResult) {
		if res.Err != nil {
			o.Errors = append(o.Errors, fmt.Sprintf("%s: %v", res.Name, res.Err))
			return
		}
		o.Verdicts[res.Name] = res.Pass
		o.Kinds[res.Name] = string(res.Kind)
		if !res.Pass {
			failing = append(failing, res)
		}
	}
	for _, a := range ws.Automata {
		var res *core.PropertyResult
		r.layer(traced, did, "lc", mgr, func() { res = ws.CheckLC(a) })
		record(res)
	}
	for _, p := range ws.CTLProps {
		var res *core.PropertyResult
		r.layer(traced, did, "ctl", mgr, func() { res = ws.CheckCTL(p) })
		record(res)
	}
	explained := map[string]int{}
	for _, res := range failing {
		r.layer(traced, did, "debug", mgr, func() {
			o.BugReport[res.Name] = ws.BugReport(res) != ""
			if res.Kind == core.KindCTL {
				explained[res.Name] = explainFailure(ws, res.Formula)
			}
		})
	}
	elapsed := passTime{time.Since(start), cpuTime() - cpu0}
	if traced {
		r.tr.end(did)
	}

	// Untimed: replay every failing LC trace and count debug artifacts.
	for _, res := range failing {
		switch res.Kind {
		case core.KindLC:
			o.TraceOK[res.Name] = res.Trace != nil &&
				debug.VerifyTrace(res.TraceSystem, ws.FC, res.Trace) == nil
			if traced && res.Trace != nil {
				r.acc.counts["debug.trace_states"] += float64(res.Trace.Len())
			}
		case core.KindCTL:
			o.Explained[res.Name] = explained[res.Name] > 0
		}
	}
	if traced {
		st := ws.Net.Manager().Stats()
		r.tr.count(did, "peak_live_nodes", int64(st.PeakLive))
		if ws.Net.TBuilt() {
			n := ws.Net.Manager().NodeCount(ws.Net.T)
			r.tr.count(did, "t_nodes", int64(n))
			r.acc.counts["compile.t_nodes"] += float64(n)
		}
		r.acc.counts["frontend.mv_lines"] += float64(cd.BlifmvLines)
		r.acc.counts["kernel.gcs"] += float64(st.GCs)
		r.acc.counts["kernel.forks"] += float64(st.Forks)
		r.acc.counts["kernel.steals"] += float64(st.Steals)
		r.acc.counts["kernel.l1_hits"] += float64(st.L1Hits)
		r.acc.counts["kernel.contention"] += float64(st.Contention)
		r.acc.hits += st.ApplyHits + st.ITEHits + st.QuantHits + st.AndExistsHits
		r.acc.calls += ops(st)
		r.acc.peak = max(r.acc.peak, st.PeakLive)
	}
	return o, elapsed
}

// explainFailure runs the model-checker debugger on a failing CTL
// formula from one failing initial state, as the shell's explain_ctl
// does, and returns the number of report lines (0 on failure).
func explainFailure(ws *core.Workspace, f ctl.Formula) int {
	checker := ctl.NewForNetwork(ws.Net, ws.FC)
	checker.Engine = ws.Engine()
	v, err := checker.Check(f)
	if err != nil || v.Pass {
		return 0
	}
	start, ok := ws.Net.PickState(v.FailingInit)
	if !ok {
		return 0
	}
	stepper := debug.NewStepper(checker, nil)
	stepper.Describe = ws.DescribeState
	rep, err := stepper.ExplainFailure(f, debug.State(start))
	if err != nil {
		return 0
	}
	return len(rep.Lines)
}
