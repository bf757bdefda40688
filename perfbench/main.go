// Command perfbench is the verifier's benchmark. It runs one workload
// for a fixed time, checks every answer against expected.json, and
// prints every metric by name with its unit; the last line of standard
// output is the result as one JSON object.
//
//	perfbench --workload table1|deep|hsisd --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics; --trace 1 makes the same
// calls with spans around each call into a layer and reports the
// per-layer metrics instead. The end-to-end times are CPU time of the
// process (user plus system): on a shared host, wall time also counts
// the time other tenants hold the processor. NOTES.md gives each
// workload's reason.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// A run does a fixed amount of work: the verifier keeps memory per
// manager (parallel kernel) and per daemon job, so peak_rss_mb compares
// runs only at equal work. --seconds is a limit; a run that reaches it
// before its work is done fails a check instead of reporting figures
// over less work.
const (
	table1Passes = 8
	deepPasses   = 5
)

type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	scratch  string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer name every metric and its unit, in print order.
var endToEnd = [][2]string{
	{"setup_s", "s"}, {"job_cpu_ms", "ms"}, {"peak_rss_mb", "MB"},
}

var perLayer = [][2]string{
	{"frontend.s", "s"}, {"frontend.mv_lines", "lines"},
	{"compile.s", "s"}, {"compile.ops", "ops"}, {"compile.t_nodes", "nodes"},
	{"reach.s", "s"}, {"reach.ops", "ops"},
	{"lc.s", "s"}, {"lc.ops", "ops"},
	{"ctl.s", "s"}, {"ctl.ops", "ops"},
	{"debug.s", "s"}, {"debug.trace_states", "states"},
	{"reorder.s", "s"}, {"reorder.runs", "count"}, {"reorder.swaps", "count"},
	{"kernel.cache_hit_pct", "%"}, {"kernel.gcs", "count"}, {"kernel.peak_live_nodes", "nodes"},
	{"kernel.forks", "count"}, {"kernel.steals", "count"}, {"kernel.l1_hits", "count"},
	{"kernel.contention", "count"},
	{"server.queue_wait_mean_ms", "ms"}, {"server.exec_mean_ms", "ms"},
	{"server.artifact_hit_pct", "%"}, {"server.rejected", "count"}, {"server.kernel_ops", "ops"},
	{"server.jobs_per_s", "1/s"}, {"server.job_p50_ms", "ms"}, {"server.job_p99_ms", "ms"},
	{"trace.verify_s", "s"}, {"trace.overhead_s", "s"},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "workload: table1, deep or hsisd")
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Int("seconds", 45, "upper limit on the measured time, in seconds; a run that reaches it before its fixed work is done fails")
	trace := fl.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	scratch := fl.String("scratch", ".bench_build", "directory for span files and the server's spool")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	cfg := config{
		workload: *workload, seed: *seed, window: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, scratch: *scratch,
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return err
	}
	ans, err := loadAnswers(expectedJSON)
	if err != nil {
		return err
	}
	tl := &tally{}
	var m map[string]float64
	var info string
	switch cfg.workload {
	case "table1":
		m, info, err = runSuite(cfg, table1Designs(), table1Passes, ans, tl)
	case "deep":
		m, info, err = runSuite(cfg, deepDesigns(), deepPasses, ans, tl)
	case "hsisd":
		m, info, err = runHsisd(cfg, ans, tl)
	default:
		return fmt.Errorf("unknown --workload %q (want table1, deep or hsisd)", cfg.workload)
	}
	if err != nil {
		return err
	}
	m["peak_rss_mb"] = peakRSSMB()

	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	res := result{
		Correct:   tl.failed == 0,
		Attempted: tl.attempted,
		Failed:    tl.failed,
		Metrics:   map[string]metric{},
	}
	stamp := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": int(cfg.window / time.Second),
		"trace": *trace, "gomaxprocs": runtime.GOMAXPROCS(0), "numcpu": runtime.NumCPU(),
		"go": runtime.Version(), "commit": commitStamp(),
		"failed_frac": tl.failedFrac(), "info": info,
	}
	sj, _ := json.Marshal(stamp)
	fmt.Fprintf(out, "stamp %s\n", sj)
	for _, msg := range tl.messages {
		fmt.Fprintf(out, "FAILED CHECK %s\n", msg)
	}
	for _, nu := range names {
		v, ok := m[nu[0]]
		if !ok {
			return fmt.Errorf("workload %s did not produce metric %s", cfg.workload, nu[0])
		}
		res.Metrics[nu[0]] = metric{Value: v, Unit: nu[1]}
		fmt.Fprintf(out, "%-26s %16.6g %s\n", nu[0], v, nu[1])
	}
	fmt.Fprintf(out, "%-26s %16.6g %s (%d of %d checks)\n", "failed_frac", tl.failedFrac(), "share",
		tl.failed, tl.attempted)
	rj, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", rj)
	return nil
}

// runSuite runs an in-process workload: set up (generate the design
// text, one warm-up pass) setupReps times, then maxPasses passes. If
// the window ends first the run stops and fails a check.
func runSuite(cfg config, ds []suiteDesign, maxPasses int, ans *answers, tl *tally) (map[string]float64, string, error) {
	var setups []float64
	var r *suiteRunner
	for i := 0; i < setupReps; i++ {
		debug.FreeOSMemory()
		c0 := cpuTime()
		srcs, err := loadSources(ds)
		if err != nil {
			return nil, "", err
		}
		r = &suiteRunner{srcs: srcs, ans: ans, tl: tl}
		r.pass(false)
		setups = append(setups, (cpuTime() - c0).Seconds())
	}
	if cfg.trace {
		r.tr = newTracer(fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
		r.acc = newLayerAcc()
	}
	var perJob, walls, plain []float64
	start := time.Now()
	for i := 0; i < maxPasses && (i == 0 || time.Since(start) < cfg.window); i++ {
		// Each pass starts from a collected heap with the freed memory
		// returned to the OS, as a fresh CLI process does.
		debug.FreeOSMemory()
		traced := cfg.trace && i%2 == 0
		p := r.pass(traced)
		perJob = append(perJob, p.cpu.Seconds()*1e3/float64(len(ds)))
		walls = append(walls, p.wall.Seconds())
		if !traced {
			plain = append(plain, p.wall.Seconds())
		}
	}
	tl.check(len(perJob) == maxPasses, "run: %d of %d passes fit in --seconds %d",
		len(perJob), maxPasses, int(cfg.window/time.Second))
	m := map[string]float64{
		"setup_s":    median(setups),
		"job_cpu_ms": median(perJob),
	}
	info := fmt.Sprintf("%d passes of %d design jobs; median pass %.3fs wall, %.3fs CPU",
		len(perJob), len(ds), median(walls), median(perJob)*float64(len(ds))/1e3)
	if cfg.trace {
		layerMetrics(m, r.tr, r.acc, plain)
		if err := r.tr.write(spanPath(cfg.scratch, r.tr.run)); err != nil {
			return nil, "", err
		}
		info += fmt.Sprintf("; %d traced passes, spans in %s", r.acc.units, spanPath(cfg.scratch, r.tr.run))
	}
	return m, info, nil
}

// layerMetrics fills the per-layer metrics of a traced run: self time
// and counts per traced unit, plus the tracing overhead against the
// run's untraced units.
func layerMetrics(m map[string]float64, tr *tracer, acc *layerAcc, plain []float64) {
	for _, nu := range perLayer {
		m[nu[0]] = 0
	}
	units := float64(max(acc.units, 1))
	self := selfTimes(tr.snapshot())
	for _, l := range []string{"frontend", "compile", "reach", "lc", "ctl", "debug", "reorder"} {
		m[l+".s"] = self[l].Seconds() / units
	}
	for k, v := range acc.counts {
		m[k] = v / units
	}
	if acc.calls > 0 {
		m["kernel.cache_hit_pct"] = 100 * float64(acc.hits) / float64(acc.calls)
	}
	m["kernel.peak_live_nodes"] = float64(acc.peak)
	m["trace.verify_s"] = median(acc.passDur)
	if len(plain) > 0 {
		m["trace.overhead_s"] = median(acc.passDur) - median(plain)
	}
}

// cpuTime is the CPU time the process has used so far, user plus
// system, over all its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// commitStamp is the commit the launcher found, or "unknown" when the
// tree is not a git checkout.
func commitStamp() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
