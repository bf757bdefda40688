package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"hsis/internal/core"
	"hsis/internal/designs"
	"hsis/internal/server"
)

// The daemon workload's job mix. Builtins hit the artifact cache after
// their first compile; each generated scheduler-N job carries a fresh
// nonce comment, so its source hashes differently and misses.
var (
	hsisdBuiltins = []string{"pingpong", "gigamax", "philos", "dcnew"}
	hsisdTenants  = []string{"tenant-a", "tenant-b"}
)

const (
	schedMinN = 3
	schedMaxN = 8
	// Every block of blockSize consecutive jobs holds each builtin
	// perBuiltin times and each scheduler-N perSched times (70% / 30%),
	// half of each with Reach. The seed orders the block and draws the
	// nonces and tenants, so seeds differ in order, not in mix.
	perBuiltin = 14
	perSched   = 4
	blockSize  = perBuiltin*4 + perSched*(schedMaxN-schedMinN+1)
	// A run is `lifetimes` daemon lifetimes of one block each: set up a
	// server, run its jobs, close it. The server keeps every finished
	// job, workspace included, until it closes (about 7 MB a job), so
	// one lifetime is held to a size the host can afford and the run
	// gets its sample count from several. Each lifetime gives one CPU
	// time per job sample; NOTES.md has the numbers.
	lifetimes    = 6
	lifetimeJobs = blockSize
	// outstanding is the closed loop's concurrency: twice the pool the
	// server auto-sizes on a small host, so the fair queue always holds
	// a backlog.
	outstanding = 4
)

// jobSpec is one entry of the seeded job list.
type jobSpec struct {
	Design string // builtin name, or scheduler-N for a generated job
	Nonce  uint64 // generated jobs only
	Tenant string
	Reach  bool
}

func (j jobSpec) generated() bool { return j.Nonce != 0 }

// jobStream yields the job list of one seed, in order, without bound.
// The same seed always yields the same list.
type jobStream struct {
	mu  sync.Mutex
	rng *rand.Rand
	buf []jobSpec
}

func newJobStream(seed int64) *jobStream {
	return &jobStream{rng: rand.New(rand.NewSource(seed))}
}

func (s *jobStream) next() jobSpec {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) == 0 {
		s.buf = s.block()
	}
	j := s.buf[0]
	s.buf = s.buf[1:]
	return j
}

// block draws the next blockSize jobs.
func (s *jobStream) block() []jobSpec {
	blk := make([]jobSpec, 0, blockSize)
	for _, b := range hsisdBuiltins {
		for k := 0; k < perBuiltin; k++ {
			blk = append(blk, jobSpec{Design: b, Reach: k%2 == 0})
		}
	}
	for n := schedMinN; n <= schedMaxN; n++ {
		for k := 0; k < perSched; k++ {
			blk = append(blk, jobSpec{Design: fmt.Sprintf("scheduler-%d", n), Nonce: 1, Reach: k%2 == 0})
		}
	}
	s.rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
	for i := range blk {
		blk[i].Tenant = hsisdTenants[s.rng.Intn(len(hsisdTenants))]
		if blk[i].generated() {
			blk[i].Nonce = s.rng.Uint64() | 1
		}
	}
	return blk
}

// hsisdInputs is the design text the client sends.
type hsisdInputs struct {
	text map[string]*designs.Design
}

// hsisdDesigns names every design the job mix draws from.
func hsisdDesigns() []string {
	names := append([]string(nil), hsisdBuiltins...)
	for n := schedMinN; n <= schedMaxN; n++ {
		names = append(names, fmt.Sprintf("scheduler-%d", n))
	}
	return names
}

func loadHsisdInputs() (*hsisdInputs, error) {
	in := &hsisdInputs{text: map[string]*designs.Design{}}
	for _, name := range hsisdDesigns() {
		d, err := designs.Get(name)
		if err != nil {
			return nil, err
		}
		in.text[name] = d
	}
	return in, nil
}

// mvLineCounts compiles each design of the mix once, for the traced
// frontend attribution; untraced runs never call it.
func mvLineCounts() (map[string]int, error) {
	out := map[string]int{}
	for _, name := range hsisdDesigns() {
		d, err := designs.Get(name)
		if err != nil {
			return nil, err
		}
		cd, err := core.CompileVerilog(d.Verilog, name+".v", d.Top)
		if err != nil {
			return nil, err
		}
		out[name] = cd.BlifmvLines
	}
	return out, nil
}

func (in *hsisdInputs) request(j jobSpec) server.Request {
	req := server.Request{Tenant: j.Tenant, Options: server.JobOptions{Reach: j.Reach}}
	if !j.generated() {
		req.Builtin = j.Design
		return req
	}
	d := in.text[j.Design]
	req.Verilog = d.Verilog + fmt.Sprintf("// nonce %016x\n", j.Nonce)
	req.Top = d.Top
	req.PIF = d.PIF
	return req
}

// jobRecord is one finished job as the client saw it.
type jobRecord struct {
	spec    jobSpec
	latency time.Duration
	res     *server.Result
	traced  bool
}

// hsisdClient drives one in-process server.
type hsisdClient struct {
	srv *server.Server
	in  *hsisdInputs
	ans *answers
	tl  *tally
	tr  *tracer
}

// run submits spec, waits for its terminal status, and checks the
// answer. Latency runs from Submit to Done.
func (c *hsisdClient) run(spec jobSpec, traced bool, parent int) jobRecord {
	id := 0
	if traced {
		id = c.tr.begin("job", parent)
	}
	start := time.Now()
	job, err := c.srv.Submit(c.in.request(spec))
	var res *server.Result
	o := newOutcome(spec.Design)
	o.Daemon = true
	if err != nil {
		o.Errors = append(o.Errors, "submit: "+err.Error())
	} else {
		<-job.Done()
		var msg string
		res, msg = job.Result()
		o.StatusDone = job.Status() == server.StatusDone && res != nil
		if msg != "" {
			o.Errors = append(o.Errors, msg)
		}
	}
	lat := time.Since(start)
	if traced {
		c.tr.end(id)
	}
	if res != nil {
		o.Reached = res.ReachedStates
		for _, p := range res.Properties {
			o.Verdicts[p.Name] = p.Pass
			o.Kinds[p.Name] = p.Kind
			if p.Error != "" {
				o.Errors = append(o.Errors, p.Name+": "+p.Error)
			}
			if p.Kind == "lc" {
				o.LC++
			} else {
				o.CTL++
			}
		}
	}
	c.ans.verify(o, c.tl)
	return jobRecord{spec: spec, latency: lat, res: res, traced: traced}
}

// setupServer starts a server and runs one warm-up job per builtin and
// one generated job, one after another, so the builtins' artifacts are
// cached.
func setupServer(cfg server.Config, in *hsisdInputs, ans *answers, tl *tally) (*server.Server, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	c := &hsisdClient{srv: srv, in: in, ans: ans, tl: tl}
	warm := []jobSpec{{Design: fmt.Sprintf("scheduler-%d", schedMinN), Nonce: 1, Tenant: hsisdTenants[0]}}
	for i, b := range hsisdBuiltins {
		warm = append(warm, jobSpec{Design: b, Tenant: hsisdTenants[i%len(hsisdTenants)], Reach: true})
	}
	for _, w := range warm {
		c.run(w, false, 0)
	}
	return srv, nil
}

// closedLoop keeps `outstanding` jobs in flight until the window ends
// or limit jobs have been submitted, then waits for the last ones. With tracing on, every other job
// records a span, so the traced and untraced latencies of one run can
// be compared.
func (c *hsisdClient) closedLoop(stream *jobStream, window time.Duration, limit, root int) ([]jobRecord, time.Duration) {
	var mu sync.Mutex
	var recs []jobRecord
	n := 0
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < outstanding; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < window {
				mu.Lock()
				if n == limit {
					mu.Unlock()
					return
				}
				traced := c.tr != nil && n%2 == 0
				n++
				mu.Unlock()
				spec := stream.next()
				rec := c.run(spec, traced, root)
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs, time.Since(start)
}

// runHsisd runs the daemon workload. Each lifetime sets up (design text,
// a server with default Config, warm-up jobs that fill the artifact
// cache) and then runs its jobs in a closed loop. One job stream spans
// the lifetimes, so a seed fixes the whole run's job list.
func runHsisd(cfg config, ans *answers, tl *tally) (map[string]float64, string, error) {
	scfg := server.Config{SpoolDir: filepath.Join(cfg.scratch, "spool")}
	stream := newJobStream(cfg.seed)
	var tr *tracer
	var mvLines map[string]int
	root := 0
	if cfg.trace {
		var err error
		if mvLines, err = mvLineCounts(); err != nil {
			return nil, "", err
		}
		tr = newTracer(fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
		root = tr.begin("run", 0)
	}
	var setups, perJob []float64
	var recs []jobRecord
	var measured time.Duration
	var done int64
	acc := &serverAcc{}
	var rates, cpus []string
	workers := 0
	for i := 0; i < lifetimes && measured < cfg.window; i++ {
		debug.FreeOSMemory()
		c0 := cpuTime()
		in, err := loadHsisdInputs()
		if err != nil {
			return nil, "", err
		}
		srv, err := setupServer(scfg, in, ans, tl)
		if err != nil {
			return nil, "", err
		}
		setups = append(setups, (cpuTime() - c0).Seconds())

		c := &hsisdClient{srv: srv, in: in, ans: ans, tl: tl, tr: tr}
		before, hb := srv.Metrics(), histSums(srv)
		c1 := cpuTime()
		rs, elapsed := c.closedLoop(stream, cfg.window-measured, lifetimeJobs, root)
		cpu := cpuTime() - c1
		after, ha := srv.Metrics(), histSums(srv)
		srv.Close()
		acc.add(before, after, hb, ha)
		recs = append(recs, rs...)
		measured += elapsed
		n := after.JobsCompleted - before.JobsCompleted
		done += n
		perJob = append(perJob, cpu.Seconds()*1e3/float64(max(n, 1)))
		rates = append(rates, fmt.Sprintf("%.1f", float64(n)/elapsed.Seconds()))
		cpus = append(cpus, fmt.Sprintf("%.1f", perJob[len(perJob)-1]))
		workers = after.Workers
	}
	tl.check(len(recs) == lifetimes*lifetimeJobs, "run: %d of %d jobs fit in --seconds %d",
		len(recs), lifetimes*lifetimeJobs, int(cfg.window/time.Second))

	m := map[string]float64{
		"setup_s":    median(setups),
		"job_cpu_ms": median(perJob),
	}
	info := fmt.Sprintf("%d jobs (%d completed) in %d daemon lifetimes (jobs/s %s; CPU ms/job %s), %.2fs measured, %d server workers",
		len(recs), done, len(setups), strings.Join(rates, " "), strings.Join(cpus, " "), measured.Seconds(), workers)
	if cfg.trace {
		tr.end(root)
		var lat, plain, traced []float64
		for _, r := range recs {
			ms := r.latency.Seconds() * 1e3
			lat = append(lat, ms)
			if r.traced {
				traced = append(traced, ms)
			} else {
				plain = append(plain, ms)
			}
		}
		acc.metrics(m, recs, mvLines)
		tail, q := tailQuantile(lat)
		m["server.jobs_per_s"] = float64(done) / measured.Seconds()
		m["server.job_p50_ms"] = median(lat)
		m["server.job_p99_ms"] = tail
		m["trace.verify_s"] = median(traced) / 1e3
		if len(plain) > 0 {
			m["trace.overhead_s"] = (median(traced) - median(plain)) / 1e3
		}
		if err := tr.write(spanPath(cfg.scratch, tr.run)); err != nil {
			return nil, "", err
		}
		info += fmt.Sprintf("; server.job_p99_ms is the p%.4g (%d samples beyond); spans in %s",
			100*q, samplesBeyond(lat, tail), spanPath(cfg.scratch, tr.run))
	}
	return m, info, nil
}

// histSums reads the server's latency histograms as (count, sum in µs)
// per "family/label" key; their sums are exact, unlike the quantiles.
func histSums(srv *server.Server) map[string][2]int64 {
	out := map[string][2]int64{}
	for _, s := range srv.Registry().HistogramSnapshots() {
		k := s.Name + "/" + s.Value
		v := out[k]
		out[k] = [2]int64{v[0] + s.Count, v[1] + s.SumUS}
	}
	return out
}

// serverAcc sums what the servers export over the measured jobs of
// every lifetime: counters and histogram (count, µs) pairs.
type serverAcc struct {
	hist                  map[string][2]int64
	hits, misses          int64
	rejected              int64
	calls, cacheHits      uint64
	gcs, reorders, l1Hits float64
}

func (a *serverAcc) add(before, after server.Metrics, hb, ha map[string][2]int64) {
	if a.hist == nil {
		a.hist = map[string][2]int64{}
	}
	for k, v := range ha {
		b := hb[k]
		s := a.hist[k]
		a.hist[k] = [2]int64{s[0] + v[0] - b[0], s[1] + v[1] - b[1]}
	}
	a.hits += after.ArtifactCache.Hits - before.ArtifactCache.Hits
	a.misses += after.ArtifactCache.Misses - before.ArtifactCache.Misses
	a.rejected += after.JobsRejected - before.JobsRejected
	kb, ka := before.Kernel, after.Kernel
	a.calls += (ka.ApplyCalls - kb.ApplyCalls) + (ka.ITECalls - kb.ITECalls) + (ka.QuantCalls - kb.QuantCalls)
	a.cacheHits += (ka.ApplyHits - kb.ApplyHits) + (ka.ITEHits - kb.ITEHits) + (ka.QuantHits - kb.QuantHits)
	a.gcs += float64(ka.GCs - kb.GCs)
	a.reorders += float64(ka.Reorders - kb.Reorders)
	a.l1Hits += float64(ka.L1Hits - kb.L1Hits)
}

// meanMS is the mean, in ms, of the observations of every histogram
// whose key starts with prefix.
func (a *serverAcc) meanMS(prefix string) (float64, int64) {
	var n, us int64
	for k, v := range a.hist {
		if strings.HasPrefix(k, prefix) {
			n += v[0]
			us += v[1]
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(us) / float64(n) / 1e3, n
}

// metrics attributes the daemon workload to layers from what the server
// exports: its latency histograms, its kernel totals and the per-property
// The server runs every layer inside one job, so only the frontend (the
// compile on an artifact-cache miss) is separable from outside it. The
// per-property ElapsedMS in a result is rounded down to whole ms, most
// checks take less, so lc.s and ctl.s read 0 with compile, reach and
// debug. Jobs run the sequential kernel, whose fork, steal and
// contention counters are 0 and not exported.
func (a *serverAcc) metrics(m map[string]float64, recs []jobRecord, mvLines map[string]int) {
	for _, nu := range perLayer {
		m[nu[0]] = 0
	}
	jobs := float64(max(len(recs), 1))
	lookupMS, _ := a.meanMS("hsis_artifact_cache_lookup_seconds/miss")
	m["frontend.s"] = lookupMS / 1e3 * float64(a.misses) / jobs
	var lines float64
	peak := 0
	for _, r := range recs {
		if r.res == nil {
			continue
		}
		if !r.res.CacheHit {
			lines += float64(mvLines[r.spec.Design])
		}
		peak = max(peak, r.res.PeakLiveNodes)
	}
	m["frontend.mv_lines"] = lines / jobs
	if a.calls > 0 {
		m["kernel.cache_hit_pct"] = 100 * float64(a.cacheHits) / float64(a.calls)
	}
	m["kernel.gcs"] = a.gcs / jobs
	m["kernel.peak_live_nodes"] = float64(peak)
	m["kernel.l1_hits"] = a.l1Hits / jobs
	m["reorder.runs"] = a.reorders / jobs
	m["server.queue_wait_mean_ms"], _ = a.meanMS("hsis_queue_wait_seconds/")
	m["server.exec_mean_ms"], _ = a.meanMS("hsis_job_exec_seconds/")
	if a.hits+a.misses > 0 {
		m["server.artifact_hit_pct"] = 100 * float64(a.hits) / float64(a.hits+a.misses)
	}
	m["server.rejected"] = float64(a.rejected)
	m["server.kernel_ops"] = float64(a.calls) / jobs
}
