# Developer convenience targets. `make check` is the full pre-commit
# gate: vet, build, race-enabled tests (which cover the armed-telemetry
# paths, including the background live-node sampler), a one-iteration
# smoke run of the kernel benchmarks, and a traced end-to-end shell run.

GO ?= go

.PHONY: check vet build test test-server lint-metrics bench-smoke bench-iso-smoke bench-reorder-smoke trace-smoke bench bench-server bench-reorder bench-iso bench-all

check: vet build test test-server lint-metrics bench-smoke bench-iso-smoke bench-reorder-smoke trace-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# -race also exercises the telemetry layer: the tracer tests install a
# scope on a manager and run the sampler goroutine against kernel gauge
# publications, so a data race between the kernel and the sampler fails
# here.
test:
	$(GO) test -race ./...

# The daemon shard: the hsisd job server under -race — fair-queue
# dispatch, admission control (429), artifact-cache sharing across
# concurrent jobs, mid-fixpoint deadline/cancel interrupts — plus the
# binary smoke test (boot on an ephemeral port, drive a job through the
# HTTP API, SIGTERM to a clean exit), and the concurrent-workspaces
# tests: the Table-1 designs verified by pools of goroutines, one
# workspace per job as the daemon runs them, against one goroutine.
test-server:
	$(GO) test -race -count=1 ./internal/server ./cmd/hsisd
	$(GO) test -race -count=1 -run 'TestWorkersDeterminism' .

# Metrics-name lint: walks the live registry of a freshly built server
# and asserts every exported series name matches hsis_[a-z_]+ and is
# registered exactly once (duplicates also panic at construction).
lint-metrics:
	$(GO) test -run 'TestMetricsNameLint' -count=1 ./internal/server

# End-to-end traced runs: reachability plus a property check on a
# bundled design with `hsis -trace`, and one Table-1 row with
# `table1 -trace`, verifying each CLI emits a JSONL trace and a summary
# without disturbing the verification result. The reach.iter events
# prove that a workspace loaded after -trace reports into the CLI's
# scope. A last leg steps the simulator under `hsis -image clustered`,
# where the monolithic T is never built, so a simulator image that
# reads T directly shows up as an empty step.
trace-smoke:
	@tmp=$$(mktemp -d); \
	printf 'read_builtin mdlc2\ncompute_reach\ncheck_all\nquit\n' \
		| $(GO) run ./cmd/hsis -trace $$tmp/run.jsonl > $$tmp/out.txt \
		&& grep -q 'telemetry summary' $$tmp/out.txt \
		&& grep -q '"ev":"reach.iter"' $$tmp/run.jsonl \
		&& $(GO) run ./cmd/table1 -design pingpong -trace $$tmp/t1.jsonl > $$tmp/t1.txt \
		&& grep -q 'telemetry summary' $$tmp/t1.txt \
		&& grep -q '"ev":"reach.iter"' $$tmp/t1.jsonl \
		&& printf 'read_builtin pingpong\nsim_init\nsim_step\nquit\n' \
			| $(GO) run ./cmd/hsis -image clustered > $$tmp/sim.txt \
		&& grep -q 'after step 1: 1 states' $$tmp/sim.txt \
		&& echo "trace-smoke: ok ($$(wc -l < $$tmp/run.jsonl) hsis events, $$(wc -l < $$tmp/t1.jsonl) table1 events)"; \
	status=$$?; rm -rf $$tmp; exit $$status

# One iteration of the kernel benchmarks (image pipeline plus the
# negation-heavy sweep): enough to catch a regression that breaks an
# engine or the complement-edge kernel outright without paying for a
# full benchmark run.
bench-smoke:
	$(GO) test -bench='(BenchmarkImage|BenchmarkNegationHeavy)$$' -benchtime=1x -run='^$$' .

# The kernel benchmarks with allocation stats, recorded to
# BENCH_bdd.json for comparison across commits. The benchmarks report
# the unified Statistics.BenchMetrics set (peak-live-nodes,
# peak-bdd-nodes, cache-hit-%), so benchjson lands the telemetry
# summary's headline numbers in the JSON alongside ns/op.
bench: bench-server
	$(GO) test -bench='(BenchmarkImage|BenchmarkNegationHeavy)$$' -benchmem -benchtime=3x -run='^$$' . \
		| tee /dev/stderr \
		| $(GO) run ./internal/tools/benchjson > BENCH_bdd.json

# Daemon throughput and latency: batches of jobs through the full
# admission/dispatch/verify path at 1/4/8 workers, recorded to
# BENCH_server.json with end-to-end jobs/s plus the queue-wait and
# execution p50/p99 read back from the server's own histograms.
bench-server:
	$(GO) test -bench='BenchmarkServer$$' -benchtime=1x -run='^$$' ./internal/server \
		| tee /dev/stderr \
		| $(GO) run ./internal/tools/benchjson > BENCH_server.json

# One cold iteration of accelerated auto sifting on scrambled mdlc2:
# exercises the interaction-matrix fast path, the lower-bound abort and
# the symmetry probe end to end per commit without paying for the off
# and auto-naive contest rows.
bench-reorder-smoke:
	$(GO) test -bench='BenchmarkReorder/mdlc2/auto$$' -benchtime=1x -run='^$$' .

# Dynamic-reordering contest: reachability with sifting off,
# accelerated auto sifting, and auto-naive (the plain Rudell sifter —
# every acceleration disabled), plus on mdlc2 three single-acceleration
# ablations, recorded to BENCH_reorder.json. scheduler-8 and mdlc2 run
# from a scrambled (appended) variable order; philos-16 runs from its
# default order (the appended order is intractable with sifting off or
# on) and has no off row. The slow configurations are the point — the
# off rows show what the bad order costs, the auto-naive rows what the
# accelerations save;
# benchjson derives sift-speedup-vs-naive, swaps-saved-% and
# speedup-vs-off onto the auto rows. bench/reorder_prechange.txt holds
# raw rows replayed once from the revision before the fast-reorder work
# (level-keyed nodes, no interaction matrix, no trigger back-off) and is
# spliced into the stream so sift-speedup-vs-prechange lands in the JSON
# next to the live measurements; regenerate it from that revision if the
# reference hardware changes.
bench-reorder:
	($(GO) test -bench='BenchmarkReorder' -benchtime=1x -timeout=90m -run='^$$' . \
		| tee /dev/stderr; \
		cat bench/reorder_prechange.txt 2>/dev/null || true) \
		| $(GO) run ./internal/tools/benchjson > BENCH_reorder.json

# One cold iteration of the iso-vs-clustered contest on the generated
# philos-16: catches an isomorphism-detection or permutation-instantiation
# regression without paying for the full scaled sweep.
bench-iso-smoke:
	$(GO) test -bench='BenchmarkIso/philos-16' -benchtime=1x -run='^$$' .

# Isomorphism-exploiting image computation vs the clustered pipeline on
# the parameterized ring designs (philos-16/64, scheduler-32) and the
# bundled low-replication designs, recorded to BENCH_iso.json. benchjson
# adds a speedup-vs-clustered ratio to every iso row. Cold single
# iterations because the GC-surviving op caches make warm repeats nearly
# free: the compile phase is the contest.
bench-iso:
	$(GO) test -bench='BenchmarkIso$$' -benchtime=1x -timeout=30m -run='^$$' . \
		| tee /dev/stderr \
		| $(GO) run ./internal/tools/benchjson > BENCH_iso.json

# The full Table-1 regeneration and ablation suite.
bench-all:
	$(GO) test -bench=. -benchmem -run='^$$' .
