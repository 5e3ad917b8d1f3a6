GO ?= go

.PHONY: build test race vet fmt deadcode verify verify-results verify-results-slow verify-scale verify-transport bench bench-compare profile-node profile-train profile-pipeline profile-scale kernel-addrs clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails, listing the files, if any Go file is not gofmt-formatted.
fmt:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt needed on:"; echo "$$out"; exit 1; }

# race exercises the parallel evaluation and consensus-validation fan-out
# under the race detector, plus the chaostest invariant sweeps — among them
# node's chaos sweep (crashed, churned and omitting devices and lossy frames
# on a real loopback wire must never deadlock a leader); the engines must
# stay clean for every worker count and under every fault plan. It is every
# layer's -race gate: the codec round-trips and corrupt-payload rejection,
# the trace shard-merge and worker-count byte identity, the transport
# frame, ownership and conformance suites, and the ABA conformance and
# chaostest ABA sweeps all run here, once.
race:
	$(GO) test -race ./...

# deadcode builds the 20 mains (cmd/, examples/, benchmark) with inlining
# off, reads their symbols with go tool nm, and fails on any non-test
# function of 12 or more lines that no binary links and that the commented
# allowlist in deadcode_test.go does not name (about 10 s; not in tier-1).
deadcode:
	$(GO) test -count=1 -tags deadcode -run TestDeadcode .

# verify is the tier-1 gate: everything must pass before a commit.
verify: fmt vet build deadcode race verify-transport verify-results

# verify-results keeps the committed oracle whole: it builds the generators
# once, reruns every results_* file that takes seconds with the command
# EXPERIMENTS.md states (about a minute in all), and fails listing the files
# whose output no longer matches the committed copy byte for byte.
RESULTS_CHECK = check() { f=$$1; c=$$2; shift 2; echo "  $$f"; "$$tmp/$$c" "$$@" > "$$tmp/$$f" || exit 1; \
	cmp -s "$$tmp/$$f" "$$f" || bad="$$bad $$f"; }
RESULTS_BUILD = tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; bad=""; \
	for c in $(1); do $(GO) build -o "$$tmp/$$c" ./cmd/abdhfl-$$c || exit 1; done
RESULTS_REPORT = test -z "$$bad" || { echo "results files that no longer reproduce:$$bad"; exit 1; }

verify-results:
	@$(call RESULTS_BUILD,attacks bounds chaos codec pipeline schemes table5 trace); $(RESULTS_CHECK); \
	check results_attacks_matrix.txt attacks; \
	check results_attacks_e2e.txt attacks -e2e; \
	check results_bounds.txt bounds -acsm; \
	check results_chaos.txt chaos; \
	check results_consensus_latency.txt chaos -consensus; \
	check results_codec_matrix.txt codec; \
	check results_filter_audit.txt table5 -audit -rounds 20 -samples 200; \
	check results_pipeline_timeline.txt pipeline; \
	check results_pipeline_sweep.txt pipeline -sweep; \
	check results_pipeline_tradeoff.txt pipeline -tradeoff; \
	check results_schemes.txt schemes -rounds 25 -samples 120; \
	check results_trace_paths.txt trace; \
	$(RESULTS_REPORT)

# verify-results-slow does the same for the three generators that take
# minutes (about five in all); not part of verify. results_table5.txt was
# committed with its progress lines and results_fig3.txt quotes absolute
# paths, so Table V is compared by its CSV and by the table with the progress,
# blank and "CSV written to" lines dropped, and Fig 3 by its CSV series.
verify-results-slow:
	@$(call RESULTS_BUILD,table5 fig3 scale); $(RESULTS_CHECK); \
	table() { grep -v '^  \|^CSV written\|^$$' "$$1"; }; \
	echo "  results_table5.txt"; "$$tmp/table5" -rounds 60 -repeats 3 -samples 200 -csv "$$tmp/results_table5.csv" > "$$tmp/results_table5.txt" || exit 1; \
	cmp -s "$$tmp/results_table5.csv" results_table5.csv || bad="$$bad results_table5.csv"; \
	table "$$tmp/results_table5.txt" > "$$tmp/got"; table results_table5.txt | cmp -s - "$$tmp/got" || bad="$$bad results_table5.txt"; \
	check results_scale_matrix.txt scale -devices 100000 -depths 3,4 -fanouts 8,16 -gammas 0,0.1,0.2,0.3 -rule multi-krum; \
	echo "  fig3_out"; "$$tmp/fig3" -rounds 60 -repeats 3 -samples 200 -out "$$tmp/fig3_out" > /dev/null || exit 1; \
	diff -rq "$$tmp/fig3_out" fig3_out > /dev/null || bad="$$bad fig3_out"; \
	$(RESULTS_REPORT)

# verify-scale gates the million-device layer: the event queue's (at, seq)
# dispatch-order property over messages, closure timers and argument timers,
# with and without a reserve, argument timers never armed in the past, also
# from outside a callback (Sim.AtArg), rerun invariance, event pooling and
# the 64-byte event, the scale results pinned whole and with the state counts
# left out (small, scale_cell, depth-2, depth-4 and narrow-top shapes), the
# event count by its closed form, shapes too large for int32 ids rejected,
# the same results from the value pass at 1, 2, 3 and 8 workers while it
# runs beside the next round's event loop (TestScaleWorkersAgree), cohort
# accounting and the queue bound of one event per bottom cluster (core +
# scale engine), the one-pass coordinate kernel against its two-pass
# reference, the branch-free AllFinite and the string-free decimal-label
# derive against Derive, all under -race; then — without -race,
# whose own allocations would be counted — the allocation budgets of the
# derived random streams (Derive, DeriveDecimal, DeriveN) and of one
# scale_cell run (bytes and objects); then, because RunScale's value pass
# fans out across GOMAXPROCS workers, that budget and the scale pins again at
# GOMAXPROCS 1, 2, 4 and 8; then a one-shot devices/sec benchmark smoke at
# 100k devices.
verify-scale:
	$(GO) test -race -run 'DispatchOrder|EqualTime|ArgumentTimer|AtArg|EventIsOneCacheLine|ContextSelf|Rerun|EventPool|PeakQueue|Cohort|Scale|Stream|DeriveN|DeriveDecimal|ChoiceInto' \
		./internal/simnet ./internal/rng ./internal/telemetry ./internal/core ./internal/experiments
	$(GO) test -race -run 'TestCoordinateAuditMatchesReference|CoordinateKernels|AllFinite' ./internal/aggregate ./internal/tensor
	$(GO) test -run 'TestDeriveStaysOnStack|TestRunScaleAllocBudget' ./internal/rng ./internal/experiments
	$(GO) test -cpu 1,2,4,8 -run 'TestRunScaleAllocBudget|TestScaleComputedFieldsPinned|TestScaleResultPinned' ./internal/experiments
	$(GO) test -run '^$$' -bench ScaleDevicesPerSec -benchtime 1x ./internal/experiments

# verify-transport runs what race cannot: without -race, whose own
# allocations would be counted, the per-RunCluster allocation budget (bytes
# and objects); then the multi-process abdhfl-node cluster smokes (1 root,
# 2 leaders, 4 devices over real sockets with a fault plan active, and the
# 7-process run with ABA deciding at the root while a drop+duplicate plan
# hits the ballot frames). Every -race test of the codec, trace, transport
# and consensus layers runs in race.
verify-transport:
	$(GO) test -run TestRunClusterAllocBudget ./internal/node
	$(GO) test -run ClusterSmoke ./cmd/abdhfl-node

# bench runs the repository benchmark (BENCHMARK.json): four workloads, five
# end-to-end metrics each, then the per-layer trace pass.
bench:
	$(GO) run ./benchmark

# bench-compare judges two `go run ./benchmark` reports against each other:
# make bench-compare OLD=a.json NEW=b.json
bench-compare:
	$(GO) run ./benchmark -compare $(OLD) $(NEW)

# profile-node prints where node_round-shaped RunCluster calls allocate
# their bytes (40 TCP runs of BenchmarkRunClusterTCP and its one Build, every
# allocation sampled: the process store makes the first run pay for what the
# later ones reuse, so the top is the steady state only over many runs),
# then a CPU and a block profile of 150 such TCP runs (every blocking event
# sampled): the CPU top says what the engines, codec and wire compute, the
# block top where the 65 engines wait on one another (chanrecv under
# Engine.collect / awaitGlobal) and where the wire waits on them
# (Bus.Publish, frameQueue.push), so the next attribution is read rather
# than guessed. The test binary and profiles land in the git-ignored
# .bench_build/.
profile-node:
	mkdir -p .bench_build
	$(GO) test -count=1 -run '^$$' -bench RunClusterTCP -benchtime 40x -memprofile node.mem -memprofilerate 1 -outputdir .bench_build -o .bench_build/node.test ./internal/node
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=30 .bench_build/node.test .bench_build/node.mem
	$(GO) test -count=1 -run '^$$' -bench RunClusterTCP -benchtime 150x -cpuprofile node.cpu -blockprofile node.block -blockprofilerate 1 -outputdir .bench_build -o .bench_build/node.test ./internal/node
	$(GO) tool pprof -top -nodecount=25 .bench_build/node.test .bench_build/node.cpu
	$(GO) tool pprof -top -nodecount=15 .bench_build/node.test .bench_build/node.block

# profile-train prints where the two training-bound benchmark shapes spend
# their CPU: a table5_cell-shaped RunHFL loop and a pipeline_round-shaped
# RunPipeline loop (BenchmarkTrainShapes), one profile over both; then where
# 32 table5_cell-shaped runs allocate their bytes (every allocation sampled).
profile-train:
	mkdir -p .bench_build
	$(GO) test -count=1 -run '^$$' -bench TrainShapes -benchtime 3s -cpuprofile train.cpu -outputdir .bench_build -o .bench_build/train.test .
	$(GO) tool pprof -top -nodecount=25 .bench_build/train.test .bench_build/train.cpu
	$(GO) test -count=1 -run '^$$' -bench 'TrainShapes/table5_cell' -benchtime 32x -memprofile train.mem -memprofilerate 1 -outputdir .bench_build -o .bench_build/train.test .
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=25 .bench_build/train.test .bench_build/train.mem

# profile-pipeline prints where pipeline_round-shaped RunPipeline calls
# allocate their bytes (40 runs of BenchmarkTrainShapes/pipeline_round,
# every allocation sampled: the process store makes the first run pay for
# what later runs reuse, and Build, which runs once, shows as
# dataset.Sample, so only many runs show the steady state), then a CPU and
# a block profile of the same shape (every blocking event sampled): the CPU
# top says what the training workers and the event loop compute, the block
# top how long the loop waits to join a training (chanrecv under
# deviceActor.finish) and the workers wait for a job (under startTraining),
# so the overlap is read rather than guessed.
profile-pipeline:
	mkdir -p .bench_build
	$(GO) test -count=1 -run '^$$' -bench 'TrainShapes/pipeline_round' -benchtime 40x -memprofile pipeline.mem -memprofilerate 1 -outputdir .bench_build -o .bench_build/pipeline.test .
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=25 .bench_build/pipeline.test .bench_build/pipeline.mem
	$(GO) test -count=1 -run '^$$' -bench 'TrainShapes/pipeline_round' -benchtime 3s -cpuprofile pipeline.cpu -blockprofile pipeline.block -blockprofilerate 1 -outputdir .bench_build -o .bench_build/pipeline.test .
	$(GO) tool pprof -top -nodecount=25 .bench_build/pipeline.test .bench_build/pipeline.cpu
	$(GO) tool pprof -top -nodecount=15 .bench_build/pipeline.test .bench_build/pipeline.block

# profile-scale prints where a scale_cell-shaped RunScale loop spends its
# CPU and allocates its bytes and its objects (BenchmarkScaleDevicesPerSec:
# the benchmark's 100k-device cell, topology build included), one CPU and one
# allocation profile of the same runs read by space and by count, under the
# benchmark line's bytes and objects per run (-benchmem); then the bytes of
# runScale line by line, which names each slab the -top view sums into
# runScale.
profile-scale:
	mkdir -p .bench_build
	$(GO) test -count=1 -run '^$$' -bench ScaleDevicesPerSec -benchtime 20x -benchmem -cpuprofile scale.cpu -memprofile scale.mem -memprofilerate 4096 -outputdir .bench_build -o .bench_build/scale.test ./internal/experiments
	$(GO) tool pprof -top -nodecount=25 .bench_build/scale.test .bench_build/scale.cpu
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=25 .bench_build/scale.test .bench_build/scale.mem
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=15 .bench_build/scale.test .bench_build/scale.mem
	$(GO) tool pprof -sample_index=alloc_space -list 'experiments.runScale' .bench_build/scale.test .bench_build/scale.mem

# kernel-addrs prints where the linker put the hot tensor/nn functions and
# scale_cell's topology build (NewECSM and what it calls) in the benchmark
# binary: address, address mod 64, symbol. The per-sample loops these
# replaced ran 25-35 % slower when unrelated code moved them 32 bytes, and
# scale_cell's setup_s read 17-24 % slower when code linked ahead of
# internal/topology moved NewECSM 32 bytes, so compare this listing between
# two binaries before believing an nn-bound or a setup_s timing difference
# between them.
kernel-addrs:
	mkdir -p .bench_build
	$(GO) build -o .bench_build/benchmark ./benchmark
	$(GO) tool nm -n .bench_build/benchmark | awk -v hex=0123456789abcdef \
		'$$3 ~ /internal\/tensor\.(matVec|MatVec|MatTVec|addOuter|AddOuter|addScaled|Axpy$$)|internal\/nn\.(SGDWS|Softmax|.*Tile)|internal\/topology\.(NewECSM|ecsm|\(\*Tree\)\.Validate)/ { \
			h = substr($$1, length($$1)-1); \
			v = (index(hex, substr(h, 1, 1))-1)*16 + index(hex, substr(h, 2, 1))-1; \
			printf "%s  %2d  %s\n", $$1, v%64, $$3 }'

clean:
	$(GO) clean ./...
