GO ?= go

.PHONY: all build vet staticcheck lint loc test race bench-smoke alloc-smoke fuzz-smoke chaos obs-smoke resize-smoke fanout-smoke bench-pairs check

all: check lint

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# staticcheck runs when installed. Local environments without it fall back
# to vet with a notice; CI (where the workflow installs it) must never skip.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	elif [ -n "$$CI" ]; then \
		echo "staticcheck is required in CI but is not installed" ; \
		exit 1 ; \
	else \
		echo "staticcheck not installed; skipping (go vet already ran)" ; \
	fi

# InvaliDB's own analyzer suite (internal/analysis): hot-path allocation,
# lock-discipline, coarse-clock, epoch-capture, goroutine-leak and directive
# checks over the whole module, interprocedurally (DESIGN.md §9); metric
# series names are held by the type system (metrics.name) instead. Its own CI job (and deliberately not part of `check`, so the two run
# in parallel there); `make all` runs both.
lint:
	$(GO) run ./cmd/invalidb-vet ./...

# ROADMAP's tracked size numbers: non-test, non-testdata Go lines per
# internal/* package, for cmd/ and for the root package, the two files of the
# wire codec, the number of //invalidb:allow exceptions in force (the
# analyzer fixtures under internal/analysis/testdata are not exceptions), and
# the number of independently settable options: exported fields of
# core.Options, appserver.Options and gateway.Options plus
# the flag definitions under cmd/.
loc:
	@count() { find "$$@" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | wc -l; }; \
	fields() { awk -v decl="type $$2 struct {" '$$0 == decl {on=1; next} on && /^}/ {on=0} on && /^\t[A-Z][A-Za-z0-9]*[ \t]/ {n++} END {print n+0}' "$$1"; }; \
	for d in internal/*/ cmd/; do printf '%-28s %6d\n' "$${d%/}" "$$(count $$d)"; done; \
	printf '%-28s %6d\n' "(root package)" "$$(count . -maxdepth 1)"; \
	printf '%-28s %6d\n' "core: wire.go + messages.go" "$$(cat internal/core/wire.go internal/core/messages.go | wc -l)"; \
	printf '%-28s %6d\n' "//invalidb:allow" "$$(grep -rE '^[[:space:]]*//invalidb:allow' --include='*.go' --exclude-dir=testdata --exclude-dir=.build . | wc -l)"; \
	printf '%-28s %6d\n' "options" "$$(( $$(fields internal/core/cluster.go Options) + $$(fields internal/appserver/appserver.go Options) \
		+ $$(fields internal/gateway/gateway.go Options) \
		+ $$(grep -rhoE 'flag\.(Bool|Duration|Float64|Int|Int64|String|Uint|Uint64|Var)\(' cmd | wc -l) ))"

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fault-injection suite: the full stack under event-layer drops, delays,
# duplicates, reordering and partitions, plus injected matching-node panics
# and a replaced cluster process — the configuration every binary runs, under
# the race detector. Three runs: the restart scenarios race a heartbeat tick
# against a supervisor restart, and one green run proves little.
chaos:
	$(GO) test -race ./internal/chaostest/ -count=3

# Allocation smoke: the routing hot path must stay at 0 allocs/op, and the
# wire codec benchmarks must keep compiling and running (EXPERIMENTS.md
# records representative numbers; TestEnvelopeWireEncodeNoAllocs pins the
# 0 allocs/op claim in the regular test suite).
bench-smoke:
	$(GO) test . -run xxx -bench 'BenchmarkFanOutRouting' -benchmem -benchtime=100000x
	$(GO) test . -run xxx -bench 'BenchmarkMatchRangeQuery|BenchmarkMatchComplexFilter|BenchmarkSortComparator' -benchmem -benchtime=100000x
	$(GO) test . -run xxx -bench 'BenchmarkStorageIndexedFind|BenchmarkStorageBootstrapPinned' -benchmem -benchtime=100x
	$(GO) test ./internal/core -run xxx -bench 'BenchmarkEnvelopeWire' -benchmem -benchtime=1x
	$(GO) test ./internal/core -run xxx -bench 'BenchmarkCandidateProbe' -benchmem -benchtime=1000x
	$(GO) test ./internal/gateway -run TestGatewayFanOutPerDeliveryAllocs -bench 'BenchmarkGatewayFanOut' -benchmem -benchtime=1000x -count=1

# Allocation budgets of tuple routing, the compiled evaluator and the copy
# diet around it (DESIGN.md §7): fanOut → queue → execute and the routing
# hash, path walks, Match, Compare and the full-scan cell loop at 0 allocs/op, ingest not re-copying decoded images, one insert within its
# budget, a bootstrap read copying only the rows it returns, an idle
# subscription within its heap footprint and without a goroutine, and the
# metrics hot path (counter adds, windowed recorders, stage records). Run
# without the race detector, whose instrumentation allocates.
alloc-smoke:
	$(GO) test ./internal/topology ./internal/document ./internal/query ./internal/core ./internal/storage ./internal/appserver ./internal/metrics -count=1 \
		-run 'NoAllocs|AllocBudget|Footprint|TestIngestDoesNotCopyDecodedImage'

# Fuzz smoke: run each native fuzz target briefly past its seed corpus.
fuzz-smoke:
	$(GO) test ./internal/query -run '^$$' -fuzz FuzzMatch -fuzztime 2000x
	$(GO) test ./internal/storage -run '^$$' -fuzz FuzzApplyUpdate -fuzztime 2000x
	$(GO) test ./internal/storage -run '^$$' -fuzz FuzzIndexedFind -fuzztime 2000x
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzEnvelopeWire -fuzztime 2000x
	$(GO) test ./internal/coordinator -run '^$$' -fuzz FuzzCoordinatorHandle -fuzztime 2000x

# Observability smoke: boot a broker + cluster with -obs-addr and assert
# /metrics and /healthz answer with real content.
obs-smoke:
	@set -e; \
	tmp=$$(mktemp -d); trap 'kill $$broker $$server 2>/dev/null; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp ./cmd/eventlayerd ./cmd/invalidb-server; \
	$$tmp/eventlayerd -addr 127.0.0.1:7597 -stats 0 & broker=$$!; \
	sleep 0.3; \
	$$tmp/invalidb-server -broker 127.0.0.1:7597 -qp 2 -wp 2 -obs-addr 127.0.0.1:7599 -stats 0 & server=$$!; \
	sleep 0.5; \
	metrics=$$(curl -sf http://127.0.0.1:7599/metrics); \
	echo "$$metrics" | grep -q '"cluster.queries"' || { echo "obs-smoke: /metrics missing cluster gauges"; exit 1; }; \
	curl -sf http://127.0.0.1:7599/healthz | grep -q ok || { echo "obs-smoke: /healthz not ok"; exit 1; }; \
	curl -sf 'http://127.0.0.1:7599/metrics?format=text' | grep -q 'topology\.' || { echo "obs-smoke: text metrics missing topology stats"; exit 1; }; \
	echo "obs-smoke: ok"

# Resize smoke: boot the real multi-process deployment (broker + two named
# server processes + coordinator), perform a live QP resize under write load
# via the one-shot CLI, and assert zero dropped or duplicated notifications
# (DESIGN.md §13). Runs under the race detector: the resize path crosses
# every concurrency boundary in the system. Three runs: the resize races the
# second node's announcement, and one green run proves little. Gated behind
# RESIZE_SMOKE so `go test ./...` stays fast.
resize-smoke:
	RESIZE_SMOKE=1 $(GO) test -race ./internal/smoke -run TestResizeSmoke -count=3 -v

# Fan-out smoke: a scaled-down run of the `-exp fanout` swarm under the race
# detector — asserts the dedup ratio (one upstream subscription per distinct
# query), zero lost terminal events, and a bounded noisy tenant
# (DESIGN.md §14). Gated behind FANOUT_SMOKE so `go test ./...` stays fast.
fanout-smoke:
	FANOUT_SMOKE=1 $(GO) test -race ./internal/smoke -run TestFanoutSmoke -count=1 -v

# Paired benchmark runs, the procedure a performance claim is judged by
# (benchmark/README.md "compare"): check PARENT out into a git worktree, run
# the repository's benchmark PAIRS times on each side — the same seed within
# a pair, a fresh seed per pair, alternating which side goes first so drift
# on a shared box hits both alike — and finish with `run.sh compare`, whose
# exit status (1 = something worse or unresolved) is the target's. Reports
# stay in PAIRS_DIR/{parent,change}/ for a closer look; uncommitted edits
# count as part of the change.
#   make bench-pairs WORKLOAD=fanout-topk PAIRS=10
WORKLOAD ?= fanout-topk
PAIRS ?= 10
PARENT ?= HEAD~1
SEED ?= 1
RUN_SECONDS ?= 24
PAIRS_DIR ?= benchmark/.build/pairs
bench-pairs:
	@set -e; \
	dir="$(abspath $(PAIRS_DIR))"; tree="$$dir/tree"; \
	git worktree remove --force "$$tree" 2>/dev/null || true; \
	rm -rf "$$dir/parent" "$$dir/change"; mkdir -p "$$dir/parent" "$$dir/change"; \
	git worktree add --detach "$$tree" $(PARENT) >/dev/null; \
	trap 'git worktree remove --force "$$tree"' EXIT; \
	run() { bash "$$1/benchmark/run.sh" --workload $(WORKLOAD) --seed "$$3" --seconds $(RUN_SECONDS) --trace 0 \
		--out "$$dir/$$2/$(WORKLOAD)-$$3.json" >/dev/null 2>"$$dir/$$2/$(WORKLOAD)-$$3.log" \
		|| { echo "bench-pairs: $$2 run failed (seed $$3), see $$dir/$$2/$(WORKLOAD)-$$3.log"; exit 1; }; }; \
	for i in $$(seq 1 $(PAIRS)); do \
		seed=$$(( $(SEED) + i - 1 )); \
		echo "bench-pairs: $(WORKLOAD) pair $$i/$(PAIRS), seed $$seed"; \
		if [ $$(( i % 2 )) -eq 1 ]; then run "$$tree" parent $$seed; run . change $$seed; \
		else run . change $$seed; run "$$tree" parent $$seed; fi; \
	done; \
	bash benchmark/run.sh compare "$$dir/parent" "$$dir/change"

check: vet staticcheck build race bench-smoke alloc-smoke loc
