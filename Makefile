GO ?= go

.PHONY: all build build-prod test race vet staticcheck bench-yield fuzz serve fmt

all: build test

build:
	$(GO) build ./...

# Production build: the fault-injection registry is compiled out.
build-prod:
	$(GO) build -tags prod ./...

# -shuffle=on randomizes test order, so a test that leans on state
# another test left behind fails instead of passing by luck.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

# bench/ is its own module, so ./... skips it; vet it too, as CI does.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

# Runs staticcheck when it is on PATH (CI installs it; locally it is
# optional so a bare toolchain can still run every other target).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# Emits BENCH_yield.json with the yield engine's benchmark trajectory.
bench-yield:
	sh scripts/bench_yield.sh

# Short coverage-guided runs of the Liberty parser, shard wire-format,
# sizing rejection-bound, predintd yield, shard, link and NoC
# request-body, model stage-loop and lane inverse-normal-CDF fuzzers
# (CI smoke).
fuzz:
	$(GO) test -fuzz=FuzzParseLibrary -fuzztime=10s -run FuzzParseLibrary ./internal/liberty
	$(GO) test -fuzz=FuzzMergePartials -fuzztime=10s -run FuzzMergePartials ./internal/variation
	$(GO) test -fuzz=FuzzSizingReject -fuzztime=10s -run FuzzSizingReject ./internal/variation
	$(GO) test -fuzz=FuzzYieldRequestBody -fuzztime=10s -run FuzzYieldRequestBody ./cmd/predintd
	$(GO) test -fuzz=FuzzShardRequestBody -fuzztime=10s -run FuzzShardRequestBody ./cmd/predintd
	$(GO) test -fuzz=FuzzLinkRequestBody -fuzztime=10s -run FuzzLinkRequestBody ./cmd/predintd
	$(GO) test -fuzz=FuzzNoCRequestBody -fuzztime=10s -run FuzzNoCRequestBody ./cmd/predintd
	$(GO) test -fuzz=FuzzLineDelayRC -fuzztime=10s -run FuzzLineDelayRC ./internal/model
	$(GO) test -fuzz=FuzzPhiInvLane -fuzztime=10s -run FuzzPhiInvLane ./internal/estimator

# Run the hardened HTTP serving layer on the default address.
serve:
	$(GO) run ./cmd/predintd

fmt:
	gofmt -l -w .
