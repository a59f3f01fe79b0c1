GO ?= go

.PHONY: build test vet race loc perfbench bench bench-smoke chaos wire coord coord-drain replay record-corpus verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race runs the full suite under the race detector with shuffled test
# order; the parallel figure sweeps must stay clean here and no test may
# depend on package-level ordering.
race:
	$(GO) test -race -shuffle=on ./...

# loc prints the tracked Go line counts — production and test — outside the
# separate perfbench module. Production LOC is a number the roadmap tracks.
loc:
	@printf 'production %s\n' "$$(git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^perfbench/' | xargs cat | wc -l)"
	@printf 'test       %s\n' "$$(git ls-files '*_test.go' | grep -v '^perfbench/' | xargs cat | wc -l)"

# perfbench vets and tests the separate benchmark-of-record module, which
# `go build ./...` at the root skips: an API it calls cannot vanish unseen.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test -count=1 ./...

# bench runs every Go micro-benchmark in the module. These are diagnostics
# for one host; the benchmark of record, with host block, repeats and a
# failing compare, is the perfbench module.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# bench-smoke compiles and runs every Go benchmark exactly once, so none of
# them can rot unseen.
bench-smoke:
	$(GO) test -count=1 -run '^$$' -bench . -benchtime 1x ./...

# chaos is the resilience smoke: the fault and health suites under the
# race detector, a seeded chaos sim whose -report reconciles both the
# segment ledger and the fault orphan ledger, and the figdetect sweep
# whose -report additionally reconciles the heartbeat detection ledger
# (each run fails if any ledger is unbalanced).
chaos:
	$(GO) test -race -count=1 ./internal/fault/ ./internal/health/
	$(GO) run ./cmd/cloudfog-sim -figures figchurn,figrecovery \
		-faults examples/chaos/profile.json \
		-players 1500 -supernodes 100 -horizon 5s \
		-report chaos_report.json
	$(GO) run ./cmd/cloudfog-sim -figures figdetect \
		-players 1500 -supernodes 100 \
		-report detect_report.json
	$(GO) run -race ./cmd/cloudfog-sim -scale \
		-players 1500 -supernodes 100 -shards 4 \
		-horizon 30s -epoch 10s -detector phi -overload

# wire is the zero-copy wire-path smoke: the live and proto suites under
# the race detector (TestLinkBatchesUnderSaturation fails unless the
# coalescing counters prove frames were batched over loopback TCP), and a
# UDP-transport chaos demo that fails unless every player completes, the
# session ledger reconciles and every scheduled kill was applied.
wire:
	$(GO) test -race -count=1 ./internal/live/ ./internal/proto/
	$(GO) run ./cmd/cloudfog-live demo -workers 3 -players 4 -duration 5s \
		-chaos default -transport udp

# replay is the flight-recorder regression gate: the committed corpus
# recordings must replay bit-identically (figure bytes, observability
# deltas, RNG draw counts) with balanced ledgers, the chaos recording
# must also verify from its figrecovery checkpoint alone, and the canonical
# counterfactual — swapping the chaos incident's timeout detector for
# phi-accrual — must produce a non-empty, ledger-reconciled QoE diff.
# Any byte or ledger divergence fails the target.
replay:
	$(GO) test -race -count=1 ./internal/flight/
	$(GO) run -race ./cmd/cloudfog-replay examples/flight/chaos.flight
	$(GO) run -race ./cmd/cloudfog-replay examples/flight/sharded.flight
	$(GO) run -race ./cmd/cloudfog-replay -from figrecovery examples/flight/chaos.flight
	$(GO) run -race ./cmd/cloudfog-replay -whatif detector=phi -expect-diff \
		examples/flight/chaos.flight

# record-corpus regenerates the committed corpus recordings. Run it only
# when an intentional determinism-contract change invalidates them — the
# diff then shows exactly which figures moved.
record-corpus:
	$(GO) run ./cmd/cloudfog-sim -figures figchurn,figrecovery \
		-players 400 -supernodes 25 -datacenters 3 -horizon 60s \
		-detector timeout -overload -breaker \
		-faults examples/flight/profile.json \
		-record examples/flight/chaos.flight
	$(GO) run ./cmd/cloudfog-sim -figures figscale \
		-players 400 -supernodes 25 -datacenters 3 -horizon 90s \
		-shards 4 -detector phi -overload \
		-record examples/flight/sharded.flight

# coord is the control-plane smoke: the coordinator suite (placement,
# churn property test, and the multi-process kill test) under the race
# detector, then the one-process churn demo — cloud, coordinator, three
# workers, six players, one worker killed mid-stream — which fails unless
# every stranded session re-places and the session ledger reconciles.
coord:
	$(GO) test -race -count=1 ./internal/coord/
	$(GO) run ./cmd/cloudfog-live demo -workers 3 -players 6 \
		-duration 4s -report coord_report.json

# coord-drain is the graceful-distress smoke: the same deployment with
# ticket leases on, but the victim worker is SIGTERM-drained instead of
# killed. The run fails unless the drain completes within the detector
# Bound(), every drained session hands off make-before-break (zero
# visible stream interruptions), and the extended session ledger —
# placements = active + departed + expired, tickets = placements +
# replacements + renewals — reconciles.
coord-drain:
	$(GO) run ./cmd/cloudfog-live demo -drain -lease 1s \
		-workers 3 -players 6 -duration 4s -report coord_drain_report.json

# verify is the CI gate: static checks, the race-enabled suite, one run of
# every Go benchmark, the perfbench module's vet and tests, the chaos smoke, the wire smoke, the
# coordinator smokes (kill and drain), and the flight-recorder replay gate.
verify: vet race bench-smoke perfbench chaos wire coord coord-drain replay
