GO ?= go

.PHONY: build test vet fmt race test-race bench check metrics-drill soak fuzz

build:
	$(GO) build ./...

# The default test path runs vet first so the satellite races and
# lifecycle bugs stay fixed.
test: vet
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Race-detect the concurrent hot paths: the middleware and its
# transports, the durable checkpoint store, the netsim fabric, the
# parallel search algorithms, the delta evaluators they drive, the
# telemetry registry and tracer, the framework's crash-recovery drills,
# and the shipped binaries' own loops over loopback TCP (./cmd/...). The
# crossed-dial duel then runs 200 times: it lost a frame in about one
# batch of 200 in three until a socket's readLoop stopped closing it
# under a retired writer that was still draining (7 of 20 batches
# before, 0 of 20 after), and a single pass would let that back in
# unnoticed. The TCP writer tests (flush without a timer, order under
# concurrent senders, release of blocked senders, drain on retire, the
# yielded dial), the two racing first Sends to one peer (one dial in
# flight per peer), the admin's Close-versus-reconfig race, a frame held
# by FaultTransport's inbound delay while later frames reuse the
# socket's read buffer, and the
# deployer loop's Close against its open records and its re-drive pacing
# run 50 times for the same reason. The dedup-window tests
# (reference-model property test, the lost-frame hole, the wide-span
# settle) run in the first pass with the rest of ./internal/prism/, and
# so do the three explorers: TestWaveExplore walks every interleaving
# of a small two-phase wave through the real waveCore.step and, for every participant, the
# real partCore.step and voterCore.step (about 5.3·10⁵ states, a
# participant restart included, about 37 s under the race detector),
# TestLeaseExplore every interleaving of
# a small election, of a failover with an agent resync, and of the
# replication stream across a compaction through the real leaseCore.step,
# voterCore.step and offerAfter (about 4.4·10⁵ states, about 50 s under
# the race detector), TestPeerExplore every sequence of ten
# inputs to one peer's record through the real peerCore.step (about
# 1.7·10⁵ states, a few seconds under the race detector; the CI race job
# also runs it by name, with TestDegradedReMarkedAfterSuspectLapse), and
# their Mutants tests check that each catches its broken steps (eight for
# the wave, four for the lease, three for the peer).
test-race:
	$(GO) test -race ./internal/obs/... ./internal/prism/... ./internal/store/... ./internal/netsim/... ./internal/algo/... ./internal/objective/... ./internal/framework/... ./internal/chaos/... ./cmd/...
	$(GO) test -race -count=200 -run 'TestTCPTransportCrossedDials$$' ./internal/prism/
	$(GO) test -race -count=50 -run 'TestTCPWriter|TestTCPTransportConcurrentFirstSends$$|TestAdminCloseRacesReconfig$$|TestTCPDelayedFrameSurvivesBufferReuse$$' ./internal/prism/
	$(GO) test -race -count=50 -run 'TestDeployerCloseEndsEveryRecord|TestDeployerRedrivePacing' ./internal/prism/

race: test-race

# soak: the seeded chaos drill at full width — SOAK_SEEDS seeds, each
# composing crashes, 20% drop, 10% dup, partitions, mid-wave
# migrations, deployer-leadership churn (leader-kill takeovers and
# lease-pause fencing of a revived old leader), and rejoin-resync
# (a resurrected host converges through one goal-state delta exchange,
# its manifest checked byte-for-byte against the goal) under the race
# detector, with every seed run twice and the invariant reports
# compared byte-for-byte. Every control send is a single attempt, so a
# dropped control frame is recovered end to end only, by the loop that
# owns its exchange (re-dispatch, re-request, re-broadcast, heartbeat).
SOAK_SEEDS ?= 10
soak:
	$(GO) test -race -count=1 -timeout 20m -run TestChaosSoak -v ./internal/chaos/ -args -chaos.seeds=$(SOAK_SEEDS)

# fuzz: short live fuzzing of everything that consumes socket or disk
# bytes — the event codecs (gob and binary, ack spans included), the TCP
# stream framing (hello, length prefix, maxFrameBytes), the dedup window
# that sequence numbers and imported spans land in (against the
# map-based reference model), the deployer's write-ahead log replay
# (a refused open leaves the file byte-identical; a kept prefix drops
# only a genuine torn record), and the deployer store's record decoding
# through Open and Ingest (a refused record leaves the log
# byte-identical; an accepted one gives canonical live records), and the
# xADL architecture reader cmd/desi and cmd/deployer load from disk (an
# accepted document round-trips through WriteXADL with every parameter's
# bits kept). The seed corpora already run as plain unit tests inside
# `make test`. The xADL seed is a whole generated system, so minimizing
# each new input gets 5 s instead of the default minute, which would
# use up the fuzz time.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/prism/ -run '^$$' -fuzz FuzzDecodeEvent -fuzztime $(FUZZTIME)
	$(GO) test ./internal/prism/ -run '^$$' -fuzz FuzzBinaryDecodeEvent -fuzztime $(FUZZTIME)
	$(GO) test ./internal/prism/ -run '^$$' -fuzz FuzzTCPReadLoop -fuzztime $(FUZZTIME)
	$(GO) test ./internal/prism/ -run '^$$' -fuzz FuzzDedupWindow -fuzztime $(FUZZTIME)
	$(GO) test ./internal/prism/ -run '^$$' -fuzz FuzzDeployerStore -fuzztime $(FUZZTIME)
	$(GO) test ./internal/store/ -run '^$$' -fuzz FuzzReplay -fuzztime $(FUZZTIME)
	$(GO) test ./internal/model/ -run '^$$' -fuzz FuzzReadXADL -fuzztime $(FUZZTIME) -fuzzminimizetime 5s

bench:
	$(GO) test -run xxx -bench . ./internal/algo/
	$(GO) test -run xxx -bench . ./internal/prism/

# metrics-drill: the real three-process TCP deployment with the
# observability endpoint on — generate an architecture, run the deployer
# with -metrics-addr and -trace-out plus two agents, scrape /metrics,
# and assert the master committed at least one redeployment wave. The
# deployer exits after its one cycle, so -interval is the window the
# scrape has to land in: 3s leaves room for a cold first curl on a
# fresh CI runner (1s was missed once in 60 local runs).
METRICS_ADDR ?= 127.0.0.1:9790
metrics-drill:
	@set -e; \
	dir=$$(mktemp -d); dep=; a1=; a2=; \
	trap 'kill $$dep $$a1 $$a2 2>/dev/null; rm -rf $$dir' EXIT; \
	$(GO) build -o $$dir ./cmd/desi ./cmd/deployer ./cmd/agent; \
	$$dir/desi generate -hosts 3 -comps 8 -seed 5 -o $$dir/arch.xml >/dev/null; \
	$$dir/deployer -arch $$dir/arch.xml -host host00 -listen 127.0.0.1:7701 \
	  -metrics-addr $(METRICS_ADDR) -trace-out $$dir/trace.jsonl \
	  -cycles 1 -interval 3s >$$dir/deployer.log 2>&1 & dep=$$!; \
	sleep 1; \
	$$dir/agent -host host01 -master-host host00 -master 127.0.0.1:7701 >$$dir/a1.log 2>&1 & a1=$$!; \
	$$dir/agent -host host02 -master-host host00 -master 127.0.0.1:7701 >$$dir/a2.log 2>&1 & a2=$$!; \
	ok=0; i=0; while [ $$i -lt 120 ]; do \
	  if curl -fsS http://$(METRICS_ADDR)/metrics 2>/dev/null \
	     | grep '^prism_wave_committed_total' | grep -qv ' 0$$'; then ok=1; break; fi; \
	  if ! kill -0 $$dep 2>/dev/null; then break; fi; \
	  sleep 0.5; i=$$((i+1)); \
	done; \
	if [ $$ok -ne 1 ]; then \
	  echo 'metrics-drill: no committed wave on /metrics'; \
	  cat $$dir/deployer.log $$dir/a1.log $$dir/a2.log; exit 1; fi; \
	curl -fsS http://$(METRICS_ADDR)/metrics | grep -E '^(prism_wave|prism_transport)' ; \
	echo 'metrics-drill: committed waves visible on /metrics'

check: build fmt test test-race
