#!/bin/sh
# check.sh — the repository's fast verification gate.
#
# Runs formatting, vet, build, the short test suite, the race detector over
# every package, and short fuzz smokes on the wire/trace parsers. The full
# suite (go test ./...) adds the full-scale emulation tests gated behind
# -short; JURY_SIMCHECK=1 additionally audits every whole-run experiment
# (everything but Fig. 4/5, which step a manual rate mid-run) with the
# simcheck invariant checker (exp's own tests always do).
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -short ./..."
go test -short ./...

echo "== go test -race -short ./..."
go test -race -short ./...

echo "== fault-matrix smoke under the race detector"
go test -race -short -run '^TestFaultMatrix' ./internal/simcheck

echo "== sharded engine: digest parity (canonical scenarios, -shards=1 vs 4)"
go test -run '^(TestShardedDigestParity|TestHugeShardedDigestParity)$' -count=1 ./internal/exp

echo "== sharded engine: reduced-flow parity smoke (JURY_HUGE_FLOWS=5000, -race)"
JURY_HUGE_FLOWS=5000 go test -race -run '^TestHugeEnvShardedDigestParity$' -count=1 -timeout 20m ./internal/exp

echo "== shard coordinator race smoke"
go test -race -run '^TestCoordinator' -count=1 ./internal/simcore
go test -race -run '^(TestRunSharded|TestPartition)' -count=1 ./internal/netsim
go test -race -run '^TestSharded' -count=1 ./internal/simcheck

echo "== telemetry: stdlib-only leaf (imports no repro/ package)"
if go list -deps ./internal/telemetry | grep '^repro/' | grep -vx 'repro/internal/telemetry'; then
    echo "internal/telemetry must not import repro/ packages (listed above)" >&2
    exit 1
fi

echo "== telemetry: disabled-path zero-alloc + digest parity + sim counters equal the ledgers"
go test -run '^(TestDisabledZeroAlloc|TestEnabledEventZeroAlloc|TestNilSafety|TestTelemetryDigestParity)$' -count=1 ./internal/telemetry
go test -run '^(TestSimCountersMatchLedgers|TestShardedSimCounters)$' -count=1 ./internal/exp

echo "== telemetry: metric-family get-or-create race + histogram bucket validation"
go test -race -run '^(TestRegistryConcurrentGetOrCreate|TestHistogramBucketValidation|TestTenantMetricNameCollision)$' -count=1 ./internal/telemetry

echo "== streaming obs: zero-alloc hot path + streaming-vs-post-hoc Jain + digest parity"
go test -run '^(TestSampleRecordedAllocs|TestSketchObserveAllocs|TestStreamingJainMatchesPostHoc)' -count=1 ./internal/obs
go test -run '^(TestObsStreamingJainMatchesPostHoc|TestObsDigestParity|TestObsShardedDigestParity|TestObsFlightRecorderOnFaults)$' -count=1 ./internal/exp

echo "== inference daemon: chaos matrix + work-conserving batching under the race detector"
go test -race -run '^(TestChaos|TestClientShedsAboveMaxPending|TestServerWriteDeadlineDropsStalledReader|TestDialBackoffJitterDesynchronizes|TestRuntimeNonFiniteRollsBack|TestDrainAnswersInFlight|TestWorkConservingCoalescing|TestDefaultBatchDelayIsZero|TestBatchCoalescing|TestBatchFullFlushesEarly)' -count=1 ./internal/agentrpc

echo "== inference daemon: BUSY-storm jam synchronization, 20 runs under the race detector"
go test -race -run '^TestChaosBusyStorm$' -count=20 ./internal/agentrpc

echo "== run store: crash matrix + bit-flip sweep under the race detector"
go test -race -short -run '^(TestCrashMatrix|TestCompactionCrashMatrix|TestBitFlipSweep)$' -count=1 ./internal/runstore

echo "== one run pipeline: pinned table/ablation/parking-lot rows + instrument coverage"
go test -run '^(TestPipelinePinnedRows|TestPipelineCoversEveryRun)$' -count=1 ./internal/exp

echo "== run store: warm-sweep skip + kill-and-resume"
go test -run '^(TestRunManyWarmStoreSkipsSimulation|TestKillAndResumeSweep|TestRetryPathLeavesStoreIntact|TestScenarioKeyStability)$' -count=1 ./internal/exp

echo "== bench harness smoke (1 iteration per benchmark)"
scripts/bench.sh --smoke

echo "== fuzz smoke (10s each)"
go test -run='^$' -fuzz='^FuzzMahimahiParse$' -fuzztime=10s ./internal/traces
go test -run='^$' -fuzz='^FuzzAgentRPCDecode$' -fuzztime=10s ./internal/agentrpc
go test -run='^$' -fuzz='^FuzzWALDecode$' -fuzztime=10s ./internal/runstore

echo "OK"
