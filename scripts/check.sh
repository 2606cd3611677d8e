#!/bin/sh
# Pre-merge check: everything a change must pass before it lands.
# Run from the repository root (or via `make check`).
#
#   gofmt  — formatting gate (fails listing unformatted files)
#   vet    — static analysis
#   build  — every package and command compiles
#   race   — the whole suite once under the race detector at
#            -count=1, so no result comes from the test cache. That
#            pass holds every gate a test states (each test's doc
#            comment says what): the report's section-timeout chaos,
#            the pool's goroutine-leak test, the adversarial scenario
#            suite, the wire-substrate oracle and the RTR client's
#            bound on a silent cache, the request-front contract table,
#            the relying party's fail-closed table and its prepared-key
#            and batch oracles against crypto/ed25519, the prefix table,
#            need-set flood and route-tree template oracles, the
#            archive's bounds, and world generation's joined signers
#   docs   — the docs gates run in the race leg: TestDocsNameLiveCode,
#            and TestEveryMetricHasAReader (each registered metric
#            family is named by a test, this script, bench/ or DESIGN.md)
#   front  — the bench's cross-path oracle (`go run ./bench --workload
#            query.gateway`): each replica, the gateway and an
#            in-process handler must answer byte-for-byte alike with
#            zero failed requests
#   forks  — ten more race passes of concurrent VRPsAt and concurrent
#            World.At on a base world and two forks (synth), since one
#            pass seldom interleaves the same way twice
#   oracle — the bench's build oracles (`go run ./bench --workload
#            build.weekly`, then `build.topology`): snapshot digests
#            equal across ops and worker counts, and a warm-started
#            store answering like the one that built
#   bench  — single-iteration smoke of the headline benchmarks (dataset
#            build, propagation, full report, snapshot persist/load);
#            nothing is recorded — `go run ./bench` is the one ledger
#   memory — internet-scale gate: generate the -scale large world (~75k
#            ASes, ~1M prefixes) and run its dataset-build/propagation
#            benches under GOMEMLIMIT=4GiB; fails on OOM or on a >20%
#            bytes/op regression against the committed
#            BENCH_DatasetBuild_large.json, which it only reads; then
#            query the large world through manrsd in the same budget
#   purego — the rpki tests again on the generic field arithmetic
#            (-tags purego, fe_amd64_noasm.go), which non-amd64 builds
#            run instead of the assembly: every differential test
#            against crypto/ed25519 and math/big, on the scalar path
#            only (the lane kernel is amd64 assembly)
#   kernel — logs which Ed25519 point kernel this machine selected,
#            ifma8 (AVX-512 IFMA lanes) or scalar, so the log says
#            whether the race leg's lane tests ran or skipped
#   fuzz   — `make fuzz`: a short smoke of eleven fuzzers (BGP wire
#            messages and attributes, MRT, the durable archive's
#            sections and its seal, VRP CSV, RPSL, scenario codec, the
#            prefix table against a linear scan, and the prepared-key
#            Ed25519 verifier and the batch signer against
#            crypto/ed25519)
#   report — end-to-end smoke of the batch report: run manrs-report
#            -scale small -skip-stability -continue-on-error and assert
#            its health trailer counts 17 sections, all ok, under the
#            section table's names (fig2-growth); then write a small
#            world with synthgen -out and run manrs-report -data over
#            it: 17 sections ok, exactly five of them skip lines
#   admin  — end-to-end smoke of the observability endpoint: start a
#            collector with -admin, curl /healthz and /metrics, and
#            assert the expected metric families are exposed; SIGTERM
#            it and assert exit 0, "drained cleanly" and a non-empty
#            rib.mrt; then SIGTERM a collector whose -out directory is
#            missing and assert a non-zero exit and no clean drain
#   manrsd — end-to-end smoke of the query daemon: start it on a small
#            synthetic world with -access-log-sample 1, query a
#            conformance lookup twice (200 then 304 via the captured
#            ETag), assert a ?date= outside the study window is a 400,
#            query the adversarial scenario route
#            /v1/scenario/rp-failure and assert it answers 200 with
#            "degraded": true (graceful degradation, never a 5xx),
#            send one request with a fixed traceparent and find its
#            trace ID in both the access log and /debug/trace, assert
#            the coalesce and cache-hit series appear on /metrics, that
#            the snapshot build and pool queue-wait latencies are
#            summaries with the build counted and no histogram _bucket
#            line is left, and SIGTERM-drain cleanly
#   crash  — crash-recovery smoke: run manrsd with -data-dir until it
#            archives a snapshot, SIGKILL it, check the directory holds
#            exactly one snap-*.mds and no MANIFEST.json (the listing
#            is the index), restart over the same
#            directory, and assert the daemon warm-starts from the
#            archive (first query 200, durable_load_total >= 1,
#            serve_snapshot_builds_total 0: nothing is rebuilt) before
#            draining cleanly
#   cluster — distributed serve tier smoke: boot 2 replicas on the seed
#            world, boot a 3rd with -peers so it catches up over wire
#            replication (asserted from its log) instead of rebuilding,
#            pull a ?date= replica 1 built the same way (same ETag),
#            front all 3 with manrs-gw, assert ETag coherence (the
#            gateway's ETag matches a direct replica query; 304
#            revalidation works through the gateway), then SIGTERM one
#            replica and assert it drains cleanly, the ring converges on
#            the survivors, and the gateway still answers 200.
#            Query load through the gateway is the front leg's
#            `bench query.gateway` oracle
set -eu

FUZZTIME="${FUZZTIME:-5s}"

TMPDIR_SMOKE="$(mktemp -d)"
cleanup() {
    [ -n "${COLLECTOR_PID:-}" ] && kill "$COLLECTOR_PID" 2>/dev/null || true
    [ -n "${MANRSD_PID:-}" ] && kill "$MANRSD_PID" 2>/dev/null || true
    [ -n "${GW_PID:-}" ] && kill "$GW_PID" 2>/dev/null || true
    [ -n "${R1_PID:-}" ] && kill "$R1_PID" 2>/dev/null || true
    [ -n "${R2_PID:-}" ] && kill "$R2_PID" 2>/dev/null || true
    [ -n "${R3_PID:-}" ] && kill "$R3_PID" 2>/dev/null || true
    rm -rf "$TMPDIR_SMOKE"
}
trap cleanup EXIT INT TERM

echo "==> gofmt -l ."
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...
# The observability layer is new and stdlib-only; vet it explicitly so
# a failure names the package even if the ./... pass is ever narrowed.
go vet ./internal/obsv

echo "==> go build ./..."
go build ./...

echo "==> go test -race -count=1 ./..."
# One pass, never from the test cache: every test runs once under the
# race detector, the failure-semantics gates, the relying-party and
# template oracles and the chaos suites included.
go test -race -count=1 ./...

# bench_oracle WORKLOAD: a 2-second run of one bench workload must end in
# a JSON line saying "correct":true and "failed":0.
bench_oracle() {
    ORACLE="$(go run ./bench --workload "$1" --seconds 2 | tail -n 1)"
    echo "$ORACLE"
    case "$ORACLE" in
    *'"correct":true'*'"failed":0,'*) ;;
    *)
        echo "bench $1: want \"correct\":true and \"failed\":0 in the final JSON line" >&2
        exit 1
        ;;
    esac
}

echo "==> cross-path oracle (bench query.gateway: replicas, gateway, in-process handler byte-for-byte)"
bench_oracle query.gateway

echo "==> concurrent dates and forks (-race, x10)"
# One pass seldom interleaves the same way twice.
go test -race -count=10 -run '^TestVRPsAtConcurrentDatesAndForks$|^TestAtConcurrentBaseAndForks$' ./internal/synth

echo "==> build oracle (bench build.weekly: digests equal across ops and worker counts, warm start answers like the builder)"
bench_oracle build.weekly

echo "==> build oracle (bench build.topology: propagation-bound world, digests equal across ops and worker counts)"
bench_oracle build.topology

echo "==> bench smoke (1 iteration per headline bench, unrecorded)"
go test -run '^$' -benchtime 1x -benchmem \
    -bench '^(BenchmarkDatasetBuild|BenchmarkBuildDatasetParallel|BenchmarkPropagation|BenchmarkFullReport|BenchmarkSnapshotPersist|BenchmarkSnapshotLoad)$' \
    .

echo "==> internet-scale memory gate (GOMEMLIMIT=4GiB, ~75k ASes / ~1M prefixes)"
# Build the -scale large world and its full dataset inside a 4 GiB soft
# memory limit: an OOM kill or runaway GC thrash fails the gate, so the
# compact arena/CSR layout cannot silently regress back to per-prefix
# allocation. Runs serially (workers=1) — the worst case for peak heap.
GOMEMLIMIT=4GiB MANRS_LARGE=1 go test -run '^$' -benchtime 1x -benchmem -timeout 45m \
    -bench '^(BenchmarkDatasetBuild|BenchmarkPropagation)$/^large$' \
    . | tee "$TMPDIR_SMOKE/bench-large.out"
# The committed baseline moves only by a deliberate commit: this gate
# reads it and writes nothing.
NEW_BYTES="$(awk '$1 ~ /^BenchmarkDatasetBuild\/large/ { for (i = 2; i < NF; i++) if ($(i + 1) == "B/op") print $i }' "$TMPDIR_SMOKE/bench-large.out")"
BASE_BYTES="$(sed -n 's/.*"bytes_per_op": \([0-9][0-9]*\).*/\1/p' BENCH_DatasetBuild_large.json)"
if [ -z "$NEW_BYTES" ] || [ -z "$BASE_BYTES" ]; then
    echo "memory gate: bytes/op missing (run: ${NEW_BYTES:-none}, baseline: ${BASE_BYTES:-none})" >&2
    exit 1
fi
BYTES_LIMIT=$((BASE_BYTES + BASE_BYTES / 5))
if [ "$NEW_BYTES" -gt "$BYTES_LIMIT" ]; then
    echo "memory gate: large dataset build allocates $NEW_BYTES bytes/op, >20% over committed baseline $BASE_BYTES" >&2
    exit 1
fi
echo "memory gate: bytes/op $NEW_BYTES vs baseline $BASE_BYTES (limit $BYTES_LIMIT) — ok"

echo "==> internet-scale serve smoke (manrsd -scale large under GOMEMLIMIT=4GiB)"
# The large world must not just build — it must answer conformance
# queries through the real daemon inside the same memory budget. The
# first build takes some tens of seconds on one core; poll patiently.
go build -o "$TMPDIR_SMOKE/manrsd" ./cmd/manrsd
GOMEMLIMIT=4GiB "$TMPDIR_SMOKE/manrsd" -scale large -listen 127.0.0.1:0 \
    >"$TMPDIR_SMOKE/manrsd-large.log" 2>&1 &
MANRSD_PID=$!
SERVE_ADDR=""
for _ in $(seq 1 1800); do
    SERVE_ADDR="$(sed -n 's|.*serving conformance queries on http://||p' "$TMPDIR_SMOKE/manrsd-large.log")"
    [ -n "$SERVE_ADDR" ] && break
    kill -0 "$MANRSD_PID" 2>/dev/null || {
        echo "large serve smoke: daemon exited early (OOM under GOMEMLIMIT?):" >&2
        cat "$TMPDIR_SMOKE/manrsd-large.log" >&2
        exit 1
    }
    sleep 1
done
if [ -z "$SERVE_ADDR" ]; then
    echo "large serve smoke: daemon never started serving" >&2
    cat "$TMPDIR_SMOKE/manrsd-large.log" >&2
    exit 1
fi
LARGE_CODE="$(curl -s -o "$TMPDIR_SMOKE/large-conf.json" -w '%{http_code}' "http://$SERVE_ADDR/v1/as/100/conformance")"
if [ "$LARGE_CODE" != 200 ]; then
    echo "large serve smoke: conformance lookup returned $LARGE_CODE, want 200" >&2
    cat "$TMPDIR_SMOKE/large-conf.json" >&2
    exit 1
fi
grep -q '"action4"' "$TMPDIR_SMOKE/large-conf.json" || {
    echo "large serve smoke: conformance body missing action4 verdict:" >&2
    cat "$TMPDIR_SMOKE/large-conf.json" >&2
    exit 1
}
kill -TERM "$MANRSD_PID"
wait "$MANRSD_PID" || true
MANRSD_PID=""
echo "large serve smoke: conformance query answered from the ~75k-AS world"

echo "==> generic field arithmetic (-tags purego): rpki differential tests"
go test -tags purego -count=1 ./internal/rpki/...

echo "==> Ed25519 point kernel this machine selected"
go test -count=1 -run '^TestKernelSelection$' -v ./internal/rpki/edwards25519 | grep 'kernel:'

echo "==> fuzz smoke (${FUZZTIME} per target)"
make -s fuzz FUZZTIME="$FUZZTIME"

echo "==> report smoke (manrs-report -continue-on-error and -data: 17 sections, all ok)"
go build -o "$TMPDIR_SMOKE/manrs-report" ./cmd/manrs-report
"$TMPDIR_SMOKE/manrs-report" -scale small -skip-stability -continue-on-error \
    >"$TMPDIR_SMOKE/report.txt"
for want in 'health: sections=17 ok=17' 'health: section=fig2-growth status=ok'; do
    grep -q "^$want " "$TMPDIR_SMOKE/report.txt" || {
        echo "report smoke: health trailer missing \"$want\":" >&2
        grep '^health' "$TMPDIR_SMOKE/report.txt" >&2 || true
        exit 1
    }
done
go build -o "$TMPDIR_SMOKE/synthgen" ./cmd/synthgen
"$TMPDIR_SMOKE/synthgen" -scale small -out "$TMPDIR_SMOKE/world" >/dev/null
"$TMPDIR_SMOKE/manrs-report" -data "$TMPDIR_SMOKE/world" -continue-on-error \
    >"$TMPDIR_SMOKE/report-data.txt"
SKIPS="$(grep -c ' skipped (needs more than the archive files hold)$' "$TMPDIR_SMOKE/report-data.txt" || true)"
if ! grep -q '^health: sections=17 ok=17 ' "$TMPDIR_SMOKE/report-data.txt" || [ "$SKIPS" != 5 ]; then
    echo "report smoke: -data run wants 17 sections ok and 5 skip lines, got $SKIPS skips:" >&2
    grep '^health\| skipped ' "$TMPDIR_SMOKE/report-data.txt" >&2 || true
    exit 1
fi

echo "==> admin endpoint smoke (collector -admin)"
go build -o "$TMPDIR_SMOKE/collector" ./cmd/collector
"$TMPDIR_SMOKE/collector" -listen 127.0.0.1:0 -admin 127.0.0.1:0 \
    -out "$TMPDIR_SMOKE/rib.mrt" >"$TMPDIR_SMOKE/collector.log" 2>&1 &
COLLECTOR_PID=$!
ADMIN_ADDR=""
for _ in $(seq 1 50); do
    ADMIN_ADDR="$(sed -n 's|.*admin endpoint on http://||p' "$TMPDIR_SMOKE/collector.log")"
    [ -n "$ADMIN_ADDR" ] && break
    kill -0 "$COLLECTOR_PID" 2>/dev/null || {
        echo "admin smoke: collector exited early:" >&2
        cat "$TMPDIR_SMOKE/collector.log" >&2
        exit 1
    }
    sleep 0.1
done
if [ -z "$ADMIN_ADDR" ]; then
    echo "admin smoke: collector never logged its admin address" >&2
    cat "$TMPDIR_SMOKE/collector.log" >&2
    exit 1
fi
HEALTH_CODE="$(curl -s -o "$TMPDIR_SMOKE/healthz" -w '%{http_code}' "http://$ADMIN_ADDR/healthz")"
if [ "$HEALTH_CODE" != 200 ]; then
    echo "admin smoke: GET /healthz returned $HEALTH_CODE, want 200" >&2
    cat "$TMPDIR_SMOKE/healthz" >&2
    exit 1
fi
grep -q '^ok$' "$TMPDIR_SMOKE/healthz" || {
    echo "admin smoke: /healthz body missing ok verdict:" >&2
    cat "$TMPDIR_SMOKE/healthz" >&2
    exit 1
}
METRICS_CODE="$(curl -s -o "$TMPDIR_SMOKE/metrics" -w '%{http_code}' "http://$ADMIN_ADDR/metrics")"
if [ "$METRICS_CODE" != 200 ]; then
    echo "admin smoke: GET /metrics returned $METRICS_CODE, want 200" >&2
    exit 1
fi
for metric in collector_peers_active collector_routes_received_total \
    collector_mrt_bytes_written_total netx_server_conns_total; do
    grep -q "^$metric" "$TMPDIR_SMOKE/metrics" || {
        echo "admin smoke: /metrics missing $metric" >&2
        grep '^# TYPE' "$TMPDIR_SMOKE/metrics" >&2 || true
        exit 1
    }
done
# SIGTERM: the final dump lands and the collector drains cleanly.
kill -TERM "$COLLECTOR_PID"
COLLECTOR_STATUS=0
wait "$COLLECTOR_PID" || COLLECTOR_STATUS=$?
COLLECTOR_PID=""
if [ "$COLLECTOR_STATUS" != 0 ] || ! grep -q 'drained cleanly' "$TMPDIR_SMOKE/collector.log" \
    || [ ! -s "$TMPDIR_SMOKE/rib.mrt" ]; then
    echo "admin smoke: collector exited $COLLECTOR_STATUS on SIGTERM, want 0 with a clean drain and a non-empty rib.mrt:" >&2
    cat "$TMPDIR_SMOKE/collector.log" >&2
    exit 1
fi
# A final dump that cannot be written is a failed shutdown: non-zero
# exit and no clean-drain line.
"$TMPDIR_SMOKE/collector" -listen 127.0.0.1:0 \
    -out "$TMPDIR_SMOKE/missing/rib.mrt" >"$TMPDIR_SMOKE/collector-bad.log" 2>&1 &
COLLECTOR_PID=$!
for _ in $(seq 1 50); do
    grep -q 'collecting on' "$TMPDIR_SMOKE/collector-bad.log" && break
    sleep 0.1
done
grep -q 'collecting on' "$TMPDIR_SMOKE/collector-bad.log" || {
    echo "admin smoke: collector with an unwritable -out never started collecting:" >&2
    cat "$TMPDIR_SMOKE/collector-bad.log" >&2
    exit 1
}
kill -TERM "$COLLECTOR_PID"
COLLECTOR_STATUS=0
wait "$COLLECTOR_PID" || COLLECTOR_STATUS=$?
COLLECTOR_PID=""
if [ "$COLLECTOR_STATUS" = 0 ] || grep -q 'drained cleanly' "$TMPDIR_SMOKE/collector-bad.log"; then
    echo "admin smoke: collector with an unwritable -out exited $COLLECTOR_STATUS, want non-zero and no clean drain:" >&2
    cat "$TMPDIR_SMOKE/collector-bad.log" >&2
    exit 1
fi

echo "==> query daemon smoke (manrsd)"
go build -o "$TMPDIR_SMOKE/manrsd" ./cmd/manrsd
"$TMPDIR_SMOKE/manrsd" -scale small -listen 127.0.0.1:0 -admin 127.0.0.1:0 \
    -access-log-sample 1 >"$TMPDIR_SMOKE/manrsd.log" 2>&1 &
MANRSD_PID=$!
SERVE_ADDR=""
for _ in $(seq 1 300); do
    SERVE_ADDR="$(sed -n 's|.*serving conformance queries on http://||p' "$TMPDIR_SMOKE/manrsd.log")"
    [ -n "$SERVE_ADDR" ] && break
    kill -0 "$MANRSD_PID" 2>/dev/null || {
        echo "manrsd smoke: daemon exited early:" >&2
        cat "$TMPDIR_SMOKE/manrsd.log" >&2
        exit 1
    }
    sleep 0.1
done
if [ -z "$SERVE_ADDR" ]; then
    echo "manrsd smoke: daemon never logged its serving address" >&2
    cat "$TMPDIR_SMOKE/manrsd.log" >&2
    exit 1
fi
MANRSD_ADMIN="$(sed -n 's|.*admin endpoint on http://||p' "$TMPDIR_SMOKE/manrsd.log")"
if [ -z "$MANRSD_ADMIN" ]; then
    echo "manrsd smoke: daemon never logged its admin address" >&2
    cat "$TMPDIR_SMOKE/manrsd.log" >&2
    exit 1
fi
# First conformance lookup: 200 with a strong ETag.
CONF_CODE="$(curl -s -D "$TMPDIR_SMOKE/conf.hdr" -o "$TMPDIR_SMOKE/conf.json" \
    -w '%{http_code}' "http://$SERVE_ADDR/v1/as/100/conformance")"
if [ "$CONF_CODE" != 200 ]; then
    echo "manrsd smoke: conformance lookup returned $CONF_CODE, want 200" >&2
    cat "$TMPDIR_SMOKE/conf.json" >&2
    exit 1
fi
grep -q '"action4"' "$TMPDIR_SMOKE/conf.json" || {
    echo "manrsd smoke: conformance body missing action4 verdict:" >&2
    cat "$TMPDIR_SMOKE/conf.json" >&2
    exit 1
}
ETAG="$(tr -d '\r' <"$TMPDIR_SMOKE/conf.hdr" | sed -n 's/^[Ee][Tt]ag: //p')"
if [ -z "$ETAG" ]; then
    echo "manrsd smoke: 200 response carried no ETag" >&2
    cat "$TMPDIR_SMOKE/conf.hdr" >&2
    exit 1
fi
# Second lookup revalidates: 304 via If-None-Match.
REVAL_CODE="$(curl -s -o /dev/null -w '%{http_code}' \
    -H "If-None-Match: $ETAG" "http://$SERVE_ADDR/v1/as/100/conformance")"
if [ "$REVAL_CODE" != 304 ]; then
    echo "manrsd smoke: If-None-Match revalidation returned $REVAL_CODE, want 304" >&2
    exit 1
fi
# Every new date is a full build, so a date outside the study window is
# refused before the store hears of it.
DATE_CODE="$(curl -s -o /dev/null -w '%{http_code}' "http://$SERVE_ADDR/v1/stats?date=1800-01-01")"
if [ "$DATE_CODE" != 400 ]; then
    echo "manrsd smoke: ?date=1800-01-01 returned $DATE_CODE, want 400" >&2
    exit 1
fi
# Adversarial scenario route: a degraded ecosystem is a successful
# answer. Failing the RIPE relying party must come back as 200 with
# the degraded-health field set — a 5xx here means the daemon fell
# over instead of degrading.
SCEN_CODE="$(curl -s -o "$TMPDIR_SMOKE/scenario.json" -w '%{http_code}' \
    "http://$SERVE_ADDR/v1/scenario/rp-failure")"
if [ "$SCEN_CODE" != 200 ]; then
    echo "manrsd smoke: /v1/scenario/rp-failure returned $SCEN_CODE, want 200 (degradation must not 5xx)" >&2
    cat "$TMPDIR_SMOKE/scenario.json" >&2
    exit 1
fi
grep -q '"degraded": true' "$TMPDIR_SMOKE/scenario.json" || {
    echo "manrsd smoke: scenario response missing degraded-health field:" >&2
    cat "$TMPDIR_SMOKE/scenario.json" >&2
    exit 1
}
grep -q '"invalid_to_valid_flips": 0' "$TMPDIR_SMOKE/scenario.json" || {
    echo "manrsd smoke: RP failure flipped Invalid to Valid (downgrade invariant violated):" >&2
    cat "$TMPDIR_SMOKE/scenario.json" >&2
    exit 1
}
# End-to-end correlation: a client's trace ID must be greppable in the
# access log and visible in the span tree.
TRACE_ID=4bf92f3577b34da6a3ce929d0e0e4736
curl -s -o /dev/null -H "traceparent: 00-$TRACE_ID-00f067aa0ba902b7-01" \
    "http://$SERVE_ADDR/v1/stats"
grep -q "trace=$TRACE_ID" "$TMPDIR_SMOKE/manrsd.log" || {
    echo "manrsd smoke: trace $TRACE_ID missing from the access log" >&2
    grep 'component=access' "$TMPDIR_SMOKE/manrsd.log" | head -3 >&2 || true
    exit 1
}
curl -s "http://$MANRSD_ADMIN/debug/trace" | grep -q "$TRACE_ID" || {
    echo "manrsd smoke: trace $TRACE_ID missing from /debug/trace" >&2
    exit 1
}
# The serving metrics must be exposed on the admin endpoint.
curl -s -o "$TMPDIR_SMOKE/manrsd.metrics" "http://$MANRSD_ADMIN/metrics"
for metric in serve_snapshot_builds_total serve_snapshot_coalesced_total \
    serve_cache_hits_total serve_not_modified_total serve_requests_total; do
    grep -q "^$metric" "$TMPDIR_SMOKE/manrsd.metrics" || {
        echo "manrsd smoke: /metrics missing $metric" >&2
        grep '^# TYPE serve' "$TMPDIR_SMOKE/manrsd.metrics" >&2 || true
        exit 1
    }
done
CACHE_HITS="$(sed -n 's/^serve_cache_hits_total //p' "$TMPDIR_SMOKE/manrsd.metrics")"
if [ "${CACHE_HITS:-0}" -lt 1 ]; then
    echo "manrsd smoke: serve_cache_hits_total = ${CACHE_HITS:-absent}, want >= 1" >&2
    exit 1
fi
# Snapshot builds and pool queue waits are latency summaries, and the
# headline build was recorded.
for family in serve_snapshot_build_seconds parallel_queue_wait_seconds; do
    grep -q "^# TYPE $family summary\$" "$TMPDIR_SMOKE/manrsd.metrics" || {
        echo "manrsd smoke: $family is not exported as a summary" >&2
        grep "^# TYPE $family" "$TMPDIR_SMOKE/manrsd.metrics" >&2 || true
        exit 1
    }
done
BUILD_COUNT="$(sed -n 's/^serve_snapshot_build_seconds_count //p' "$TMPDIR_SMOKE/manrsd.metrics")"
if [ "${BUILD_COUNT:-0}" -lt 1 ]; then
    echo "manrsd smoke: serve_snapshot_build_seconds_count = ${BUILD_COUNT:-absent}, want >= 1" >&2
    exit 1
fi
if grep -q '_bucket{\|^# TYPE .* histogram$' "$TMPDIR_SMOKE/manrsd.metrics"; then
    echo "manrsd smoke: /metrics still exports a fixed-bucket histogram:" >&2
    grep '_bucket{\|^# TYPE .* histogram$' "$TMPDIR_SMOKE/manrsd.metrics" >&2
    exit 1
fi
# SIGTERM must drain cleanly.
kill -TERM "$MANRSD_PID"
MANRSD_STATUS=0
wait "$MANRSD_PID" || MANRSD_STATUS=$?
MANRSD_PID=""
if [ "$MANRSD_STATUS" != 0 ]; then
    echo "manrsd smoke: daemon exited $MANRSD_STATUS on SIGTERM" >&2
    cat "$TMPDIR_SMOKE/manrsd.log" >&2
    exit 1
fi
grep -q 'drained cleanly' "$TMPDIR_SMOKE/manrsd.log" || {
    echo "manrsd smoke: no clean-drain log line:" >&2
    cat "$TMPDIR_SMOKE/manrsd.log" >&2
    exit 1
}

echo "==> crash recovery smoke (manrsd -data-dir, SIGKILL, warm restart)"
SNAPDIR="$TMPDIR_SMOKE/snapdir"
"$TMPDIR_SMOKE/manrsd" -scale small -listen 127.0.0.1:0 -admin 127.0.0.1:0 \
    -data-dir "$SNAPDIR" >"$TMPDIR_SMOKE/crash1.log" 2>&1 &
MANRSD_PID=$!
# Wait for the snapshot to be archived: from that point the commit is
# durable and a SIGKILL must not lose it.
ARCHIVED=""
for _ in $(seq 1 600); do
    grep -q 'archived snapshot' "$TMPDIR_SMOKE/crash1.log" && { ARCHIVED=1; break; }
    kill -0 "$MANRSD_PID" 2>/dev/null || {
        echo "crash smoke: daemon exited before archiving:" >&2
        cat "$TMPDIR_SMOKE/crash1.log" >&2
        exit 1
    }
    sleep 0.1
done
if [ -z "$ARCHIVED" ]; then
    echo "crash smoke: daemon never archived a snapshot" >&2
    cat "$TMPDIR_SMOKE/crash1.log" >&2
    exit 1
fi
kill -9 "$MANRSD_PID" 2>/dev/null || true
wait "$MANRSD_PID" 2>/dev/null || true
MANRSD_PID=""
# One file per (world, date) key and no index file beside it.
SNAPFILES="$(find "$SNAPDIR" -maxdepth 1 -name 'snap-*.mds' | wc -l)"
if [ "$SNAPFILES" -ne 1 ] || [ -e "$SNAPDIR/MANIFEST.json" ]; then
    echo "crash smoke: archive dir holds $SNAPFILES snap-*.mds files (want 1) or a MANIFEST.json:" >&2
    ls -l "$SNAPDIR" >&2
    exit 1
fi
# Restart over the same directory: must warm-start from the archive.
"$TMPDIR_SMOKE/manrsd" -scale small -listen 127.0.0.1:0 -admin 127.0.0.1:0 \
    -data-dir "$SNAPDIR" >"$TMPDIR_SMOKE/crash2.log" 2>&1 &
MANRSD_PID=$!
SERVE_ADDR=""
for _ in $(seq 1 600); do
    SERVE_ADDR="$(sed -n 's|.*serving conformance queries on http://||p' "$TMPDIR_SMOKE/crash2.log")"
    [ -n "$SERVE_ADDR" ] && break
    kill -0 "$MANRSD_PID" 2>/dev/null || {
        echo "crash smoke: restarted daemon exited early:" >&2
        cat "$TMPDIR_SMOKE/crash2.log" >&2
        exit 1
    }
    sleep 0.1
done
if [ -z "$SERVE_ADDR" ]; then
    echo "crash smoke: restarted daemon never logged its serving address" >&2
    cat "$TMPDIR_SMOKE/crash2.log" >&2
    exit 1
fi
grep -q 'snapshot(s) restored from archive' "$TMPDIR_SMOKE/crash2.log" || {
    echo "crash smoke: restart did not warm-start from the archive:" >&2
    cat "$TMPDIR_SMOKE/crash2.log" >&2
    exit 1
}
WARM_CODE="$(curl -s -o "$TMPDIR_SMOKE/crash-stats.json" -w '%{http_code}' "http://$SERVE_ADDR/v1/stats")"
if [ "$WARM_CODE" != 200 ]; then
    echo "crash smoke: first query after warm restart returned $WARM_CODE, want 200" >&2
    cat "$TMPDIR_SMOKE/crash-stats.json" >&2
    exit 1
fi
MANRSD_ADMIN="$(sed -n 's|.*admin endpoint on http://||p' "$TMPDIR_SMOKE/crash2.log")"
curl -s -o "$TMPDIR_SMOKE/crash.metrics" "http://$MANRSD_ADMIN/metrics"
DURABLE_LOADS="$(sed -n 's/^durable_load_total //p' "$TMPDIR_SMOKE/crash.metrics")"
if [ "${DURABLE_LOADS:-0}" -lt 1 ]; then
    echo "crash smoke: durable_load_total = ${DURABLE_LOADS:-absent}, want >= 1" >&2
    grep '^durable' "$TMPDIR_SMOKE/crash.metrics" >&2 || true
    exit 1
fi
# The archive is the answer: a warm restart rebuilds nothing.
WARM_BUILDS="$(sed -n 's/^serve_snapshot_builds_total //p' "$TMPDIR_SMOKE/crash.metrics")"
if [ "${WARM_BUILDS:-absent}" != 0 ]; then
    echo "crash smoke: serve_snapshot_builds_total = ${WARM_BUILDS:-absent} after a warm restart, want 0" >&2
    exit 1
fi
kill -TERM "$MANRSD_PID"
CRASH_STATUS=0
wait "$MANRSD_PID" || CRASH_STATUS=$?
MANRSD_PID=""
if [ "$CRASH_STATUS" != 0 ]; then
    echo "crash smoke: restarted daemon exited $CRASH_STATUS on SIGTERM" >&2
    cat "$TMPDIR_SMOKE/crash2.log" >&2
    exit 1
fi
grep -q 'drained cleanly' "$TMPDIR_SMOKE/crash2.log" || {
    echo "crash smoke: no clean-drain log line after warm restart:" >&2
    cat "$TMPDIR_SMOKE/crash2.log" >&2
    exit 1
}

echo "==> distributed serve tier smoke (3 replicas + manrs-gw, wire replication, ETag coherence, drain)"
go build -o "$TMPDIR_SMOKE/manrs-gw" ./cmd/manrs-gw

# wait_serve_addr LOGFILE PID VARNAME: poll a daemon log for its
# serving address; fail loudly if the process dies first.
wait_serve_addr() {
    _addr=""
    for _ in $(seq 1 600); do
        _addr="$(sed -n 's|.*serving conformance queries on http://||p' "$1")"
        [ -n "$_addr" ] && break
        kill -0 "$2" 2>/dev/null || {
            echo "cluster smoke: replica exited early ($1):" >&2
            cat "$1" >&2
            exit 1
        }
        sleep 0.1
    done
    if [ -z "$_addr" ]; then
        echo "cluster smoke: replica never logged its serving address ($1):" >&2
        cat "$1" >&2
        exit 1
    fi
    eval "$3=\"\$_addr\""
}

# Replicas 1 and 2 build the seed world locally.
"$TMPDIR_SMOKE/manrsd" -scale small -listen 127.0.0.1:0 >"$TMPDIR_SMOKE/r1.log" 2>&1 &
R1_PID=$!
"$TMPDIR_SMOKE/manrsd" -scale small -listen 127.0.0.1:0 >"$TMPDIR_SMOKE/r2.log" 2>&1 &
R2_PID=$!
wait_serve_addr "$TMPDIR_SMOKE/r1.log" "$R1_PID" R1_ADDR
wait_serve_addr "$TMPDIR_SMOKE/r2.log" "$R2_PID" R2_ADDR
# Replica 3 is the lagging replica: with -peers it must catch up from
# replica 1 over wire replication, never running a local build.
"$TMPDIR_SMOKE/manrsd" -scale small -listen 127.0.0.1:0 \
    -peers "http://$R1_ADDR" >"$TMPDIR_SMOKE/r3.log" 2>&1 &
R3_PID=$!
wait_serve_addr "$TMPDIR_SMOKE/r3.log" "$R3_PID" R3_ADDR
grep -q 'via wire replication (no local rebuild' "$TMPDIR_SMOKE/r3.log" || {
    echo "cluster smoke: replica 3 did not catch up over wire replication:" >&2
    cat "$TMPDIR_SMOKE/r3.log" >&2
    exit 1
}
echo "cluster smoke: replica 3 synced from a peer without a local rebuild"
# Any date a peer has published comes over the wire, not only the
# headline: 2022-04-24 is a week before the seed world's headline.
dated_etag() {
    curl -s -D - -o /dev/null "http://$1/v1/stats?date=2022-04-24" \
        | tr -d '\r' | sed -n 's/^[Ee][Tt]ag: //p'
}
R1_DATED_ETAG="$(dated_etag "$R1_ADDR")"
R3_DATED_ETAG="$(dated_etag "$R3_ADDR")"
R3_SYNCS="$(grep -c 'via wire replication (no local rebuild' "$TMPDIR_SMOKE/r3.log" || true)"
if [ "$R3_SYNCS" != 2 ] || [ -z "$R1_DATED_ETAG" ] || [ "$R1_DATED_ETAG" != "$R3_DATED_ETAG" ]; then
    echo "cluster smoke: dated query: $R3_SYNCS wire syncs on replica 3 (want 2), ETags $R1_DATED_ETAG vs $R3_DATED_ETAG" >&2
    cat "$TMPDIR_SMOKE/r3.log" >&2
    exit 1
fi
echo "cluster smoke: replica 3 pulled a dated snapshot from its peer (same ETag)"

# The gateway fronts all three with fast probes so the drain test
# converges quickly.
"$TMPDIR_SMOKE/manrs-gw" -replicas "http://$R1_ADDR,http://$R2_ADDR,http://$R3_ADDR" \
    -listen 127.0.0.1:0 -probe-interval 100ms -probe-timeout 1s \
    >"$TMPDIR_SMOKE/gw.log" 2>&1 &
GW_PID=$!
GW_ADDR=""
for _ in $(seq 1 100); do
    GW_ADDR="$(sed -n 's|.*gateway serving on http://\([0-9.:]*\) over .*|\1|p' "$TMPDIR_SMOKE/gw.log" | head -1)"
    [ -n "$GW_ADDR" ] && break
    kill -0 "$GW_PID" 2>/dev/null || {
        echo "cluster smoke: gateway exited early:" >&2
        cat "$TMPDIR_SMOKE/gw.log" >&2
        exit 1
    }
    sleep 0.1
done
if [ -z "$GW_ADDR" ]; then
    echo "cluster smoke: gateway never logged its serving address" >&2
    cat "$TMPDIR_SMOKE/gw.log" >&2
    exit 1
fi

# ETag coherence: the gateway's answer for an entity must carry the
# same strong ETag a direct replica query does (fingerprint-scoped
# ETags are fleet-wide), and that ETag must revalidate to 304 through
# the gateway no matter which replica owns the key.
DIRECT_ETAG="$(curl -s -D - -o /dev/null "http://$R1_ADDR/v1/as/100/conformance" \
    | tr -d '\r' | sed -n 's/^[Ee][Tt]ag: //p')"
GW_CODE="$(curl -s -D "$TMPDIR_SMOKE/gw-conf.hdr" -o "$TMPDIR_SMOKE/gw-conf.json" \
    -w '%{http_code}' "http://$GW_ADDR/v1/as/100/conformance")"
if [ "$GW_CODE" != 200 ]; then
    echo "cluster smoke: gateway conformance lookup returned $GW_CODE, want 200" >&2
    cat "$TMPDIR_SMOKE/gw-conf.json" >&2
    exit 1
fi
GW_ETAG="$(tr -d '\r' <"$TMPDIR_SMOKE/gw-conf.hdr" | sed -n 's/^[Ee][Tt]ag: //p')"
if [ -z "$DIRECT_ETAG" ] || [ "$DIRECT_ETAG" != "$GW_ETAG" ]; then
    echo "cluster smoke: ETag incoherent: direct=$DIRECT_ETAG gateway=$GW_ETAG" >&2
    exit 1
fi
GW_REVAL="$(curl -s -o /dev/null -w '%{http_code}' \
    -H "If-None-Match: $GW_ETAG" "http://$GW_ADDR/v1/as/100/conformance")"
if [ "$GW_REVAL" != 304 ]; then
    echo "cluster smoke: revalidation through the gateway returned $GW_REVAL, want 304" >&2
    exit 1
fi
echo "cluster smoke: ETag coherent across gateway and replicas (200 -> 304)"

# SIGTERM replica 3: it must drain cleanly, the ring must converge on
# the survivors, and the gateway must keep answering 200.
kill -TERM "$R3_PID"
R3_STATUS=0
wait "$R3_PID" || R3_STATUS=$?
R3_PID=""
if [ "$R3_STATUS" != 0 ]; then
    echo "cluster smoke: replica 3 exited $R3_STATUS on SIGTERM" >&2
    cat "$TMPDIR_SMOKE/r3.log" >&2
    exit 1
fi
grep -q 'drained cleanly' "$TMPDIR_SMOKE/r3.log" || {
    echo "cluster smoke: replica 3 did not drain cleanly:" >&2
    cat "$TMPDIR_SMOKE/r3.log" >&2
    exit 1
}
CONVERGED=""
for _ in $(seq 1 100); do
    if curl -s "http://$GW_ADDR/cluster/ring" | grep -q '"live": 2'; then
        CONVERGED=1
        break
    fi
    sleep 0.1
done
if [ -z "$CONVERGED" ]; then
    echo "cluster smoke: ring did not converge on the 2 survivors:" >&2
    curl -s "http://$GW_ADDR/cluster/ring" >&2 || true
    exit 1
fi
SURVIVE_CODE="$(curl -s -o /dev/null -w '%{http_code}' "http://$GW_ADDR/v1/stats")"
if [ "$SURVIVE_CODE" != 200 ]; then
    echo "cluster smoke: gateway answered $SURVIVE_CODE after losing a replica, want 200" >&2
    exit 1
fi
echo "cluster smoke: replica drained, ring converged on survivors, gateway kept answering"
kill -TERM "$GW_PID" 2>/dev/null || true
wait "$GW_PID" 2>/dev/null || true
GW_PID=""
kill -TERM "$R1_PID" "$R2_PID" 2>/dev/null || true
wait "$R1_PID" 2>/dev/null || true
wait "$R2_PID" 2>/dev/null || true
R1_PID=""
R2_PID=""

echo "==> all checks passed"
