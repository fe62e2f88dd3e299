#!/usr/bin/env bash
# Tier-1 verification, run exactly as CI would: fully offline.
#
# The workspace has a hermetic-build policy (see DESIGN.md): intra-workspace
# path dependencies only, so --offline must never be the reason a build
# fails. Any network access during this script is a regression.
set -euo pipefail
cd "$(dirname "$0")/.."

# Tests that must run and pass; raise it when adding tests, so coverage
# cannot shrink silently (e.g. a root-only `cargo test`). Lower it only
# by tests deleted together with the code they cover, or by duplicate
# registrations removed (see the check below).
TEST_FLOOR=481

# The opt-in perf stage's flag (see the end). Read it, then drop it from
# the environment: the benchmark smoke run refuses to start while any
# STH_* variable is set.
verify_bench="${STH_VERIFY_BENCH:-0}"
unset STH_VERIFY_BENCH

test_log="$(mktemp -t sth_verify_tests.XXXXXX.log)"
trace_log="$(mktemp -t sth_verify_trace.XXXXXX.jsonl)"
trap 'rm -f "$test_log" "$trace_log"' EXIT

cargo build --release --offline
# Lint gate: every clippy warning in the workspace (all targets) fails.
cargo clippy --offline --workspace --all-targets -q -- -D warnings
cargo test -q --offline 2>&1 | tee "$test_log"
passed="$(sed -n 's/^test result: [a-zA-Z]*\. \([0-9]*\) passed.*/\1/p' "$test_log" \
    | awk '{ n += $1 } END { print n + 0 }')"
if (( passed < TEST_FLOOR )); then
    echo "verify: $passed tests passed, below the floor of $TEST_FLOOR" >&2
    exit 1
fi
echo "verify: $passed tests passed (floor $TEST_FLOOR)"

# Every test is registered once per binary. A name listed twice runs twice
# and counts twice toward the floor — what a `check!` property that also
# writes its own `#[test]` does (the macro adds the attribute itself).
dups="$(cargo test --offline -- --list 2>/dev/null \
    | awk '/: test$/ { if (seen[bin, $0]++) print } /^[0-9]+ tests?, / { bin++ }')"
if [[ -n "$dups" ]]; then
    echo "verify: test names registered twice within one binary:" >&2
    echo "$dups" >&2
    exit 1
fi
cargo build --examples --offline

# Observability acceptance: run the demo with audit mode on and tracing to
# a scratch file. The example itself asserts the one-probe-per-query
# invariant, re-checks histogram invariants after every refinement
# (STH_AUDIT=1), and validates that the emitted event log parses and
# covers clustering, drilling, merging, IPF and index probes.
STH_TRACE="$trace_log" STH_AUDIT=1 \
    cargo run -q --release --offline --example observability > /dev/null
echo "verify: observability example OK ($(wc -l < "$trace_log") trace events)"

# Serving acceptance: concurrent readers answer estimate batches from
# epoch-published frozen snapshots while the trainer refines. The example
# asserts ≥ 2 epochs served, per-reader final-epoch drains, an invariant
# check on every loaded snapshot (STH_AUDIT=1), and frozen/live
# bit-identity.
STH_AUDIT=1 cargo run -q --release --offline --example serving > /dev/null
echo "verify: serving example OK"

# Registry acceptance: 8 tenants (tables/subspaces) registered, trained
# and served concurrently out of one registry, each tenant published as
# one frozen snapshot. The example asserts mixed-tenant routing is
# bit-identical to per-tenant estimation, that per-tenant timelines, the
# composite epoch and the snapshot_publishes counter account for every
# publish exactly, and that publishing one tenant moves only its own
# epoch, by one, and answers bit-identically to the trainer's freeze.
STH_AUDIT=1 cargo run -q --release --offline --example registry > /dev/null
echo "verify: registry example OK"

# Durability acceptance: train through the write-ahead store, kill the run
# mid-stream with an injected filesystem fault, reopen the torn directory
# and finish bit-identically to a never-crashed reference run. The example
# also time-travels every retained snapshot generation and round-trips the
# protocol through the real filesystem in a scratch directory.
STH_AUDIT=1 cargo run -q --release --offline --example durability > /dev/null
echo "verify: durability example OK"

# Telemetry acceptance: serve a concurrent workload with metrics and the
# flight recorder forced on, print the per-epoch timeline (publishes,
# batches, latency quantiles, kernel counters, store flush bytes), and
# fault-inject a durable run so the store poisoning dumps the flight
# recorder. The example asserts non-degenerate p50/p99/p999, one latency
# sample per batch, and that the dump carries the pre-crash absorb trail.
STH_METRICS=1 STH_FLIGHT=1 \
    cargo run -q --release --offline --example telemetry > /dev/null
echo "verify: telemetry example OK"

# Reactor acceptance: the closed-loop load generator sweeps offered
# throughput against the poll-based serving engine (2 threads, 4-query
# requests) and prints p50/p99 latency, shed rate and goodput per point.
# The example asserts exact offered == answered + shed accounting at
# every operating point, that saturation makes the engine coalesce past
# the kernel threshold, and that coalescing sustains at least the
# goodput of one-request-per-service at equal thread count.
cargo run -q --release --offline --example reactor
echo "verify: reactor example OK"

# Benchmark smoke run: builds the standalone benchmark package against the
# workspace crates and runs every workload briefly. `--locked` fails
# loudly if a change to any crate's normal dependencies would rewrite the
# benchmark's `Cargo.lock`; the benchmark exits non-zero unless every
# workload is correct with no failed operations. It is also the only
# tier-1 step that compiles the APIs the benchmark imports.
cargo run --locked --release --offline -q \
    --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- --smoke > /dev/null
echo "verify: benchmark smoke run OK"

# Opt-in perf stage (not tier-1): smoke-run the core_ops benches and fail
# on large median regressions against the committed baseline.
if [[ "$verify_bench" == "1" ]]; then
    scripts/bench_gate.sh
fi

echo "verify: OK"
