#!/usr/bin/env bash
# Repo gate: formatting, lints (warnings are errors), docs (warnings are
# errors), full test suite. Run before every commit: ./scripts/check.sh
#
# Fast paths while iterating:
#   ./scripts/check.sh serving         # just the serving crate's tests
#   ./scripts/check.sh engine          # MuxWise, baselines and serving tests + the goldens an engine change
#                                      # must keep (decode_golden: requeues, overflow prefills, KV shrink;
#                                      # prefill_golden: batch caps, drops, launches, handoffs), the
#                                      # faults suite and the harness golden
#   ./scripts/check.sh crash           # crash and decode goldens, recovery/fault/fleet suites, crash and fleet smokes
#   ./scripts/check.sh alloc           # every crate's alloc_count test (heap allocations and sizes)
#   ./scripts/check.sh setup           # estimator and workload tests, the set-up golden, every alloc_count test
#   ./scripts/check.sh harness         # bench crate tests (harness golden included), chaos, recovery, fleet,
#                                      # fleet-chaos and gray smokes
#   ./scripts/check.sh stats           # simcore and serving tests, every alloc_count test, the refactor and
#                                      # harness goldens, perfbench's tests (it reads Summary samples)
#   ./scripts/check.sh chaos-smoke     # fault-injection smoke grid only
#   ./scripts/check.sh recovery-smoke  # GPU fail-stop crash/recover grid only
#   ./scripts/check.sh lint            # simlint invariant pass only
#   ./scripts/check.sh lint --changed  # simlint, findings scoped to files changed vs HEAD
#   ./scripts/check.sh perf-smoke      # sweep_smoke grid vs BENCH_sweep.json (see below)
#   ./scripts/check.sh fleet-smoke     # fleet router tier: leaks, accounting, thread identity
#   ./scripts/check.sh fleet-chaos-smoke  # fleet failover: a victim must migrate and finish elsewhere
#   ./scripts/check.sh gray-smoke      # gray failures: hedged dispatch, cancelled books, thread identity
#
# perf-smoke gates twice. The grid's work (simulated seconds, boundary
# events, decode iterations and macro-coalesced iterations) must equal
# the figures BENCH_sweep.json records exactly: host load cannot move
# them, so a difference is a change in behaviour. Its throughput
# (simulated seconds per wall second) may fall at most 20 % below the
# recorded figure. Re-run sweep_smoke to re-record both after an
# intended change.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "serving" ]]; then
    cargo test -q -p serving
    exit 0
fi

if [[ "${1:-}" == "engine" ]]; then
    cargo test -q -p muxwise -p baselines -p serving
    cargo test -q -p integration-tests --test refactor_invariance \
        --test macro_equivalence --test recovery --test crash_golden \
        --test decode_golden --test prefill_golden --test faults
    cargo test -q -p bench --test harness_golden
    exit 0
fi

if [[ "${1:-}" == "crash" ]]; then
    cargo test -q -p integration-tests --test crash_golden --test decode_golden \
        --test recovery --test faults --test fleet
    cargo run --release -q -p bench --bin chaos -- --recovery-smoke
    cargo run --release -q -p bench --bin fleet_chaos -- --smoke
    cargo run --release -q -p bench --bin fleet_chaos -- --gray-smoke
    exit 0
fi

if [[ "${1:-}" == "alloc" ]]; then
    cargo test -q --workspace --test alloc_count
    exit 0
fi

if [[ "${1:-}" == "setup" ]]; then
    cargo test -q -p estimator -p workload
    cargo test -q -p integration-tests --test setup_golden
    cargo test -q --workspace --test alloc_count
    exit 0
fi

if [[ "${1:-}" == "harness" ]]; then
    cargo test -q -p bench
    cargo run --release -q -p bench --bin chaos -- --smoke
    cargo run --release -q -p bench --bin chaos -- --recovery-smoke
    cargo run --release -q -p bench --bin fleet -- --smoke
    cargo run --release -q -p bench --bin fleet_chaos -- --smoke
    cargo run --release -q -p bench --bin fleet_chaos -- --gray-smoke
    exit 0
fi

if [[ "${1:-}" == "stats" ]]; then
    cargo test -q -p simcore -p serving
    cargo test -q --workspace --test alloc_count
    cargo test -q -p integration-tests --test refactor_invariance
    cargo test -q -p bench --test harness_golden
    cargo test --release --manifest-path perfbench/Cargo.toml
    exit 0
fi

if [[ "${1:-}" == "lint" ]]; then
    if [[ "${2:-}" == "--changed" ]]; then
        # Diff-scoped lint: the full workspace is still linted (the
        # interprocedural rules need every file for the call graph),
        # but only findings in files changed vs HEAD are reported.
        mapfile -t changed < <(git diff --name-only HEAD -- 'crates/*/src/**' | grep '\.rs$' || true)
        if [[ ${#changed[@]} -eq 0 ]]; then
            echo "check.sh: no changed .rs files under crates/*/src" >&2
            exit 0
        fi
        cargo run --release -q -p simlint -- --changed "${changed[@]}"
        exit 0
    fi
    cargo run --release -q -p simlint
    exit 0
fi

if [[ "${1:-}" == "perf-smoke" ]]; then
    cargo run --release -q -p bench --bin perf_smoke
    exit 0
fi

if [[ "${1:-}" == "fleet-smoke" ]]; then
    cargo run --release -q -p bench --bin fleet -- --smoke
    exit 0
fi

if [[ "${1:-}" == "fleet-chaos-smoke" ]]; then
    cargo run --release -q -p bench --bin fleet_chaos -- --smoke
    exit 0
fi

if [[ "${1:-}" == "gray-smoke" ]]; then
    cargo run --release -q -p bench --bin fleet_chaos -- --gray-smoke
    exit 0
fi

if [[ "${1:-}" == "chaos-smoke" ]]; then
    cargo run --release -q -p bench --bin chaos -- --smoke
    exit 0
fi

if [[ "${1:-}" == "recovery-smoke" ]]; then
    cargo run --release -q -p bench --bin chaos -- --recovery-smoke
    exit 0
fi

cargo fmt --check
cargo clippy --all-targets -- -D warnings
cargo run --release -q -p simlint
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet
cargo test -q
# The benchmark's own tests, including its catalog matching BENCHMARK.json.
cargo test --release --manifest-path perfbench/Cargo.toml
cargo run --release -q -p bench --bin chaos -- --smoke
cargo run --release -q -p bench --bin chaos -- --recovery-smoke
cargo run --release -q -p bench --bin fleet -- --smoke
cargo run --release -q -p bench --bin fleet_chaos -- --smoke
cargo run --release -q -p bench --bin fleet_chaos -- --gray-smoke
