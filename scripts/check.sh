#!/usr/bin/env bash
# Repo gate: formatting, lints (warnings are errors), docs (warnings are
# errors), full test suite. Run before every commit: ./scripts/check.sh
#
# Fast paths while iterating:
#   ./scripts/check.sh serving         # just the serving crate's tests
#   ./scripts/check.sh engine          # MuxWise tests + the goldens a dispatcher change must keep
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
    cargo test -q -p muxwise
    cargo test -q -p integration-tests --test refactor_invariance \
        --test macro_equivalence --test recovery
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
