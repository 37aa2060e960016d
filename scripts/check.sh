#!/usr/bin/env bash
# Repo-wide gate: formatting, lints, and the tier-1 build/test cycle.
# Run before every push; CI runs exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy benches + examples (deny warnings)"
cargo clippy --workspace --benches --examples -- -D warnings

# Broken intra-doc links (a dangling link to a removed item, a paper
# citation parsed as a link, a public doc linking a private item) fail here.
echo "==> rustdoc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> tier-1: cargo build --release && cargo test"
cargo build --release
cargo test -q

echo "==> workspace unit tests (core, simt, sparse, bench crates)"
cargo test -q --workspace

# perfbench is a package of its own that builds against the library crates
# by path; nothing else compiles it, so a public-API change could break the
# benchmark unnoticed. Its smoke tests also check every workload reports
# every metric named in BENCHMARK.json.
echo "==> perfbench build + smoke tests (frozen benchmark package)"
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "==> spin fast-forward differential suite (Replay vs FastForward bit-exactness)"
cargo test --release -q -p capellini-sptrsv --test spin_fastforward

echo "==> engine_spin smoke (calibration asserts Replay/FastForward stats equality)"
cargo bench -q -p capellini-bench --bench engine_spin -- --quick

echo "==> engine_batch smoke (calibration asserts batched == looped bit-exactness)"
cargo bench -q -p capellini-bench --bench engine_batch -- --quick

echo "==> cache-model differential suite (off invisible, on deterministic across runs)"
cargo test --release -q -p capellini-sptrsv --test cache_model

echo "==> engine_cache smoke (calibration asserts cache-off zero counters + bit-stable solutions)"
cargo bench -q -p capellini-bench --bench engine_cache -- --quick

echo "==> engine_schedule smoke (calibration asserts bitwise vs reference + chain cycle win)"
cargo bench -q -p capellini-bench --bench engine_schedule -- --quick

echo "==> multi-device differential suite (sharded vs single-device bit-exactness)"
cargo test --release -q -p capellini-sptrsv --test multi_device

echo "==> engine_shard smoke (calibration asserts sharded == single-device bit-exactness)"
cargo bench -q -p capellini-bench --bench engine_shard -- --quick

echo "==> service differential suite (concurrent tenants vs serial sessions bit-exactness)"
cargo test --release -q -p capellini-sptrsv --test service

echo "==> serve_load smoke (calibration asserts bit-exactness + nonzero coalescing)"
cargo bench -q -p capellini-bench --bench serve_load -- --quick

# Calibration panics must fail the gate under a non-default thread count
# too: the benches run their equality asserts before Criterion forks any
# timing work, and `set -e` above propagates their exit codes verbatim.
echo "==> 2-thread smoke (engine_batch calibration under CAPELLINI_THREADS=2)"
CAPELLINI_THREADS=2 cargo bench -q -p capellini-bench --bench engine_batch -- --quick

echo "==> all checks passed"
