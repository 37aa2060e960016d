#!/usr/bin/env bash
# Repo-wide gate: formatting, lints, and the tier-1 build/test cycle.
# Run before every push; CI runs exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

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

# The debug-build engine checks are compiled out in release: the fixtures
# must come out the same without them, simulated outputs and host work alike.
echo "==> engine fixtures in release (golden outputs, engine counters, host work)"
cargo test --release -q -p capellini-sptrsv --test golden_traces --test host_work

# Replay vs FastForward bit-exactness, including a seeded sweep under the
# relaxed model, where store-buffer drains wake parked warps on their own.
echo "==> spin fast-forward differential suite (Replay vs FastForward, SC and relaxed sweep)"
cargo test --release -q -p capellini-sptrsv --test spin_fastforward

# The issue arbiter decides when relaxed-model store buffers drain, and the
# batched kernels serve the service: their suites run in release too.
echo "==> memory-model, differential-fuzz and batched suites in release"
cargo test --release -q -p capellini-sptrsv --test memory_model --test differential_fuzz --test batched

echo "==> cache-model differential suite (off invisible, on deterministic across runs)"
cargo test --release -q -p capellini-sptrsv --test cache_model

echo "==> multi-device differential suite (sharded vs single-device bit-exactness)"
cargo test --release -q -p capellini-sptrsv --test multi_device

echo "==> service differential suite (concurrent tenants vs serial sessions bit-exactness)"
cargo test --release -q -p capellini-sptrsv --test service

# The service's request path is concurrent, so one passing run shows little:
# its suites run 20 more times each.
echo "==> service suites, 20 repeated release runs (integration + core unit tests)"
for _ in $(seq 20); do
  cargo test --release -q -p capellini-sptrsv --test service
  cargo test --release -q -p capellini-core --lib service::
done

echo "==> all checks passed"
