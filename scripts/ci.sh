#!/usr/bin/env sh
# Repo CI gate: formatting, lints, the full test suite (the paper's
# claims table, its fault-injection section E14 and its rendered docs
# included), the benchmark's own tests and its correctness gate on
# every workload, and a served-job smoke through the socket.
# The test step is what a bare `cargo test -q` at the root runs too
# (Tier-1): the workspace's `default-members` are all of it, and the
# dev profile is optimised so the suite takes ~23 s warm on 2 cores.
# Nothing here is timed; performance is judged by `benchmark/` alone.
# The line count at the end is printed, not gated on.
# Run from the repo root: ./scripts/ci.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (workspace, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test (workspace)"
cargo test --workspace -q

echo "==> cargo doc (workspace, no deps, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

# Read-only: benchmark/ has its own lock file, which cargo refreshes in
# place when a workspace crate's dependency list has moved since the
# benchmark was last touched; put back what was there on exit, pass or
# fail.
bench_lock="$(mktemp)"
cp benchmark/Cargo.lock "$bench_lock"
trap 'cp "$bench_lock" benchmark/Cargo.lock; rm -f "$bench_lock"' EXIT

echo "==> benchmark tests (the benchmark compiles against the library API)"
cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "==> benchmark correctness gate (2 s per workload: every op vs its golden reference, sim_digest vs the recorded one)"
for workload in fig6_sim fig6_rtl campaign_sparse campaign_dense serve_tcp serve_contended; do
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --workload "$workload" --seed 1 --seconds 2 --trace 0
done

echo "==> serve smoke (release: start a 1-worker sim_server, submit concurrent jobs, preempt + resume the parked engine with no replay, validate streamed JSON)"
cargo build --release -p craft-serve --bin sim_server --example serve_client
serve_log="$(mktemp)"
target/release/sim_server --port 0 --workers 1 > "$serve_log" &
serve_pid=$!
serve_port=""
for _ in $(seq 1 50); do
    serve_port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$serve_log")"
    [ -n "$serve_port" ] && break
    kill -0 "$serve_pid" 2>/dev/null || { echo "sim_server died:" >&2; cat "$serve_log" >&2; exit 1; }
    sleep 0.1
done
[ -n "$serve_port" ] || { echo "sim_server never reported its port" >&2; cat "$serve_log" >&2; exit 1; }
target/release/examples/serve_client --port "$serve_port" --preempt-demo --shutdown
wait "$serve_pid"
rm -f "$serve_log"

echo "==> non-test Rust lines per crate (scripts/loc.sh; reported, not gated)"
./scripts/loc.sh

echo "CI OK"
