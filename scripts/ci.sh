#!/usr/bin/env sh
# Repo CI gate: formatting, lints, the full test suite, benchmark
# compilation, and a release-mode kernel smoke run.
# Run from the repo root: ./scripts/ci.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (workspace, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test (workspace)"
cargo test --workspace -q

echo "==> cargo bench --no-run (criterion harnesses compile)"
cargo bench --workspace --no-run

echo "==> cargo doc (workspace, no deps, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> kernel smoke (release, vec_mul only; JSON baseline untouched)"
cargo run --release -p craft-bench --bin kernel_baseline -- --workload vec_mul

echo "==> compiled-schedule smoke (release, instant plan vs interpreted; cycle-identity asserted)"
cargo run --release -p craft-bench --bin kernel_baseline -- --workload smoke --compiled-schedule

echo "==> de-opt smoke (a watchdog trip must fall back to the interpreted path: sim.plan.deopt.watchdog_trip == 1)"
cargo run --release -p craft-bench --bin kernel_baseline -- --workload smoke --deopt-smoke

echo "==> armed-faults smoke (fault injection must keep the plan armed; report identical to the interpreted run)"
cargo run --release -p craft-bench --bin kernel_baseline -- --workload dot_product --armed-faults-smoke

echo "==> parallel kernel smoke (release, vec_mul, 4 shards; cycle-identity asserted)"
cargo run --release -p craft-bench --bin kernel_baseline -- --workload vec_mul --threads 4

echo "==> degenerate-partition smoke (epoch machinery on, single shard)"
cargo run --release -p craft-bench --bin kernel_baseline -- --workload vec_mul --threads 1

echo "==> adaptive-partition smoke (release, asymmetric profile-guided cuts; sequential identity asserted)"
cargo run --release -p craft-bench --bin kernel_baseline -- --workload smoke --partition

echo "==> repartition-at-checkpoint smoke (release, 2 strips -> 3-shard cut mid-run; bit-identity asserted)"
cargo run --release -p craft-bench --bin kernel_baseline -- --workload smoke --repartition-smoke

echo "==> telemetry smoke (release, instrumented run + validated snapshot JSON)"
tel_snap="$(mktemp)"
cargo run --release -p craft-bench --bin kernel_baseline -- --workload vec_mul --telemetry "$tel_snap"
test -s "$tel_snap" || { echo "telemetry snapshot is empty" >&2; exit 1; }
rm -f "$tel_snap"

echo "==> fault-campaign smoke (release, reduced seeds; JSON baseline untouched)"
cargo run --release -p craft-bench --bin fault_campaign -- --smoke

echo "==> batched-lockstep campaign smoke (release, serial-identity asserted per seed)"
cargo run --release -p craft-bench --bin fault_campaign -- --batch --smoke

echo "==> batched-lockstep kernel smoke (release, lane 0 vs solo replay asserted)"
cargo run --release -p craft-bench --bin kernel_baseline -- --workload smoke --batch

echo "==> benchmark correctness gate (2 s per campaign: every batch lane vs its solo run, sim_digest vs the recorded one)"
# Read-only: benchmark/ has its own lock file, which cargo refreshes in
# place when a workspace crate's dependency list has moved since the
# benchmark was last touched; put back what was there.
bench_lock="$(mktemp)"
cp benchmark/Cargo.lock "$bench_lock"
for campaign in campaign_dense campaign_sparse; do
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --workload "$campaign" --seed 1 --seconds 2 --trace 0
done
cp "$bench_lock" benchmark/Cargo.lock
rm -f "$bench_lock"

echo "==> checkpoint smoke (release, round-trip identity + corruption/truncation/version rejection)"
cargo run --release -p craft-bench --bin fault_campaign -- --ckpt-smoke

echo "==> resumable-campaign smoke (release, journal + --resume; artifacts must be byte-identical)"
ckpt_dir="$(mktemp -d)"
ckpt_a="$(mktemp)"
ckpt_b="$(mktemp)"
cargo run --release -p craft-bench --bin fault_campaign -- --smoke --checkpoint-dir "$ckpt_dir" --out "$ckpt_a"
cargo run --release -p craft-bench --bin fault_campaign -- --smoke --checkpoint-dir "$ckpt_dir" --resume --out "$ckpt_b"
cmp "$ckpt_a" "$ckpt_b" || { echo "resumed artifact diverged from the journaling run" >&2; exit 1; }
rm -rf "$ckpt_dir" "$ckpt_a" "$ckpt_b"

echo "==> serve smoke (release: start sim_server, submit concurrent jobs, preempt + resume, validate streamed JSON)"
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

echo "CI OK"
