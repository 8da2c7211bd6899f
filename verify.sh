#!/usr/bin/env sh
# Full check suite: release build, all tests, clippy as errors (test and
# bench targets included), formatting,
# a sharded harness smoke run over every packer profile (fails on any
# job panic, timeout, verifier rejection, validation finding, or
# behavioural divergence), a pipelined dexlegod load smoke, a
# taint-precision regression gate against a
# checked-in baseline, and a dexlegod service round-trip (second
# identical extraction must be a byte-identical cache hit; graceful
# shutdown must exit 0).
set -eu
cd "$(dirname "$0")"

cargo build --release --workspace
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check
cargo run -p dexlego-harness --bin harness-smoke --release -- \
    --workers 2 --apps 2 --packers all

# Interpreter fetch smoke: the quickened/fused fast path must not be
# slower than per-step decoding on either microbench workload (prints the
# speedup ratios).
cargo run -p dexlego-bench --bin interp --release -- --quick-smoke

# Verifier fast-path smoke: the fast engine must match the reference
# engine's diagnostics exactly, a warm whole-DEX cache pass must not be
# slower than a cold one (every cold pass, the reference engine's
# included, starts from an empty cache), hits must occur, and the
# repeated-verification corpus workload must beat the reference engine
# re-verifying from scratch. The taint gate below then exercises
# analysis on the cached verification path.
cargo run -p dexlego-bench --bin verifier --release -- --smoke

# Service load smoke: concurrent pipelined connections against a live
# daemon — asserts zero protocol errors, no lost replies, a fully warm
# second pass outrunning the cold one, and pipelining beating the serial
# one-in-flight protocol on the warm turnaround probe.
cargo run -p dexlego-bench --bin service --release -- --smoke

# Taint-precision gate: every tool misclassification on the original
# corpus must already be in the checked-in baseline — a change that
# introduces a new false positive (or loses a true leak) fails here.
cargo run -p dexlego-bench --bin taint_gate --release

# Service smoke: start dexlegod on an ephemeral port, submit the same
# extraction twice (the smoke client asserts the second is a cache hit
# with byte-identical DEX), then drain gracefully and check exit 0.
service_dir="target/verify-dexlegod"
rm -rf "$service_dir"
mkdir -p "$service_dir"
./target/release/dexlegod --workers 2 --store "$service_dir/store" \
    > "$service_dir/daemon.out" 2> "$service_dir/daemon.err" &
daemon_pid=$!
addr=""
i=0
while [ $i -lt 100 ]; do
    addr=$(sed -n 's/^dexlegod: listening on //p' "$service_dir/daemon.out")
    [ -n "$addr" ] && break
    if ! kill -0 "$daemon_pid" 2>/dev/null; then
        echo "verify: dexlegod died before listening" >&2
        cat "$service_dir/daemon.err" >&2
        exit 1
    fi
    i=$((i + 1))
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "verify: dexlegod never printed its address" >&2
    kill "$daemon_pid" 2>/dev/null || true
    exit 1
fi
if ! ./target/release/dexlegod-smoke --addr "$addr" --packer 360 --shutdown; then
    echo "verify: dexlegod-smoke failed" >&2
    kill "$daemon_pid" 2>/dev/null || true
    exit 1
fi
if ! wait "$daemon_pid"; then
    echo "verify: dexlegod did not exit 0 after graceful shutdown" >&2
    exit 1
fi
echo "verify: dexlegod service smoke ok"

# Fleet bench smoke: 3 sharded backends behind dexlego-router with
# injected stragglers, every warm pass running for 10 stall periods —
# asserts replication happened, zero error replies even while a backend
# is killed mid-pass, the hedged fleet's warm p999 beating the
# single-backend baseline, and (no timing margin) no hedged warm reply
# slower than a whole stall while the unhedged fleet and the single
# backend each have some.
cargo run -p dexlego-bench --bin service --release -- --router 3 --smoke

# Router fleet smoke: three real dexlegod processes behind a real
# dexlego-router process. Round-trip through the router (second
# extraction must be a cache hit), then kill -9 one shard and read
# again — the fleet must still answer — then drain the router
# gracefully and check exit 0.
fleet_dir="target/verify-fleet"
rm -rf "$fleet_dir"
mkdir -p "$fleet_dir"
backend_pids=""
backend_args=""
for shard in 0 1 2; do
    ./target/release/dexlegod --workers 2 --store "$fleet_dir/store$shard" \
        > "$fleet_dir/shard$shard.out" 2> "$fleet_dir/shard$shard.err" &
    backend_pids="$backend_pids $!"
done
for shard in 0 1 2; do
    shard_addr=""
    i=0
    while [ $i -lt 100 ]; do
        shard_addr=$(sed -n 's/^dexlegod: listening on //p' "$fleet_dir/shard$shard.out")
        [ -n "$shard_addr" ] && break
        i=$((i + 1))
        sleep 0.1
    done
    if [ -z "$shard_addr" ]; then
        echo "verify: fleet shard $shard never printed its address" >&2
        kill -9 $backend_pids 2>/dev/null || true
        exit 1
    fi
    backend_args="$backend_args --backend $shard_addr"
done
# shellcheck disable=SC2086
./target/release/dexlego-router $backend_args \
    > "$fleet_dir/router.out" 2> "$fleet_dir/router.err" &
router_pid=$!
router_addr=""
i=0
while [ $i -lt 100 ]; do
    router_addr=$(sed -n 's/^dexlego-router: listening on //p' "$fleet_dir/router.out")
    [ -n "$router_addr" ] && break
    i=$((i + 1))
    sleep 0.1
done
if [ -z "$router_addr" ]; then
    echo "verify: dexlego-router never printed its address" >&2
    kill -9 $backend_pids "$router_pid" 2>/dev/null || true
    exit 1
fi
if ! ./target/release/dexlegod-smoke --addr "$router_addr" --packer Tencent; then
    echo "verify: fleet round-trip through the router failed" >&2
    kill -9 $backend_pids "$router_pid" 2>/dev/null || true
    exit 1
fi
# Give the async replication a moment, then lose a shard the hard way.
sleep 1
victim=$(echo $backend_pids | awk '{print $2}')
kill -9 "$victim"
if ! ./target/release/dexlegod-smoke --addr "$router_addr" --packer Tencent; then
    echo "verify: fleet read after losing a shard failed" >&2
    kill -9 $backend_pids "$router_pid" 2>/dev/null || true
    exit 1
fi
if ! ./target/release/dexlegod-smoke --addr "$router_addr" --packer 360 --shutdown; then
    echo "verify: router graceful drain request failed" >&2
    kill -9 $backend_pids "$router_pid" 2>/dev/null || true
    exit 1
fi
if ! wait "$router_pid"; then
    echo "verify: dexlego-router did not exit 0 after graceful shutdown" >&2
    kill -9 $backend_pids 2>/dev/null || true
    exit 1
fi
kill -9 $backend_pids 2>/dev/null || true
echo "verify: router fleet smoke ok"
