#!/usr/bin/env bash
# Tier-1 verification plus the report smokes and the artifact contract.
# Fully offline: the workspace has no external dependencies, so this
# works with no crates.io access (pass CARGO_FLAGS=--offline to enforce
# it).
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=${CARGO_FLAGS:-}

# Every report below goes under target/; the run must leave the tree as
# it found it.
status_before=$(git status --porcelain)

echo "== tier-1: build =="
cargo build --release $CARGO_FLAGS

echo "== perfbench builds against the current crate APIs =="
# The benchmark is its own workspace, so nothing above compiles it; an
# API change that breaks it must fail here, not at benchmark time. Its
# output goes to the git-ignored perfbench/target.
cargo build --release --manifest-path perfbench/Cargo.toml $CARGO_FLAGS

echo "== tier-1: tests (root package) =="
cargo test -q $CARGO_FLAGS

echo "== full workspace tests =="
cargo test -q --workspace $CARGO_FLAGS

echo "== zero-copy archive round trip =="
# The archive backend's format pins (golden bytes), adversarial-input
# properties, and the cross-serializer round trips that include it.
cargo test -q -p serializers $CARGO_FLAGS --test golden_archive
cargo test -q -p serializers $CARGO_FLAGS --test prop_archive
cargo test -q $CARGO_FLAGS --test cross_serializer

echo "== shuffle smoke + thread-count determinism =="
cargo run --release -p cereal-bench --bin shuffle $CARGO_FLAGS -- \
  --smoke --jobs 1 --out target/shuffle_jobs1.json
cargo run --release -p cereal-bench --bin shuffle $CARGO_FLAGS -- \
  --smoke --jobs 4 --out target/shuffle_jobs4.json
cmp target/shuffle_jobs1.json target/shuffle_jobs4.json \
  || { echo "shuffle report differs between 1 and 4 jobs"; exit 1; }

echo "== store smoke + thread-count determinism =="
cargo run --release -p cereal-bench --bin store $CARGO_FLAGS -- \
  --smoke --jobs 1 --out target/store_jobs1.json
cargo run --release -p cereal-bench --bin store $CARGO_FLAGS -- \
  --smoke --jobs 4 --out target/store_jobs4.json
cmp target/store_jobs1.json target/store_jobs4.json \
  || { echo "store report differs between 1 and 4 jobs"; exit 1; }

echo "== faults smoke + thread-count determinism =="
# The harness itself asserts the rate-0.0 sweep point reproduces the
# fault-free baseline numbers exactly.
cargo run --release -p cereal-bench --bin faults $CARGO_FLAGS -- \
  --smoke --jobs 1 --out target/faults_jobs1.json
cargo run --release -p cereal-bench --bin faults $CARGO_FLAGS -- \
  --smoke --jobs 4 --out target/faults_jobs4.json
cmp target/faults_jobs1.json target/faults_jobs4.json \
  || { echo "faults report differs between 1 and 4 jobs"; exit 1; }

echo "== trace smoke + thread-count determinism =="
# The binary itself exits non-zero if any exported counter disagrees
# with its report-side twin.
cargo run --release -p cereal-bench --bin trace $CARGO_FLAGS -- \
  --jobs 1 --out target/trace_report_jobs1.json --trace-out target/trace_jobs1.json
cargo run --release -p cereal-bench --bin trace $CARGO_FLAGS -- \
  --jobs 4 --out target/trace_report_jobs4.json --trace-out target/trace_jobs4.json
cmp target/trace_report_jobs1.json target/trace_report_jobs4.json \
  || { echo "trace report differs between 1 and 4 jobs"; exit 1; }
cmp target/trace_jobs1.json target/trace_jobs4.json \
  || { echo "chrome trace differs between 1 and 4 jobs"; exit 1; }
# The causal layer: the exported trace must carry flow (s/f) edges for
# the shuffle fetch chain — their exact rendering is pinned by the
# telemetry golden test, their presence end-to-end here.
grep -q '"ph":"s"' target/trace_jobs1.json \
  && grep -q '"cat":"flow.fetch"' target/trace_jobs1.json \
  || { echo "chrome trace lost its causal flow events"; exit 1; }

echo "== cluster + cluster-faults smoke, thread-count determinism =="
# One invocation covers both the healthy sweeps and the fault domain:
# the smoke config's fault cells (crash, heartbeat, blacklist,
# DU-failure, admission) all run on the 512-executor base cluster. The
# binary itself asserts speculation preserves every job's fold and
# never worsens the makespan, that every fault cell accounts for every
# arrival (completed + shed + failed) with crash/detection/restart
# parity, that the crash-0 cell is byte-identical to a run with no
# fault domain, and it reconciles the exported telemetry counters
# (including every cluster.* fault counter, on a healthy cell and on a
# fault-storm cell) against its report — exiting non-zero on any
# mismatch. The same traced cells feed the causal critical-path blame
# analysis, whose conservation law (the nine categories sum exactly to
# each job's latency, critical path bounded by the makespan) is also
# enforced with a non-zero exit. The cmp then proves the whole report
# — fault ledger, blame and timeline blocks included — is
# byte-identical for 1 vs 4 worker threads.
cargo run --release -p cereal-bench --bin cluster $CARGO_FLAGS -- \
  --smoke --jobs 1 --out target/cluster_jobs1.json
cargo run --release -p cereal-bench --bin cluster $CARGO_FLAGS -- \
  --smoke --jobs 4 --out target/cluster_jobs4.json
cmp target/cluster_jobs1.json target/cluster_jobs4.json \
  || { echo "cluster report differs between 1 and 4 jobs"; exit 1; }

echo "== artifact contract: full-size reports regenerate byte-identical =="
CARGO_FLAGS="$CARGO_FLAGS" bash scripts/check_artifacts.sh

echo "== clean tree =="
status_after=$(git status --porcelain)
if [ "$status_after" != "$status_before" ]; then
  echo "verify.sh changed the working tree:"
  diff <(echo "$status_before") <(echo "$status_after") || true
  exit 1
fi

echo "== lines of code (printed, not gated) =="
bash scripts/loc.sh

echo "verify: OK"
