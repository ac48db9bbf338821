#!/usr/bin/env bash
# The artifact contract: every deterministic BENCH_*.json report in the
# repository root regenerates byte-identical from the source. Runs each
# report binary at full size, writing under target/artifacts/, and
# compares the result with the committed copy. BENCH_PERF.json is wall
# clock and is not checked. Pass CARGO_FLAGS=--offline to stay offline.
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=${CARGO_FLAGS:-}
out=target/artifacts
mkdir -p "$out"

cargo build --release -p cereal-bench $CARGO_FLAGS \
  --bin cluster --bin faults --bin shuffle --bin store --bin trace

differ=()
for name in cluster faults shuffle store trace; do
  report="BENCH_${name^^}.json"
  echo "== $name -> $out/$report =="
  extra=()
  if [ "$name" = trace ]; then
    extra=(--trace-out "$out/trace.json")
  fi
  if ! "./target/release/$name" --out "$out/$report" "${extra[@]}" > "$out/$name.log" 2>&1; then
    tail -n 20 "$out/$name.log"
    echo "$name failed; full log in $out/$name.log"
    exit 1
  fi
  cmp -s "$out/$report" "$report" || differ+=("$report")
done

if [ ${#differ[@]} -gt 0 ]; then
  echo "regenerated reports differ from the committed copies: ${differ[*]}"
  exit 1
fi
echo "artifacts: all five reports byte-identical"
