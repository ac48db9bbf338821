#!/usr/bin/env bash
# Lines of Rust in each crate's source tree (crates/*/src) and their sum,
# tracked next to speed as a first-class metric. Prints only: it writes
# no file and gates nothing.
#
#   bash scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

sum=0
for src in crates/*/src; do
  lines=$(find "$src" -name '*.rs' -print0 | xargs -0 wc -l | tail -1 | awk '{print $1}')
  printf '%-28s %7d\n' "$src" "$lines"
  sum=$((sum + lines))
done
printf '%-28s %7d\n' "total" "$sum"
