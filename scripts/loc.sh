#!/usr/bin/env bash
# Lines of Rust in each crate's source tree (crates/*/src) and their sum,
# tracked next to speed as a first-class metric. A file's production
# lines are those before its first `#[cfg(test)]`; the rest are in-file
# test lines (every crates/*/src file has at most one, and it opens the
# file's trailing test module). Prints only: it writes no file and gates
# nothing.
#
#   bash scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

printf '%-28s %7s %7s %7s\n' "" "prod" "test" "total"
find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
  FNR == 1 {
    crate = FILENAME; sub(/\/src\/.*/, "/src", crate); in_test = 0
    if (!(crate in prod)) { order[++n] = crate; prod[crate] = 0; test[crate] = 0 }
  }
  /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
  { if (in_test) test[crate]++; else prod[crate]++ }
  END {
    for (i = 1; i <= n; i++) {
      c = order[i]
      printf "%-28s %7d %7d %7d\n", c, prod[c], test[c], prod[c] + test[c]
      p += prod[c]; t += test[c]
    }
    printf "%-28s %7d %7d %7d\n", "total", p, t, p + t
  }'
