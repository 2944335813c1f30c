#!/usr/bin/env bash
# Non-test source lines: the non-blank lines of crates/*/src/**/*.rs, each
# file counted up to its first line that opens with a test gate,
# `#[cfg(test)]` or `#[cfg(all(test, ...))]` (a doc comment quoting one does
# not count). Prints one line per crate, then the total. Run from anywhere:
# `.github/count-lines.sh`.
set -euo pipefail
cd "$(dirname "$0")/.."
total=0
for crate in crates/*/; do
  [ -d "$crate/src" ] || continue
  n=$(find "$crate/src" -name '*.rs' -print0 | sort -z |
    xargs -0 -r awk 'FNR == 1 { live = 1 } /^[ \t]*#\[cfg\((all\()?test[,)]/ { live = 0 } live && NF { n++ } END { print n + 0 }')
  printf '%-24s %6d\n' "$(basename "$crate")" "$n"
  total=$((total + n))
done
printf '%-24s %6d\n' total "$total"
