#!/usr/bin/env bash
# Two sets of five `run`s of the same build, then `agree` on their medians:
# the benchmark's own repeatability check. A third set on another seed is
# compared with the first. Takes about 35 minutes; everything it writes stays
# under benchmark/target/.
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline --quiet
bin=target/release/ingot-benchmark
out=target/selfcheck
rm -rf "$out" && mkdir -p "$out"

files() { # files <set> -> comma-separated list
  local s=$1 list=()
  for i in 1 2 3 4 5; do list+=("$out/$s$i.json"); done
  (IFS=,; echo "${list[*]}")
}

for set in a b; do
  for i in 1 2 3 4 5; do
    "$bin" run --seed 1 --out "$out/$set$i.json" >"$out/$set$i.txt"
  done
done
for i in 1 2 3 4 5; do
  "$bin" run --seed 2 --out "$out/c$i.json" >"$out/c$i.txt"
done

status=0
echo "== set A vs set B (same seed) =="
"$bin" agree "$(files a)" "$(files b)" || status=1
echo "== set A vs set C (seed 2) =="
"$bin" agree "$(files a)" "$(files c)" || status=1
exit $status
