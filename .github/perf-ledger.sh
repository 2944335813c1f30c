#!/usr/bin/env bash
# The perf ledger: the BENCHMARK.json command on all five workloads, judged
# against the newest committed BENCH_<n>.json. Fails when `agree` finds an
# end-to-end cell worse than its bound, when a workload answered wrong or
# failed a statement, or when watching costs more than the paper's envelope:
# mon_cost_ratio ≤ 1.15 on point_embedded (the 1m test) and on join_adhoc
# (the 50k test, every text new to the monitor), and ≤ 1.10 on scan_cold (an
# expensive statement, ≈ 100 % in Fig 4). The ratios pair the monitored and
# the bare arm inside each cycle, so those three gates do not depend on the
# runner's speed; the `agree` cells do. Writes ledger.json and
# ledger.out in the repository root. About two minutes.
set -euo pipefail
cd "$(dirname "$0")/.."
baseline=$(ls BENCH_*.json | sort -V | tail -n 1)
bench() {
  cargo run --quiet --release --offline --manifest-path benchmark/Cargo.toml -- "$@"
}

bench run --seed 1 --seconds 16 --out ledger.json >ledger.out
status=0
echo "== ledger.json vs $baseline =="
bench agree "$baseline" ledger.json || status=1
python3 - ledger.json <<'EOF' || status=1
import json, sys
doc = json.load(open(sys.argv[1]))
gates = {"point_embedded": 1.15, "join_adhoc": 1.15, "scan_cold": 1.10}
bad = 0
for name, w in doc["workloads"].items():
    ratio = w["metrics"]["mon_cost_ratio"]["value"]
    gate = gates.get(name, float("inf"))
    ok = w["correct"] and w["failed"] == 0 and ratio <= gate
    bad += not ok
    print(f"{name:<16} correct {w['correct']}, failed {w['failed']:.0f}, "
          f"mon_cost_ratio {ratio:.4f} (gate {gate}) {'ok' if ok else 'FAIL'}")
sys.exit(bad > 0)
EOF
exit $status
