#!/usr/bin/env bash
# The CI regression gate: re-measure a base and a head checkout with
# the head's end-to-end benchmark and compare them.
#
#   bash .github/e2e_gate.sh BASE_TREE HEAD_TREE OUT_DIR
#
# HEAD_TREE's benchmarks/e2e/ and BENCHMARK.json are copied over
# BASE_TREE, so both sides run the same benchmark code, each against
# its own src/ (run.py puts its own tree's src/ first on the path).
# K pairs run; pair i runs both sides with seed SEED_BASE + i, the base
# first in odd pairs and the head first in even ones.  Each side's runs
# are merged into OUT_DIR/base.json and OUT_DIR/head.json, and the
# exit status is that of the head's compare.py on them: 1 when a
# (metric, workload) pair reads `regressed`.  A run.py that exits
# non-zero (a wrong output, a workload that did not finish) stops the
# gate with its status.  The constants are calibrated in
# docs/benchmarks.md ("The CI regression gate").
set -euo pipefail

K=5
SIZE=smoke
RUN_SECONDS=2
SEED_BASE=100

if [ "$#" -ne 3 ]; then
    echo "usage: $0 BASE_TREE HEAD_TREE OUT_DIR" >&2
    exit 2
fi
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
if [ "$base" = "$head" ]; then
    echo "error: BASE_TREE and HEAD_TREE are the same tree" >&2
    exit 2
fi
mkdir -p "$3"
out=$(cd "$3" && pwd)

rm -rf "$base/benchmarks/e2e"
mkdir -p "$base/benchmarks"
cp -R "$head/benchmarks/e2e" "$base/benchmarks/e2e"
cp "$head/BENCHMARK.json" "$base/BENCHMARK.json"

measure() {  # measure SIDE TREE PAIR
    echo "pair $3: $1" >&2
    python3 "$2/benchmarks/e2e/run.py" --size "$SIZE" \
        --seconds "$RUN_SECONDS" --seed "$((SEED_BASE + $3))" \
        --out "$out/$1.$3.json" > "$out/$1.$3.log"
}

for pair in $(seq 1 "$K"); do
    if [ $((pair % 2)) -eq 1 ]; then
        measure base "$base" "$pair"
        measure head "$head" "$pair"
    else
        measure head "$head" "$pair"
        measure base "$base" "$pair"
    fi
done

for side in base head; do
    python3 - "$out/$side.json" "$out/$side".[0-9]*.json <<'EOF'
import json
import sys

merged = {"provenance": [], "runs": []}
for path in sys.argv[2:]:
    with open(path) as handle:
        document = json.load(handle)
    merged["provenance"].append(document["provenance"])
    merged["runs"].extend(document["runs"])
with open(sys.argv[1], "w") as handle:
    json.dump(merged, handle, indent=1)
EOF
done

status=0
python3 "$head/benchmarks/e2e/compare.py" "$out/base.json" "$out/head.json" \
    > "$out/compare.txt" || status=$?
cat "$out/compare.txt"
exit "$status"
