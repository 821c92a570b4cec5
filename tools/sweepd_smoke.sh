#!/bin/sh
# sweepd end to end through the real binary: run a small manifest
# uninterrupted; run it again interrupted mid-queue (--stop-after, the
# same code path as a kill between batches) and resumed on the same
# state directory, and require the resumed stream to be byte-identical;
# then rerun against the warm state onto a fresh stream, which must
# serve every alone-IPC denominator from the persistent store.
#
#   sweepd_smoke.sh SWEEPD WORKDIR
set -eu
sweepd=$1
work=$2
rm -rf "$work"
mkdir -p "$work"
cd "$work"

cat > fleet.manifest <<'MANIFEST'
tcmsim-manifest v1
cores 4
channels 2
warmup 2000
cycles 20000
sample 2000:2:1000
job frfcfs ddr2-800 1 0 1
job frfcfs ddr2-800 1 1 2
job tcm ddr2-800 1 0 1
job tcm ddr2-800 1 1 2
job tcm ddr3-1333 1 0 3
job atlas ddr2-800 0.5 0 4
MANIFEST

# Reference: one uninterrupted run.
"$sweepd" --state state-a --manifest fleet.manifest --out full.jsonl
test "$(wc -l < full.jsonl)" -eq 6
test "$(grep -c '"bench": *"sweepd"' full.jsonl)" -eq 6

# Interrupted: stop mid-queue, then resume to the end.
"$sweepd" --state state-b --manifest fleet.manifest --out part.jsonl \
    --batch 2 --stop-after 3
"$sweepd" --state state-b --manifest fleet.manifest --out part.jsonl
cmp full.jsonl part.jsonl

# Warm restart onto a fresh stream: no alone run is recomputed.
"$sweepd" --state state-a --manifest fleet.manifest --out warm.jsonl
cmp full.jsonl warm.jsonl
grep -q '"cache_hit_rate": 1[,}]' warm.jsonl.summary.json
grep -q '"cache_misses": 0[,}]' warm.jsonl.summary.json
grep -q '"jobs_emitted": 6[,}]' warm.jsonl.summary.json
echo "sweepd smoke: OK"
