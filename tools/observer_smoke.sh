#!/bin/sh
# Observers are passive, end to end through the real binary: one tiny
# sweep over two intensities, run plain and with every observer on
# (protocol checker, telemetry, TCMSIM_PROFILE), must emit the exact
# same CSV bytes. The observed run must leave one telemetry pair and one
# profile per run: 2 schedulers x 2 intensities x 2 workloads = 8 each.
#
#   observer_smoke.sh SWEEP WORKDIR
set -eu
sweep=$1
work=$2
rm -rf "$work"
mkdir -p "$work"
cd "$work"

# $grid stays unquoted below: it is a list of options.
grid="--schedulers frfcfs,tcm --intensity 0.5,1.0 --workloads 2
      --cores 4 --channels 2 --cycles 50000 --warmup 5000"
"$sweep" $grid > sweep-plain.csv
TCMSIM_PROFILE=profile-out "$sweep" $grid --check \
    --telemetry telemetry-out > sweep-observed.csv
cmp sweep-plain.csv sweep-observed.csv
test "$(ls telemetry-out/*.jsonl | wc -l)" -eq 8
test "$(ls telemetry-out/*.trace.json | wc -l)" -eq 8
test "$(ls profile-out/*.profile.json | wc -l)" -eq 8
echo "observer smoke: OK"
