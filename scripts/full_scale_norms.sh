#!/usr/bin/env bash
# Full-scale norm experiment: 10^5 symmetric 180x180 sign matrices packed
# from dual codewords of the (16383, 16173) BCH code (m=14; dimension
# 16173 corresponds to designed distance 31), plus the truly random
# baseline of the same size.  This is a long run (10^5 dense tridiagonal
# reductions per ensemble); norms stream to disk with a flush
# every 1000 samples, so partial output survives interruption.
#
# Usage: scripts/full_scale_norms.sh [COUNT] [OUTDIR]
set -euo pipefail

COUNT="${1:-100000}"
OUTDIR="${2:-runs/full-scale}"

echo "== code parameters =="
pseudospec genpoly --m 14 --k 16173

echo "== pseudo ensemble: ${COUNT} samples =="
pseudospec norms --kind pseudo-wigner --m 14 --delta 31 --N 180 \
    --count "${COUNT}" --seed 1 --out "${OUTDIR}/pseudo-wigner"

echo "== random baseline: ${COUNT} samples =="
pseudospec norms --kind random-wigner --N 180 \
    --count "${COUNT}" --seed 2 --out "${OUTDIR}/random-wigner"

echo "Histograms (Freedman-Diaconis densities) are in summary.json under"
echo "'histogram'; per-sample norms are in norms.csv of each directory."
