#!/usr/bin/env bash
# Byte-identity check: run the README's CLI commands, plus `genpoly` and
# `dual` by target dimension (one found at delta = 513, one for a dimension
# no BCH code has, exit 2), `genpoly` for the largest codes built anywhere
# (m = 16 at delta = 361, the benchmark's m = 20 code, and m = 20 at
# delta = 129, whose degree-1280 generator makes the longest windowed
# products checked here), `norms` and `esd`
# at the full-scale order N = 180 at reduced counts, pseudo `norms` of an MP
# kind and pseudo `moments`, `esd` of random-mp with p set by --gamma, the
# benchmark's sampled verify-indep, sampled verify-indep at the largest r it
# takes (11), at r = 6 and r = 7 (the largest r counted by the AND tree and
# the smallest counted by bincount) and at k_dual = 8 over every subset, a
# failing exact and a failing sampled verify-indep (exit 1), a `sample` whose
# seed has two 32-bit words, a `sample` over three message blocks, a `sample`
# at k_dual = 70 (a partial last message byte) across a block, a pseudo
# `esd` whose seed has two 32-bit words (sample 0's message then mixes three
# entropy words), a pseudo `norms` whose batch crosses a message block, a
# `sample` without --delta (exit 2), a pseudo `esd` at gamma = 1 (the
# hard edge a = 0 of the MP CDF) whose 130 spectra are scored in two full
# KS blocks and a partial one, pseudo `norms` at N = 360 and pseudo
# `moments` at N = 180 (orders of cli.PINNED_ORDERS, whose samples are
# solved in forked shards, as are those of `norms` and `esd` at N = 180:
# two or more shares on a 2-CPU box), `genpoly --m 16 --k 17` (a
# low-dimension code,
# built from its non-root cosets) and `genpoly --m 18 --k 19` (a low
# target dimension, found walking the coset leaders down from n/2),
# on a git ref and on the working tree,
# and compare their standard output, exit codes and every file they write
# (config.json included).  Standard error is kept apart and not compared.
#
# Usage: scripts/byte_identity.sh REF
#
# Exits 0 when everything matches, 1 on any difference (printed as a diff),
# 2 on bad usage.  REF is exported with `git archive` into a temporary
# directory, removed on exit.  Each tree runs from its own source,
# `PYTHONPATH=<tree>/src python3 -m pseudospec.cli`, at
# OPENBLAS_NUM_THREADS=1: spectra from N ~ 180 up differ in their last
# digits between BLAS thread counts.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 REF" >&2
    exit 2
fi
ROOT="$(git rev-parse --show-toplevel)"
if ! SHA="$(git -C "$ROOT" rev-parse --verify --quiet "$1^{commit}")"; then
    echo "error: $1 names no commit" >&2
    exit 2
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
mkdir "$WORK/ref-src"
git -C "$ROOT" archive "$SHA" | tar -x -C "$WORK/ref-src"

# Output directories are relative, so both sides print the same paths.
COMMANDS=(
    "genpoly --m 4 --delta 5"
    "genpoly --m 14 --k 16173"
    "genpoly --m 10 --k 1"
    "dual --m 6 --k 16"
    "genpoly --m 4 --k 10"
    "genpoly --m 16 --delta 361"
    "genpoly --m 20 --delta 33"
    # 320 four-bit windows per product of g
    "genpoly --m 20 --delta 129"
    "verify-indep --m 4 --delta 5 --r 4"
    "verify-indep --m 14 --delta 31 --r 30 --budget 200"
    "verify-indep --m 4 --delta 5 --r 5"
    "verify-indep --m 3 --delta 3 --r 3 --mode sampled"
    "norms --kind pseudo-wigner --m 10 --delta 15 --N 44 --count 2000 --seed 1 --out runs/wig44"
    "esd --kind pseudo-mp --m 10 --delta 15 --N 40 --p 25 --count 500 --seed 2 --out runs/mp40"
    "moments --kind random-wigner --N 256 --count 100 --s-max 8 --out runs/mom256"
    "norms --kind pseudo-wigner --m 14 --delta 31 --N 180 --count 300 --seed 1 --out runs/wig180"
    # above dsytrd's blocking crossover, unlike the 25x25 esd above
    "esd --kind pseudo-wigner --m 14 --delta 31 --N 180 --count 100 --seed 1 --out runs/esd180"
    "verify-indep --m 14 --delta 31 --r 4 --mode sampled --budget 200"
    "verify-indep --m 10 --delta 15 --r 11 --mode sampled --budget 40"
    # either side of the counting crossover: 2^r <= 64 takes the AND tree
    "verify-indep --m 10 --delta 15 --r 6 --mode sampled --budget 100"
    "verify-indep --m 10 --delta 15 --r 7 --mode sampled --budget 100"
    "verify-indep --m 4 --delta 5 --r 4 --mode sampled"
    "sample --m 14 --delta 31 --count 3000 --seed 4294967296 --out runs/sample14"
    "sample --m 4 --delta 5 --count 10000 --seed 3 --out runs/sample4"
    # k_dual = 70, not a whole number of bytes: message 0 drawn alone, then
    # blocks of message_bytes whose last byte is masked to 6 bits, across a
    # 4,096-message block
    "sample --m 10 --delta 15 --count 5000 --seed 7 --out runs/sample10"
    # the pseudo sample path under the two batch commands not covered above
    "norms --kind pseudo-mp --m 10 --delta 15 --N 40 --p 25 --count 200 --seed 3 --out runs/normsmp40"
    "moments --kind pseudo-wigner --m 10 --delta 15 --N 44 --count 50 --s-max 8 --seed 5 --out runs/mom44"
    # a two-word seed on the batch path: sample 0 from message_for_index,
    # samples 1 .. 19 from one block of message_bytes
    "esd --kind pseudo-mp --m 10 --delta 15 --N 40 --p 25 --count 20 --seed 4294967301 --out runs/mp40s2"
    # samples 1 .. 4199 of a batch cross a 4,096-message block
    "norms --kind pseudo-wigner --m 10 --delta 15 --N 8 --count 4200 --seed 6 --out runs/wig8"
    "sample --m 4 --count 1"
    # the one kind, and the one way to set p, that nothing above runs
    "esd --kind random-mp --N 40 --gamma 0.625 --count 50 --seed 4 --out runs/rmp40"
    # gamma = 1, and two full blocks of cli.KS_BLOCK = 64 spectra plus a partial one
    "esd --kind pseudo-mp --m 10 --delta 15 --N 31 --p 31 --count 130 --seed 3 --out runs/mp31g1"
    # solved in forked shards, one per CPU, at one BLAS thread
    "norms --kind pseudo-wigner --m 16 --delta 31 --N 360 --count 40 --out runs/wig360"
    "moments --kind pseudo-wigner --m 14 --delta 31 --N 180 --count 100 --s-max 16 --seed 2 --out runs/mom180"
    # g from x^n + 1 over the non-root cosets' minimal polynomials
    "genpoly --m 16 --k 17"
    # delta_for_dimension's walk down from n/2
    "genpoly --m 18 --k 19"
)

run_side() {  # run_side NAME TREE: every command, outputs under $WORK/NAME
    local out="$WORK/$1" i=0 rc
    mkdir -p "$out" "$WORK/stderr-$1"
    for cmd in "${COMMANDS[@]}"; do
        i=$((i + 1))
        rc=0
        # shellcheck disable=SC2086  # each command is a list of words
        (cd "$out" && OPENBLAS_NUM_THREADS=1 PYTHONPATH="$2/src" \
            python3 -m pseudospec.cli $cmd >"stdout.$i" 2>"$WORK/stderr-$1/$i") || rc=$?
        echo "$rc" >"$out/exit.$i"
    done
}

run_side ref "$WORK/ref-src"
run_side tree "$ROOT"

if diff -r "$WORK/ref" "$WORK/tree"; then
    echo "byte-identical to ${SHA:0:12}: ${#COMMANDS[@]} commands"
else
    echo "outputs differ from ${SHA:0:12} (ref < > working tree)" >&2
    exit 1
fi
