#!/bin/sh
# The byte-identity list of ROADMAP.md, written by the source tree TREE
# (its own src/ and demos/) into the directory DIR, one file per output:
#   run-1..7.json      seven `run` reports: L1 and L2 at their defaults, Q1
#                      --derivative 2 --dt 0.1, VDP-cut --dt 0.1, NF1 --m 16
#                      --dt 0.1, L1 --derivative 2 --dt 0.1, VDP-cut at its
#                      defaults
#   reduce.json/.csv   `reduce --system L2 --eps 0.1 --point 1.0,0.0`
#   slow-manifold.*    `slow-manifold --system Q1 --derivative 2 --dt 0.1`
#   certify-nf1.out    the stdout of `certify --system NF1 --m 16 --dt 0.1`
#   demo_*.out         the stdout of the four demos
#   fail-1..6.json     the `run` reports of six failures, each of which must
#                      exit 2: the five budget failures, and Q1 at --dt 5,
#                      outside RK4's stability region for Q1's fast rate, so
#                      certify raises NoDecayError and the run still writes
#                      its report
# Exits 1 on the first command that fails otherwise.  Two trees (or two hash
# seeds) agree when every file of one DIR equals its namesake in the other.
#
# Usage: sh .github/outputs.sh TREE DIR
set -u
tree=$1
out=$2
mkdir -p "$out"
slowfast() { PYTHONPATH="$tree/src" python -m slowfast "$@"; }

i=0
for args in "--system L1" "--system L2" "--system Q1 --derivative 2 --dt 0.1" \
            "--system VDP-cut --dt 0.1" "--system NF1 --m 16 --dt 0.1" \
            "--system L1 --derivative 2 --dt 0.1" "--system VDP-cut"; do
  i=$((i + 1))
  slowfast run $args --out "$out/run-$i.json" > /dev/null || exit 1
done
slowfast reduce --system L2 --eps 0.1 --point 1.0,0.0 --out "$out/reduce" > /dev/null || exit 1
slowfast slow-manifold --system Q1 --derivative 2 --dt 0.1 --out "$out/slow-manifold" \
  > /dev/null || exit 1
slowfast certify --system NF1 --m 16 --dt 0.1 > "$out/certify-nf1.out" || exit 1
for demo in demo_slow_manifold demo_reduction demo_banach_discretization demo_certificates; do
  PYTHONPATH="$tree/src" python "$tree/demos/$demo.py" > "$out/$demo.out" || exit 1
done
i=0
for args in "--system Q1 --dt 0.1 --override rho=0.5" \
            "--system L1 --dt 0.1 --grid 21 --derivative 2 --override N1=0.12 --override rho=3" \
            "--system L2 --dt 0.1 --override K=20 --override mu=1" \
            "--system L1 --dt 0.1 --grid 21 --override N1=10" \
            "--system VDP-cut --eps -1 --dt 0.1" \
            "--system Q1 --dt 5"; do
  i=$((i + 1))
  code=0
  slowfast run $args --out "$out/fail-$i.json" > /dev/null || code=$?
  [ "$code" -eq 2 ] || { echo "run $args: exit $code, want 2"; exit 1; }
done
