#!/bin/sh
# Regenerate every table and figure of the paper at the published
# matrix sizes (UHBR at its memory-gated 0.25 scale) into results/.
# Takes roughly half an hour on a single core; set PJDS_CACHE_DIR to
# re-use generated matrices across runs.
set -eu
cd "$(dirname "$0")/.."
mkdir -p results
go build -o /tmp/pjds-bin/ ./cmd/...
BIN=/tmp/pjds-bin

$BIN/matinfo   -demo                                              > results/fig1_full.txt
$BIN/spmvbench -fig2 -matrix sAMG -scale 1                        > results/fig2_full.txt
$BIN/spmvbench -fig3 -scale 1                                     > results/fig3_full.txt
$BIN/spmvbench -table1 -scale 1                                   > results/table1_full.txt
$BIN/spmvbench -sec2b -scale 1                                    > results/sec2b_full.txt
$BIN/scaling   -timeline -matrix dlr1 -scale 1 -timelinenodes 8   > results/fig4_full.txt
$BIN/scaling   -matrix dlr1 -scale 1 -iters 2                     > results/fig5a_full.txt
$BIN/scaling   -matrix uhbr -scale 1 -iters 2                     > results/fig5b_full.txt
$BIN/scaling   -matrix dlr1 -scale 1 -format pjds -nodes 1,4,16,32 -iters 2 > results/outlook_pjds_full.txt
$BIN/spmvbench -outlook -scale 1                                  > results/outlook_formats_full.txt
$BIN/scaling   -weak -matrix dlr1 -nodes 1,2,4,8,16,32 -basescale 0.03 -iters 2 > results/weak_full.txt
$BIN/spmvbench -ablations -matrix sAMG -scale 0.5                 > results/ablations_full.txt
$BIN/scaling   -ablations -matrix dlr1 -scale 1                  >> results/ablations_full.txt
$BIN/spmvbench -papercheck -scale 1                               > results/papercheck_full.txt

echo "all artefacts written to results/"
