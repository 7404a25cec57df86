#!/usr/bin/env bash
# Run one report-writing magnnet command serially and through a
# two-worker process pool, and check that the two reports agree in every
# column but the last, the allocation wall time.
#
#     tools/serial_vs_pooled.sh OUT COMMAND [ARG...]
#
# runs `COMMAND ARG... --out OUT-serial`, then `COMMAND ARG... --parallel
# 2 --out OUT-parallel`, and diffs OUT-serial/report.csv against
# OUT-parallel/report.csv with each line's last field cut off.  It exits
# non-zero if either run fails or the reports differ.
set -e
out=$1
shift
"$@" --out "$out-serial"
"$@" --parallel 2 --out "$out-parallel"
diff <(sed 's/,[^,]*$//' "$out-serial/report.csv") \
     <(sed 's/,[^,]*$//' "$out-parallel/report.csv")
