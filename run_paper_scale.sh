#!/bin/sh
# Regenerates the headline figures at full paper scale (1000 cities,
# 5000 pairs, 96 snapshots, 0.5 deg relay grid). On 2 cores fig2 takes
# ~25 s and fig4 ~15 s (both route on relay-contracted core graphs).
set -x
echo "################ fig2_latency PAPER"
./target/release/fig2_latency --scale paper
echo "################ fig4_throughput PAPER"
./target/release/fig4_throughput --scale paper --disconnected
echo PAPER_RUNS_DONE
