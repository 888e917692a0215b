//! Relay contraction end to end: `latency_studies` routes on a
//! satellite+city core graph, and its per-pair min/max/reachable folds
//! must equal, bit for bit, a fold of plain full-graph `run_multi`
//! Dijkstra over the same sweep — for both fig2 modes, at Tiny and
//! Bench scale.

use leo_core::experiments::latency::{latency_studies, PairStats};
use leo_core::{ExperimentScale, Mode, StudyContext, TimeSweep};
use leo_graph::DijkstraWorkspace;

const MODES: [Mode; 2] = [Mode::BpOnly, Mode::Hybrid];

/// One pair's fold: (min RTT bits, max RTT bits, reachable count).
type PairFold = (Option<u64>, Option<u64>, usize);

/// Per mode, per pair: the fold of one full-graph early-exit SSSP per
/// source city per instant.
fn full_graph_fold(ctx: &StudyContext) -> Vec<Vec<PairFold>> {
    let n = ctx.pairs.len();
    let mut min = vec![vec![f64::INFINITY; n]; MODES.len()];
    let mut max = vec![vec![f64::NEG_INFINITY; n]; MODES.len()];
    let mut reach = vec![vec![0usize; n]; MODES.len()];
    let mut ws = DijkstraWorkspace::new();
    let mut sweep = TimeSweep::new(ctx, &MODES);
    for &t in &ctx.config.snapshot_times_s {
        for (mi, snap) in sweep.step(t).iter().enumerate() {
            for (src, pair_idxs) in ctx.pairs_by_src() {
                let targets: Vec<u32> = pair_idxs
                    .iter()
                    .map(|&i| snap.city_node(ctx.pairs[i].dst as usize))
                    .collect();
                let view = ws.run_multi(&snap.graph, snap.city_node(*src as usize), None, &targets);
                for &i in pair_idxs {
                    let d = view.dist(snap.city_node(ctx.pairs[i].dst as usize));
                    if d.is_finite() {
                        let rtt = leo_core::rtt_ms(d);
                        min[mi][i] = min[mi][i].min(rtt);
                        max[mi][i] = max[mi][i].max(rtt);
                        reach[mi][i] += 1;
                    }
                }
            }
        }
    }
    (0..MODES.len())
        .map(|mi| {
            (0..n)
                .map(|i| {
                    let r = reach[mi][i];
                    (
                        (r > 0).then(|| min[mi][i].to_bits()),
                        (r > 0).then(|| max[mi][i].to_bits()),
                        r,
                    )
                })
                .collect()
        })
        .collect()
}

fn assert_matches_full_graph(scale: ExperimentScale) {
    let ctx = StudyContext::build(scale.config());
    let studies = latency_studies(&ctx, &MODES, 2);
    let oracle = full_graph_fold(&ctx);
    let mut reached = 0;
    for (mi, (stats, want)) in studies.iter().zip(&oracle).enumerate() {
        assert_eq!(stats.len(), want.len());
        for (pi, (s, w)) in stats.iter().zip(want).enumerate() {
            let got: PairFold = (
                s.min_rtt_ms.map(f64::to_bits),
                s.max_rtt_ms.map(f64::to_bits),
                s.reachable,
            );
            assert_eq!(
                got, *w,
                "{scale:?} {:?} pair {pi} ({:?})",
                MODES[mi], s.pair
            );
            assert_eq!(s.total, ctx.config.snapshot_times_s.len());
            reached += PairStats::variation_ms(s).is_some() as usize;
        }
    }
    assert!(
        reached > 0,
        "{scale:?}: no pair reachable twice — the check is vacuous"
    );
}

#[test]
fn tiny_latency_studies_match_full_graph_dijkstra_bit_for_bit() {
    assert_matches_full_graph(ExperimentScale::Tiny);
}

#[test]
fn bench_latency_studies_match_full_graph_dijkstra_bit_for_bit() {
    assert_matches_full_graph(ExperimentScale::Bench);
}
