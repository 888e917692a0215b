//! Relay contraction end to end, at Tiny and Bench scale:
//!
//! * `latency_studies` routes on a satellite+city core graph, and its
//!   per-pair min/max/reachable folds must equal, bit for bit, a fold of
//!   plain full-graph `run_multi` Dijkstra over the same sweep — for
//!   both fig2 modes;
//! * `route_pair_paths` routes fig4's k edge-disjoint paths on the core
//!   graph, and its paths must equal full-graph
//!   `k_edge_disjoint_paths_with`'s edge for edge — for all four
//!   (mode, k) combos — and so must `throughput` and
//!   `isl_capacity_sweep` results solved from those paths.

use leo_core::experiments::latency::{latency_studies, PairStats};
use leo_core::experiments::throughput::{
    isl_capacity_sweep, route_pair_paths, throughput, throughput_from_path_edges,
};
use leo_core::{ExperimentScale, Mode, NetworkSnapshot, StudyContext, TimeSweep};
use leo_flow::FlowWorkspace;
use leo_graph::{k_edge_disjoint_paths_with, DijkstraWorkspace};

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

/// fig4's (mode, k) combos.
const COMBOS: [(Mode, usize); 4] = [
    (Mode::BpOnly, 1),
    (Mode::BpOnly, 4),
    (Mode::Hybrid, 1),
    (Mode::Hybrid, 4),
];

/// Per pair: the edge lists of full-graph k edge-disjoint routing.
fn full_graph_paths(ctx: &StudyContext, snap: &NetworkSnapshot, k: usize) -> Vec<Vec<Vec<u32>>> {
    let mut ws = DijkstraWorkspace::new();
    ctx.pairs
        .iter()
        .map(|pair| {
            let (s, t) = (
                snap.city_node(pair.src as usize),
                snap.city_node(pair.dst as usize),
            );
            k_edge_disjoint_paths_with(&snap.graph, s, t, k, None, &mut ws)
                .into_iter()
                .map(|p| p.edges)
                .collect()
        })
        .collect()
}

fn assert_throughput_matches_full_graph(scale: ExperimentScale) {
    let ctx = StudyContext::build(scale.config());
    let (t, isl) = (0.0, ctx.config.network.isl_gbps);
    let mut ws = FlowWorkspace::new();
    let mut multipath = 0;
    let mut hybrid_k4 = Vec::new();
    for (mode, k) in COMBOS {
        let snap = ctx.snapshot(t, mode);
        let want = full_graph_paths(&ctx, &snap, k);
        let got: Vec<Vec<Vec<u32>>> = route_pair_paths(&ctx, &snap, k)
            .into_iter()
            .map(|ps| ps.into_iter().map(|p| p.edges).collect())
            .collect();
        assert_eq!(got, want, "{scale:?} {mode:?} k={k}: paths differ");
        multipath += want.iter().filter(|ps| ps.len() > 1).count();

        let r = throughput(&ctx, t, mode, k);
        let w = throughput_from_path_edges(&ctx, &snap, &want, isl, &mut ws);
        assert_eq!(
            (r.aggregate_gbps.to_bits(), r.routed_pairs, r.flows),
            (w.aggregate_gbps.to_bits(), w.routed_pairs, w.flows),
            "{scale:?} {mode:?} k={k}: throughput differs"
        );
        if (mode, k) == (Mode::Hybrid, 4) {
            hybrid_k4 = want;
        }
    }
    assert!(multipath > 0, "{scale:?}: no pair got a second path");

    // fig5: BP reference, then hybrid re-solved per ISL capacity ratio.
    let ratios = [0.5, 1.0, 3.0];
    let gt = ctx.config.network.gt_link_gbps;
    let rows = isl_capacity_sweep(&ctx, t, 4, &ratios);
    let bp = ctx.snapshot(t, Mode::BpOnly);
    let bp_paths = full_graph_paths(&ctx, &bp, 4);
    let hybrid = ctx.snapshot(t, Mode::Hybrid);
    let mut want = vec![(
        0.0,
        throughput_from_path_edges(&ctx, &bp, &bp_paths, isl, &mut ws),
    )];
    for r in ratios {
        want.push((
            r,
            throughput_from_path_edges(&ctx, &hybrid, &hybrid_k4, gt * r, &mut ws),
        ));
    }
    let want: Vec<(u64, u64)> = want
        .iter()
        .map(|(r, w)| (r.to_bits(), w.aggregate_gbps.to_bits()))
        .collect();
    let got: Vec<(u64, u64)> = rows
        .iter()
        .map(|(r, g)| (r.to_bits(), g.to_bits()))
        .collect();
    assert_eq!(got, want, "{scale:?}: isl_capacity_sweep rows differ");
}

#[test]
fn tiny_throughput_routing_matches_full_graph_paths_exactly() {
    assert_throughput_matches_full_graph(ExperimentScale::Tiny);
}

#[test]
fn bench_throughput_routing_matches_full_graph_paths_exactly() {
    assert_throughput_matches_full_graph(ExperimentScale::Bench);
}
