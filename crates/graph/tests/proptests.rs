//! Property-based tests for graph algorithms on random graphs (on
//! `leo_util::check`; 256 cases per property, ≥ the proptest originals).

use leo_graph::*;
use leo_util::check::{check, Gen};
use leo_util::{check_assert, check_assert_eq};

/// Random connected-ish graph: n nodes, a random spanning-ish chain plus
/// random extra edges with random weights.
fn arb_graph(g: &mut Gen) -> Graph {
    let n = g.usize(2..40);
    let extra = g.vec(0..120, |g| (g.u32(0..40), g.u32(0..40), g.f64(0.1..100.0)));
    let mut b = GraphBuilder::new(n);
    // Chain keeps most graphs connected so paths usually exist.
    for i in 1..n as u32 {
        b.add_edge(i - 1, i, 1.0 + (i as f64 % 7.0));
    }
    for (u, v, w) in extra {
        let (u, v) = (u % n as u32, v % n as u32);
        if u != v {
            b.add_edge(u, v, w);
        }
    }
    b.build()
}

/// Bellman-Ford reference implementation.
fn bellman_ford(g: &Graph, source: u32) -> Vec<f64> {
    let n = g.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    dist[source as usize] = 0.0;
    for _ in 0..n {
        let mut changed = false;
        for e in 0..g.num_edges() as u32 {
            let (u, v, w) = g.edge(e);
            if dist[u as usize] + w < dist[v as usize] {
                dist[v as usize] = dist[u as usize] + w;
                changed = true;
            }
            if dist[v as usize] + w < dist[u as usize] {
                dist[u as usize] = dist[v as usize] + w;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

/// Dijkstra agrees with Bellman-Ford on random graphs.
#[test]
fn dijkstra_matches_bellman_ford() {
    check("dijkstra_matches_bellman_ford", |gen| {
        let g = arb_graph(gen);
        let sp = dijkstra(&g, 0);
        let reference = bellman_ford(&g, 0);
        for (v, (&a, &b)) in sp.dist.iter().zip(&reference).enumerate() {
            if a.is_finite() || b.is_finite() {
                check_assert!((a - b).abs() < 1e-9, "node {v}: {a} vs {b}");
            }
        }
        Ok(())
    });
}

/// Extracted paths are well-formed: consecutive nodes joined by the
/// listed edges, weights summing to the reported distance.
#[test]
fn paths_are_well_formed() {
    check("paths_are_well_formed", |gen| {
        let g = arb_graph(gen);
        let target = gen.u32(0..40) % g.num_nodes() as u32;
        let sp = dijkstra(&g, 0);
        if let Some(p) = extract_path(&sp, target) {
            check_assert_eq!(p.nodes.len(), p.edges.len() + 1);
            let mut sum = 0.0;
            for (i, &e) in p.edges.iter().enumerate() {
                let (u, v, w) = g.edge(e);
                let (a, b) = (p.nodes[i], p.nodes[i + 1]);
                check_assert!((u == a && v == b) || (u == b && v == a));
                sum += w;
            }
            check_assert!((sum - p.total_weight).abs() < 1e-9);
        }
        Ok(())
    });
}

/// k-edge-disjoint paths: no edge reuse, non-decreasing weights, and
/// path 0 is the global shortest path.
#[test]
fn disjoint_paths_invariants() {
    check("disjoint_paths_invariants", |gen| {
        let g = arb_graph(gen);
        let k = gen.usize(1..5);
        let target = (g.num_nodes() - 1) as u32;
        let paths = k_edge_disjoint_paths(&g, 0, target, k, None);
        check_assert!(paths.len() <= k);
        let mut used = std::collections::HashSet::new();
        let mut prev = 0.0;
        for p in &paths {
            check_assert!(
                p.total_weight >= prev - 1e-9,
                "weights must be non-decreasing"
            );
            prev = p.total_weight;
            for &e in &p.edges {
                check_assert!(used.insert(e), "edge {e} reused across paths");
            }
        }
        if let Some(first) = paths.first() {
            let sp = dijkstra(&g, 0);
            check_assert!((first.total_weight - sp.dist[target as usize]).abs() < 1e-9);
        }
        Ok(())
    });
}

/// Components partition the nodes, and nodes in one component are
/// mutually reachable per Dijkstra.
#[test]
fn components_consistent_with_reachability() {
    check("components_consistent_with_reachability", |gen| {
        let g = arb_graph(gen);
        let labels = connected_components(&g, None);
        let sp = dijkstra(&g, 0);
        for v in 0..g.num_nodes() {
            check_assert_eq!(labels[v] == labels[0], sp.reached(v as u32));
        }
        let sizes = component_sizes(&labels);
        check_assert_eq!(sizes.iter().sum::<usize>(), g.num_nodes());
        Ok(())
    });
}

/// One warm `DijkstraWorkspace` reused across random graphs and sources
/// (with and without masks, with and without early-exit targets) agrees
/// exactly with fresh-allocation runs.
#[test]
fn workspace_matches_fresh_allocation() {
    let mut ws = DijkstraWorkspace::new();
    check("workspace_matches_fresh_allocation", |gen| {
        let g = arb_graph(gen);
        let n = g.num_nodes() as u32;
        let source = gen.u32(0..40) % n;
        let masked = gen.bool();
        let mask: Vec<bool> = (0..g.num_edges()).map(|_| masked && gen.bool()).collect();
        let target = if gen.bool() {
            Some(gen.u32(0..40) % n)
        } else {
            None
        };
        let fresh = dijkstra_with_mask(&g, source, &mask, target);
        let view = ws.run(&g, source, Some(&mask), target);
        for v in 0..n {
            check_assert_eq!(view.dist(v), fresh.dist[v as usize]);
            check_assert_eq!(view.reached(v), fresh.reached(v));
            check_assert_eq!(
                view.extract_path(v).map(|p| (p.nodes, p.edges)),
                extract_path(&fresh, v).map(|p| (p.nodes, p.edges))
            );
        }
        let materialized = view.to_shortest_paths();
        check_assert_eq!(materialized.dist, fresh.dist);
        check_assert_eq!(materialized.parent_edge, fresh.parent_edge);
        check_assert_eq!(materialized.parent_node, fresh.parent_node);
        Ok(())
    });
}

/// Early-exit runs never report a distance that disagrees with the full
/// run: every node an early-exited run claims reached has the true
/// shortest distance, and the target itself always does.
#[test]
fn early_exit_distances_are_never_stale() {
    check("early_exit_distances_are_never_stale", |gen| {
        let g = arb_graph(gen);
        let n = g.num_nodes() as u32;
        let target = gen.u32(0..40) % n;
        let mask = vec![false; g.num_edges()];
        let early = dijkstra_with_mask(&g, 0, &mask, Some(target));
        let full = dijkstra(&g, 0);
        check_assert!(
            (early.dist[target as usize] - full.dist[target as usize]).abs() < 1e-12
                || (!early.reached(target) && !full.reached(target))
        );
        for v in 0..n {
            if early.reached(v) {
                check_assert!(
                    (early.dist[v as usize] - full.dist[v as usize]).abs() < 1e-12,
                    "node {v}: early {} vs full {}",
                    early.dist[v as usize],
                    full.dist[v as usize]
                );
            }
        }
        Ok(())
    });
}

/// An edge list in insertion order (ids = positions), the form
/// [`mutate_edges`] steps to produce `SptWorkspace::apply` deltas.
fn arb_edge_list(gen: &mut Gen, n: usize) -> Vec<(u32, u32, f64)> {
    let mut edges = Vec::new();
    for i in 1..n as u32 {
        edges.push((i - 1, i, 1.0 + (i as f64 % 7.0)));
    }
    let extra = gen.vec(0..80, |g| (g.u32(0..40), g.u32(0..40), g.f64(0.1..100.0)));
    for (u, v, w) in extra {
        let (u, v) = (u % n as u32, v % n as u32);
        if u != v {
            edges.push((u, v, w));
        }
    }
    edges
}

fn graph_of(n: usize, edges: &[(u32, u32, f64)]) -> Graph {
    let mut b = GraphBuilder::new(n);
    for &(u, v, w) in edges {
        b.add_edge(u, v, w);
    }
    b.build()
}

/// Step an edge list to a next graph version — some edges removed, some
/// reweighted (surviving ids stay compact in insertion order), some
/// added — returning exactly the delta shape `SptWorkspace::apply`
/// consumes.
#[allow(clippy::type_complexity)]
fn mutate_edges(
    gen: &mut Gen,
    n: usize,
    edges: &[(u32, u32, f64)],
) -> (Vec<(u32, u32, f64)>, Vec<EdgeId>, Vec<(EdgeId, EdgeId)>) {
    let mut next = Vec::new();
    let mut removed = Vec::new();
    let mut reweighted = Vec::new();
    for (old_id, &(u, v, w)) in edges.iter().enumerate() {
        if gen.u32(0..100) < 15 {
            removed.push(old_id as EdgeId);
        } else {
            let w = if gen.u32(0..100) < 30 {
                gen.f64(0.1..100.0)
            } else {
                w
            };
            reweighted.push((old_id as EdgeId, next.len() as EdgeId));
            next.push((u, v, w));
        }
    }
    let added = gen.vec(0..20, |g| (g.u32(0..40), g.u32(0..40), g.f64(0.1..100.0)));
    for (u, v, w) in added {
        let (u, v) = (u % n as u32, v % n as u32);
        if u != v {
            next.push((u, v, w));
        }
    }
    (next, removed, reweighted)
}

/// `SptWorkspace::apply_for_targets` is bitwise-equivalent to the full
/// drain for every queried target (distances and extracted paths), its
/// surviving labels are all final, and a subsequent *full* repair on the
/// same workspace recovers the complete tree bit-for-bit — the early
/// exit never leaks half-settled state into later deltas.
#[test]
fn spt_targeted_repair_matches_full_drain() {
    check("spt_targeted_early_exit_equivalence", |gen| {
        let n = gen.usize(2..40);
        let e0 = arb_edge_list(gen, n);
        let g0 = graph_of(n, &e0);
        let (e1, removed1, rew1) = mutate_edges(gen, n, &e0);
        let g1 = graph_of(n, &e1);
        let (e2, removed2, rew2) = mutate_edges(gen, n, &e1);
        let g2 = graph_of(n, &e2);
        let src = gen.u32(0..40) % n as u32;
        let targets = gen.vec(1..6, |g| g.u32(0..40) % n as u32);

        // Identical deterministic starting trees.
        let mut full = SptWorkspace::new();
        let mut fast = SptWorkspace::new();
        full.rebuild(&g0, src);
        fast.rebuild(&g0, src);

        full.apply(&g1, &removed1, &rew1);
        fast.apply_for_targets(&g1, &removed1, &rew1, &targets);
        for &t in &targets {
            check_assert_eq!(fast.dist(t).to_bits(), full.dist(t).to_bits());
            match (fast.extract_path(t), full.extract_path(t)) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    check_assert_eq!(a.nodes, b.nodes);
                    check_assert_eq!(a.edges, b.edges);
                    check_assert_eq!(a.total_weight.to_bits(), b.total_weight.to_bits());
                }
                (a, b) => check_assert!(false, "target {t}: {a:?} vs {b:?}"),
            }
        }
        // Labels the early exit kept are final (match the full drain);
        // discarded ones read as unreached, never as stale values.
        for v in 0..n as u32 {
            let d = fast.dist(v);
            if d.is_finite() {
                check_assert_eq!(d.to_bits(), full.dist(v).to_bits());
            }
        }

        // Second delta, applied fully to both: complete bitwise recovery.
        full.apply(&g2, &removed2, &rew2);
        fast.apply(&g2, &removed2, &rew2);
        let fresh = dijkstra(&g2, src);
        for v in 0..n {
            check_assert_eq!(fast.dist(v as u32).to_bits(), full.dist(v as u32).to_bits());
            check_assert_eq!(fast.dist(v as u32).to_bits(), fresh.dist[v].to_bits());
        }
        check_assert_eq!(fast.parent_edges(), full.parent_edges());
        check_assert_eq!(fast.parent_nodes(), full.parent_nodes());
        Ok(())
    });
}

/// Deterministic witness that the early exit actually fires: on a long
/// uniform chain with the target two hops from the source, the drain
/// must stop within the first buckets and discard the far tail to the
/// unreached shape (a full drain would keep every label finite).
#[test]
fn spt_targeted_repair_discards_far_labels() {
    let n = 2000usize;
    let chain = |w0: f64| {
        let mut b = GraphBuilder::new(n);
        b.add_edge(0, 1, w0);
        for i in 2..n as u32 {
            b.add_edge(i - 1, i, 10.0);
        }
        b.build()
    };
    let g0 = chain(10.0);
    let g1 = chain(5.0);
    let rew: Vec<(EdgeId, EdgeId)> = (0..g0.num_edges() as EdgeId).map(|e| (e, e)).collect();

    let mut fast = SptWorkspace::new();
    fast.rebuild(&g0, 0);
    fast.apply_for_targets(&g1, &[], &rew, &[1]);
    assert_eq!(fast.dist(1), 5.0);
    assert!(
        !fast.dist(n as u32 - 1).is_finite(),
        "tail label survived — the early exit never fired"
    );

    // The truncated workspace still repairs back to a full exact tree.
    fast.apply(&g0, &[], &rew);
    let fresh = dijkstra(&g0, 0);
    for v in 0..n {
        assert_eq!(fast.dist(v as u32).to_bits(), fresh.dist[v].to_bits());
    }
}

/// Yen's k-shortest-paths on equal-weight grid graphs — the worst case
/// for spur-path tie-breaking, since every same-hop-count path costs
/// *exactly* the same (1.0-weight edges sum without rounding). The
/// warm-workspace variant must return byte-identical paths in the same
/// order as the workspace-free one, the ranking must be deterministic
/// (re-running gives the identical list), and the list must be sorted,
/// loopless, and duplicate-free.
#[test]
fn yen_tie_breaking_deterministic_on_equal_weight_grids() {
    let mut ws = DijkstraWorkspace::new();
    check("yen_equal_weight_grid_equivalence", |gen| {
        let rows = gen.usize(2..5);
        let cols = gen.usize(2..6);
        let n = rows * cols;
        let mut b = GraphBuilder::new(n);
        for r in 0..rows {
            for c in 0..cols {
                let i = (r * cols + c) as u32;
                if c + 1 < cols {
                    b.add_edge(i, i + 1, 1.0);
                }
                if r + 1 < rows {
                    b.add_edge(i, i + cols as u32, 1.0);
                }
            }
        }
        let g = b.build();
        let src = gen.u32(0..n as u32);
        let dst = (n - 1) as u32;
        let k = gen.usize(1..8);
        let fresh = yen_k_shortest(&g, src, dst, k);
        let warm = yen_k_shortest_with(&g, src, dst, k, &mut ws);
        check_assert_eq!(fresh.len(), warm.len(), "warm vs fresh count");
        for (i, (a, b)) in fresh.iter().zip(&warm).enumerate() {
            check_assert_eq!(a.nodes, b.nodes, "path {i} nodes");
            check_assert_eq!(a.edges, b.edges, "path {i} edges");
            check_assert_eq!(
                a.total_weight.to_bits(),
                b.total_weight.to_bits(),
                "path {i} weight bits"
            );
        }
        // Re-running must reproduce the identical ranking (no hidden
        // iteration-order dependence among the tied candidates).
        let again = yen_k_shortest(&g, src, dst, k);
        check_assert_eq!(fresh.len(), again.len(), "rerun count");
        for (a, b) in fresh.iter().zip(&again) {
            check_assert_eq!(a.nodes, b.nodes, "rerun nodes");
        }
        let mut seen = std::collections::HashSet::new();
        let mut prev = 0.0;
        for p in &fresh {
            check_assert!(p.total_weight >= prev, "ranking must be sorted");
            prev = p.total_weight;
            check_assert!(seen.insert(p.nodes.clone()), "duplicate path");
            let mut uniq = p.nodes.clone();
            uniq.sort_unstable();
            uniq.dedup();
            check_assert_eq!(uniq.len(), p.nodes.len(), "path must be loopless");
        }
        if src != dst {
            check_assert!(!fresh.is_empty(), "grid is connected");
        }
        Ok(())
    });
}

/// Max-flow from 0 to n-1 is at least the bottleneck of the shortest
/// path (one augmenting path exists) and at most the degree-capacity
/// bound of either endpoint.
#[test]
fn maxflow_bounds() {
    check("maxflow_bounds", |gen| {
        let g = arb_graph(gen);
        let n = g.num_nodes();
        let t = (n - 1) as u32;
        let mut net = FlowNetwork::new(n);
        let mut cap_s = 0.0;
        let mut cap_t = 0.0;
        for e in 0..g.num_edges() as u32 {
            let (u, v, w) = g.edge(e);
            net.add_undirected(u, v, w);
            if u == 0 || v == 0 {
                cap_s += w;
            }
            if u == t || v == t {
                cap_t += w;
            }
        }
        let f = max_flow(&mut net, 0, t);
        check_assert!(f <= cap_s + 1e-6);
        check_assert!(f <= cap_t + 1e-6);
        // The chain edge (t-1, t) guarantees positive flow.
        check_assert!(f > 0.0);
        Ok(())
    });
}

/// A random bent-pipe-shaped graph: `sats` satellites (ids first), then
/// `cities`, then transit nodes that link only to core nodes. Leg
/// weights are drawn from a small palette with exact repeats and
/// 1-ulp neighbours, so equal and near-equal relay sums are common;
/// transit nodes get 0, 1 or several neighbours, and some satellites
/// stay isolated (disconnected parts). Returns the graph and its core
/// size.
fn arb_bent_pipe(gen: &mut Gen) -> (Graph, usize) {
    arb_bent_pipe_with(gen, false)
}

/// [`arb_bent_pipe`], plus (if `bundle`) a bundle of extra transit nodes
/// all bridging satellites 0 and 1 with palette legs, so one satellite
/// pair has many equal and near-equal relays. `bundle = false` draws
/// nothing extra, so it replays the case streams of `arb_bent_pipe`.
fn arb_bent_pipe_with(gen: &mut Gen, bundle: bool) -> (Graph, usize) {
    let sats = gen.usize(1..12);
    let cities = gen.usize(1..6);
    let transit = gen.usize(0..40);
    let core = sats + cities;
    let mut palette = gen.vec(1..6, |g| g.f64(0.001..0.02));
    for i in 0..palette.len() {
        palette.push(f64::from_bits(palette[i].to_bits() + 1));
    }
    let leg = |g: &mut Gen| palette[g.usize(0..palette.len())];
    let bundled = if bundle && sats >= 2 {
        gen.usize(2..8)
    } else {
        0
    };
    let n = core + transit + bundled;
    let mut b = GraphBuilder::new(n);
    for r in n - bundled..n {
        let (a, w) = (leg(gen), leg(gen));
        b.add_edge(r as u32, 0, a);
        b.add_edge(r as u32, 1, w);
    }
    // ISLs among a prefix of the satellites (the rest may be isolated).
    for _ in 0..gen.usize(0..2 * sats) {
        let (u, v) = (gen.u32(0..sats as u32), gen.u32(0..sats as u32));
        if u != v {
            let w = leg(gen);
            b.add_edge(u, v, w);
        }
    }
    for c in sats..core {
        for _ in 0..gen.usize(0..3) {
            let s = gen.u32(0..sats as u32);
            let w = leg(gen);
            b.add_edge(c as u32, s, w);
        }
    }
    for r in core..n - bundled {
        for _ in 0..gen.usize(0..4) {
            // Mostly satellites, sometimes a city: the contraction must
            // not assume what a core node is.
            let to = if gen.u32(0..8) == 0 {
                gen.u32(sats as u32..core as u32)
            } else {
                gen.u32(0..sats as u32)
            };
            let w = leg(gen);
            b.add_edge(r as u32, to, w);
        }
    }
    (b.build(), core)
}

/// Relay contraction is exact: for every source and target set, a
/// contracted run reports the same `dist().to_bits()` and the same
/// reached flag as full-graph `run_multi` for every target, and — on
/// runs without early exit — for every core node.
#[test]
fn contracted_runs_match_full_graph_bit_for_bit() {
    let mut core = CoreGraph::new();
    let mut full_ws = DijkstraWorkspace::new();
    let mut core_ws = DijkstraWorkspace::new();
    check("contracted_runs_match_full_graph_bit_for_bit", |gen| {
        let (g, n_core) = arb_bent_pipe(gen);
        core.build_from(&g, n_core);
        check_assert!(core.is_exact());
        for source in 0..n_core as u32 {
            let targets: Vec<u32> = if gen.bool() {
                Vec::new()
            } else {
                gen.vec(1..4, |g| g.u32(0..n_core as u32))
            };
            let full = full_ws.run_multi(&g, source, None, &targets);
            let view = core_ws.run_contracted(&core, &g, source, &targets);
            let check_nodes: Vec<u32> = if targets.is_empty() {
                (0..n_core as u32).collect()
            } else {
                targets.clone()
            };
            for v in check_nodes {
                check_assert_eq!(view.reached(v), full.reached(v), "src {source} node {v}");
                check_assert_eq!(
                    view.dist(v).to_bits(),
                    full.dist(v).to_bits(),
                    "src {source} node {v}: {} vs {}",
                    view.dist(v),
                    full.dist(v)
                );
            }
        }
        check_assert_eq!(core_ws.contract_fallbacks(), 0);
        Ok(())
    });
}

/// Near-tie relays: many transit nodes bridge the same two satellites
/// with legs `(a, T − a)`, so every relay's leg sum lies within a few
/// ulps of `T` while the rounded path sums `fl(fl(d + a) + b)` still
/// differ. The contracted distance must equal the full graph's, bit
/// for bit, whichever relay wins after rounding.
#[test]
fn contracted_runs_match_full_graph_on_near_tie_relays() {
    let mut core = CoreGraph::new();
    let mut ws = DijkstraWorkspace::new();
    check(
        "contracted_runs_match_full_graph_on_near_tie_relays",
        |gen| {
            let relays = gen.usize(2..8);
            let total = gen.f64(0.005..0.03);
            // Sats 0 and 1, source city 2 on sat 0, target city 3 on sat 1.
            let mut b = GraphBuilder::new(4 + relays);
            let up = gen.f64(0.001..0.02);
            b.add_edge(2, 0, up);
            let down = gen.f64(0.001..0.02);
            b.add_edge(3, 1, down);
            for r in 0..relays as u32 {
                let a = gen.f64(0.0..total);
                let bits = (total - a).to_bits() + gen.u64(0..3) - 1;
                b.add_edge(4 + r, 0, a);
                b.add_edge(4 + r, 1, f64::from_bits(bits));
            }
            let g = b.build();
            core.build_from(&g, 4);
            let full = ws.run_multi(&g, 2, None, &[3]).dist(3);
            let got = ws.run_contracted(&core, &g, 2, &[3]).dist(3);
            check_assert_eq!(got.to_bits(), full.to_bits(), "{got} vs {full}");
            Ok(())
        },
    );
}

/// Contracted k edge-disjoint routing is the full graph's: for k = 1..4
/// and every core source (one random core target each, plus the bundled
/// pair 0 → 1), `k_edge_disjoint_paths_contracted` returns the very
/// paths `k_edge_disjoint_paths_with` does — nodes, edges and
/// `total_weight` bits. Each later path runs under the earlier paths'
/// mask, so the bundle's minimizing relay is masked; half the cases
/// also pre-disable random edges.
#[test]
fn contracted_disjoint_paths_match_full_graph_exactly() {
    let mut core = CoreGraph::new();
    let mut full_ws = DijkstraWorkspace::new();
    let mut core_ws = DijkstraWorkspace::new();
    check(
        "contracted_disjoint_paths_match_full_graph_exactly",
        |gen| {
            let (g, n_core) = arb_bent_pipe_with(gen, true);
            core.build_from(&g, n_core);
            check_assert!(core.is_exact());
            let disabled: Option<Vec<bool>> = gen
                .bool()
                .then(|| (0..g.num_edges()).map(|_| gen.u32(0..8) == 0).collect());
            let mut queries: Vec<(u32, u32)> = (0..n_core as u32)
                .map(|s| (s, gen.u32(0..n_core as u32)))
                .collect();
            queries.push((0, 1));
            for (s, t) in queries {
                for k in 1..=4 {
                    let d = disabled.as_deref();
                    let want = k_edge_disjoint_paths_with(&g, s, t, k, d, &mut full_ws);
                    let got = k_edge_disjoint_paths_contracted(&core, &g, s, t, k, d, &mut core_ws);
                    check_assert_eq!(got.len(), want.len(), "{s} -> {t}, k {k}");
                    for (p, q) in got.iter().zip(&want) {
                        check_assert_eq!(&p.nodes, &q.nodes, "{s} -> {t}, k {k}");
                        check_assert_eq!(&p.edges, &q.edges, "{s} -> {t}, k {k}");
                        check_assert_eq!(
                            p.total_weight.to_bits(),
                            q.total_weight.to_bits(),
                            "{s} -> {t}, k {k}"
                        );
                    }
                }
            }
            check_assert_eq!(core_ws.contract_fallbacks(), 0);
            Ok(())
        },
    );
}

/// A masked minimizer next to the margin: relay 4 is the only relay of
/// satellites 0 and 1 at the pair's minimum leg sum `m`, and its uplink
/// is pre-disabled; every other relay's sum lies within 3% of one
/// margin above `m`, so some were pruned from the shared core row, and
/// all lie within one rounding of each other. The source city's long
/// uplink puts the satellites near `CORE_D_MAX`, where one rounding of
/// the path sum is worth several ulps of `m`, so a pruned relay can win.
/// Contracted k = 1, 2 paths must still be the full graph's.
#[test]
fn contracted_paths_match_full_graph_past_a_masked_minimizer() {
    let mut core = CoreGraph::new();
    let mut full_ws = DijkstraWorkspace::new();
    let mut core_ws = DijkstraWorkspace::new();
    check(
        "contracted_paths_match_full_graph_past_a_masked_minimizer",
        |gen| {
            let relays = gen.usize(3..10);
            let m = gen.f64(0.005..0.03);
            let margin = 8.0 * (f64::EPSILON / 2.0) * (CORE_D_MAX + m);
            // Sats 0 and 1, source city 2 on sat 0, target city 3 on sat 1.
            let mut b = GraphBuilder::new(4 + relays);
            let up = gen.f64(0.3..0.95);
            b.add_edge(2, 0, up);
            let down = gen.f64(0.001..0.02);
            b.add_edge(3, 1, down);
            let mut minimizer_leg = 0;
            for r in 0..relays as u32 {
                let sum = if r == 0 {
                    m
                } else {
                    m + margin * gen.f64(0.97..1.03)
                };
                let a = sum * gen.f64(0.1..0.9);
                let e = b.add_edge(4 + r, 0, a);
                b.add_edge(4 + r, 1, sum - a);
                if r == 0 {
                    minimizer_leg = e;
                }
            }
            let g = b.build();
            core.build_from(&g, 4);
            let mut disabled = vec![false; g.num_edges()];
            disabled[minimizer_leg as usize] = true;
            for k in 1..=2 {
                let d = Some(disabled.as_slice());
                let want = k_edge_disjoint_paths_with(&g, 2, 3, k, d, &mut full_ws);
                let got = k_edge_disjoint_paths_contracted(&core, &g, 2, 3, k, d, &mut core_ws);
                check_assert_eq!(got, want, "k {k}");
            }
            check_assert_eq!(core_ws.contract_fallbacks(), 0);
            Ok(())
        },
    );
}
