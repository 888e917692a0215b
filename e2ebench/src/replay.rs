//! The replay pass: each workload re-done through the public layer
//! calls that its entry point makes, with every call timed here.
//!
//! The replay follows the entry points step for step — the same
//! instant chunking as `StudyContext::sweep_fold` (one contiguous chunk
//! per thread), the same `TimeSweep` stepping, the same routing calls
//! and the same flow-simulation assembly — so its outputs, and hence
//! its digest, are bit-identical to the entry pass.

use crate::checks::{self, Checks};
use crate::workloads::{
    fractions_digest, throughput_digest, LatencyOut, ModeLatency, ThroughputRow, Workload,
    LATENCY_MODES, THROUGHPUT_COMBOS, THROUGHPUT_T_S,
};
use crate::{cpu_seconds, Report};
use leo_core::experiments::throughput::disconnected_fraction_of;
use leo_core::par::parallel_map_stats;
use leo_core::{Mode, NetworkSnapshot, StudyContext, TimeSweep};
use leo_flow::{FlowSim, FlowWorkspace};
use leo_graph::{k_edge_disjoint_paths_with, with_thread_workspace, DijkstraWorkspace};
use leo_util::telemetry::now_ns;

/// Nanoseconds since `t0`, a reading of the telemetry clock.
fn ns(t0: u64) -> u64 {
    now_ns() - t0
}

/// Time attributed to each layer, and the work counted there.
#[derive(Default)]
struct Trace {
    /// Wall time of the replayed work (checks excluded), ns.
    wall_ns: u64,
    threads: usize,
    /// Thread time spent on the workload, summed over threads, ns.
    busy_ns: u64,
    sweep_ns: u64,
    step_ns: Vec<u64>,
    nodes: usize,
    edges: usize,
    sssp_calls: u64,
    sssp_targets: u64,
    sssp_ns: u64,
    disjoint_calls: u64,
    disjoint_ns: u64,
    paths_asked: u64,
    solves: u64,
    alloc_ns: u64,
    flows: u64,
    saturated_links: u64,
    components_calls: u64,
    components_ns: u64,
    fold_ns: u64,
}

impl Trace {
    fn absorb(&mut self, o: Trace) {
        self.busy_ns += o.busy_ns;
        self.sweep_ns += o.sweep_ns;
        self.step_ns.extend(o.step_ns);
        self.nodes = self.nodes.max(o.nodes);
        self.edges = self.edges.max(o.edges);
        self.sssp_calls += o.sssp_calls;
        self.sssp_targets += o.sssp_targets;
        self.sssp_ns += o.sssp_ns;
        self.components_calls += o.components_calls;
        self.components_ns += o.components_ns;
        self.fold_ns += o.fold_ns;
    }

    fn saw(&mut self, snap: &NetworkSnapshot) {
        self.nodes = self.nodes.max(snap.graph.num_nodes());
        self.edges = self.edges.max(snap.graph.num_edges());
    }

    /// The per-layer table, in print order. Layer times are given as a
    /// share of the summed thread-busy time, so a layer's share reads
    /// the same way on every workload, including 0 where a workload
    /// never calls it.
    fn layers(&self, ctxs: &[StudyContext]) -> Vec<(&'static str, f64)> {
        let busy = self.busy_ns.max(1) as f64;
        let pct = |v: u64| 100.0 * v as f64 / busy;
        let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let mut steps = self.step_ns.clone();
        steps.sort_unstable();
        let q = |p: f64| {
            if steps.is_empty() {
                0.0
            } else {
                let i = ((steps.len() - 1) as f64 * p).round() as usize;
                steps[i] as f64 / 1e6
            }
        };
        let attributed = self.sweep_ns
            + self.sssp_ns
            + self.disjoint_ns
            + self.alloc_ns
            + self.components_ns
            + self.fold_ns;
        let thread_wall = (self.threads as u64 * self.wall_ns).max(1) as f64;
        vec![
            (
                "setup.relays",
                ctxs.iter().map(|c| c.ground.relays.len()).sum::<usize>() as f64,
            ),
            (
                "setup.sources",
                ctxs.iter().map(|c| c.pairs_by_src().len()).sum::<usize>() as f64,
            ),
            ("sweep.steps", self.step_ns.len() as f64),
            ("sweep.busy_s", self.sweep_ns as f64 / 1e9),
            ("sweep.busy_pct", pct(self.sweep_ns)),
            ("sweep.step_p50_ms", q(0.5)),
            ("sweep.step_p90_ms", q(0.9)),
            ("sweep.nodes", self.nodes as f64),
            ("sweep.edges", self.edges as f64),
            ("route.sssp.calls", self.sssp_calls as f64),
            ("route.sssp.busy_pct", pct(self.sssp_ns)),
            (
                "route.sssp.targets_per_call",
                per(self.sssp_targets, self.sssp_calls),
            ),
            ("route.disjoint.calls", self.disjoint_calls as f64),
            ("route.disjoint.busy_pct", pct(self.disjoint_ns)),
            (
                "route.disjoint.path_yield",
                per(self.flows, self.paths_asked),
            ),
            ("alloc.maxmin.solves", self.solves as f64),
            ("alloc.maxmin.busy_pct", pct(self.alloc_ns)),
            ("alloc.maxmin.flows", self.flows as f64),
            ("alloc.maxmin.saturated_links", self.saturated_links as f64),
            ("components.calls", self.components_calls as f64),
            ("components.busy_pct", pct(self.components_ns)),
            ("fold.busy_s", self.fold_ns as f64 / 1e9),
            ("fold.busy_pct", pct(self.fold_ns)),
            ("par.threads", self.threads as f64),
            ("par.idle_frac", 1.0 - self.busy_ns as f64 / thread_wall),
            ("trace.coverage", attributed as f64 / busy),
            // Per-call costs for the human-readable table.
            (
                "route.sssp.us_per_call",
                per(self.sssp_ns, self.sssp_calls) / 1e3,
            ),
            (
                "route.disjoint.us_per_call",
                per(self.disjoint_ns, self.disjoint_calls) / 1e3,
            ),
        ]
    }
}

/// Contiguous instant chunks, one per thread — `sweep_fold`'s split.
fn chunks(n: usize, threads: usize) -> Vec<(usize, usize)> {
    let threads = threads.min(n).max(1);
    let chunk = n.div_ceil(threads);
    (0..n)
        .step_by(chunk)
        .map(|lo| (lo, (lo + chunk).min(n)))
        .collect()
}

/// Run `work` on each chunk on its own scoped thread, returning the
/// per-chunk results in chunk order.
fn per_chunk<A: Send>(
    ranges: &[(usize, usize)],
    work: impl Fn(usize, usize) -> (A, Trace) + Sync,
) -> Vec<(A, Trace)> {
    std::thread::scope(|s| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|&(lo, hi)| {
                let work = &work;
                s.spawn(move || {
                    let t0 = now_ns();
                    let (a, mut tr) = work(lo, hi);
                    tr.busy_ns = ns(t0);
                    (a, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// `latency_studies`: per chunk one delta-tracking sweep over both
/// modes, one early-exit SSSP per source city per mode per instant, a
/// per-pair min/max/reachable fold, and chunk folds merged in order.
fn latency(ctx: &StudyContext, threads: usize, tr: &mut Trace) -> LatencyOut {
    let times = &ctx.config.snapshot_times_s;
    let n_pairs = ctx.pairs.len();
    let ranges = chunks(times.len(), threads);
    tr.threads = ranges.len();
    let fresh = || {
        (0..LATENCY_MODES.len())
            .map(|_| {
                (
                    vec![f64::INFINITY; n_pairs],
                    vec![f64::NEG_INFINITY; n_pairs],
                    vec![0usize; n_pairs],
                )
            })
            .collect::<Vec<_>>()
    };
    let parts = per_chunk(&ranges, |lo, hi| {
        let mut t = Trace::default();
        let mut ws = DijkstraWorkspace::new();
        let mut acc = fresh();
        let mut targets = Vec::new();
        let t0 = now_ns();
        let mut sweep = TimeSweep::new(ctx, &LATENCY_MODES);
        t.sweep_ns += ns(t0);
        for &ts in &times[lo..hi] {
            let t0 = now_ns();
            let (snaps, _deltas) = sweep.step_with_deltas(ts);
            let step = ns(t0);
            t.sweep_ns += step;
            t.step_ns.push(step);
            for (mi, snap) in snaps.iter().enumerate() {
                t.saw(snap);
                let mut rtts = vec![None; n_pairs];
                for (src, pair_idxs) in ctx.pairs_by_src() {
                    targets.clear();
                    targets.extend(
                        pair_idxs
                            .iter()
                            .map(|&i| snap.city_node(ctx.pairs[i].dst as usize)),
                    );
                    let t0 = now_ns();
                    let view =
                        ws.run_multi(&snap.graph, snap.city_node(*src as usize), None, &targets);
                    for &i in pair_idxs {
                        let d = view.dist(snap.city_node(ctx.pairs[i].dst as usize));
                        if d.is_finite() {
                            rtts[i] = Some(leo_core::rtt_ms(d));
                        }
                    }
                    t.sssp_ns += ns(t0);
                    t.sssp_calls += 1;
                    t.sssp_targets += targets.len() as u64;
                }
                let t0 = now_ns();
                let (min, max, reach) = &mut acc[mi];
                for (pi, r) in rtts.iter().enumerate() {
                    if let Some(rtt) = *r {
                        min[pi] = min[pi].min(rtt);
                        max[pi] = max[pi].max(rtt);
                        reach[pi] += 1;
                    }
                }
                t.fold_ns += ns(t0);
            }
        }
        (acc, t)
    });
    // Folding the first chunk into a fresh accumulator leaves its values
    // bit-identical (min with +inf, max with -inf, add to 0).
    let mut acc = fresh();
    for (part, t) in parts {
        let t0 = now_ns();
        for (a, b) in acc.iter_mut().zip(&part) {
            for pi in 0..n_pairs {
                a.0[pi] = a.0[pi].min(b.0[pi]);
                a.1[pi] = a.1[pi].max(b.1[pi]);
                a.2[pi] += b.2[pi];
            }
        }
        let merge = ns(t0);
        tr.absorb(t);
        tr.fold_ns += merge;
        tr.busy_ns += merge;
    }
    LatencyOut(
        acc.into_iter()
            .map(|(min, max, reachable)| ModeLatency {
                min_rtt_ms: (0..n_pairs)
                    .map(|i| (reachable[i] > 0).then_some(min[i]))
                    .collect(),
                max_rtt_ms: (0..n_pairs)
                    .map(|i| (reachable[i] > 0).then_some(max[i]))
                    .collect(),
                reachable,
                total: times.len(),
            })
            .collect(),
    )
}

/// `throughput` per constellation and combo: one single-step sweep for
/// the snapshot, k edge-disjoint paths per pair over a `parallel_map`
/// fan-out on all cores (the entry point's fan-out), the flow
/// simulation assembled with one link per graph edge, and one max-min
/// solve. The traced-only checks run outside the timed work.
fn throughput(ctxs: &[StudyContext], tr: &mut Trace, c: &mut Checks) -> Vec<ThroughputRow> {
    let mut rows = Vec::new();
    let mut scratch = Vec::new();
    for ctx in ctxs {
        for &(mode, k) in &THROUGHPUT_COMBOS {
            let t0 = now_ns();
            let mut sweep = TimeSweep::new(ctx, &[mode]);
            sweep.step(THROUGHPUT_T_S);
            let snap = &sweep.into_snapshots()[0];
            let step = ns(t0);
            tr.sweep_ns += step;
            tr.step_ns.push(step);
            tr.busy_ns += step;
            tr.saw(snap);

            let fan = now_ns();
            let (paths, stats) = parallel_map_stats(&ctx.pairs, 0, |pair| {
                with_thread_workspace(|ws| {
                    let t0 = now_ns();
                    let p = k_edge_disjoint_paths_with(
                        &snap.graph,
                        snap.city_node(pair.src as usize),
                        snap.city_node(pair.dst as usize),
                        k,
                        None,
                        ws,
                    );
                    (p, ns(t0))
                })
            });
            let fan_ns = ns(fan);
            tr.threads = tr.threads.max(stats.workers.len());
            tr.busy_ns += stats.total_busy_ns();
            tr.disjoint_calls += paths.len() as u64;
            tr.disjoint_ns += paths.iter().map(|(_, t)| t).sum::<u64>();
            tr.paths_asked += (k * paths.len()) as u64;

            let t0 = now_ns();
            let mut sim = FlowSim::new();
            let net = ctx.config.network;
            for e in 0..snap.graph.num_edges() as u32 {
                sim.add_link(snap.edge_capacity_gbps(&net, e));
            }
            let (mut routed_pairs, mut flows) = (0, 0);
            for (ps, _) in &paths {
                if !ps.is_empty() {
                    routed_pairs += 1;
                }
                for p in ps {
                    sim.add_flow(p.edges.clone());
                    flows += 1;
                }
            }
            let fold = ns(t0);
            tr.fold_ns += fold;
            tr.busy_ns += fold;

            let t0 = now_ns();
            let alloc = sim.solve_with(&mut FlowWorkspace::new());
            let solve = ns(t0);
            tr.alloc_ns += solve;
            tr.busy_ns += solve;
            tr.solves += 1;
            // The traced-only checks below interleave with the work, so
            // the replayed wall time is the sum of the timed segments.
            tr.wall_ns += step + fan_ns + fold + solve;
            tr.flows += flows as u64;

            // Traced-only checks, outside the timed work.
            let capacity: Vec<f64> = (0..snap.graph.num_edges() as u32)
                .map(|e| snap.edge_capacity_gbps(&net, e))
                .collect();
            let flow_links: Vec<Vec<u32>> = paths
                .iter()
                .flat_map(|(ps, _)| ps.iter().map(|p| p.edges.clone()))
                .collect();
            checks::allocation(&capacity, &flow_links, &alloc.rates, c);
            for (pi, (ps, _)) in paths.iter().enumerate() {
                checks::edge_disjoint(pi, ps, &mut scratch, c);
            }
            tr.saturated_links += alloc
                .link_utilization
                .iter()
                .zip(&capacity)
                .filter(|&(&u, &cap)| u > 0.0 && u >= cap * (1.0 - 1e-9))
                .count() as u64;

            rows.push(ThroughputRow {
                kind: ctx.config.constellation,
                mode,
                k,
                pairs: ctx.pairs.len(),
                aggregate_gbps: alloc.aggregate,
                routed_pairs,
                flows,
            });
        }
    }
    rows
}

/// `disconnected_satellite_fraction`: per chunk one BP sweep and one
/// components pass per instant, chunk results concatenated in order.
fn disconnected(ctx: &StudyContext, threads: usize, tr: &mut Trace) -> Vec<f64> {
    let times = &ctx.config.snapshot_times_s;
    let ranges = chunks(times.len(), threads);
    tr.threads = ranges.len();
    let parts = per_chunk(&ranges, |lo, hi| {
        let mut t = Trace::default();
        let mut vals = Vec::new();
        let t0 = now_ns();
        let mut sweep = TimeSweep::new(ctx, &[Mode::BpOnly]);
        t.sweep_ns += ns(t0);
        for &ts in &times[lo..hi] {
            let t0 = now_ns();
            let snaps = sweep.step(ts);
            let step = ns(t0);
            t.sweep_ns += step;
            t.step_ns.push(step);
            t.saw(&snaps[0]);
            let t0 = now_ns();
            let f = disconnected_fraction_of(&snaps[0]);
            t.components_ns += ns(t0);
            t.components_calls += 1;
            let t0 = now_ns();
            vals.push(f);
            t.fold_ns += ns(t0);
        }
        (vals, t)
    });
    let mut out = Vec::with_capacity(times.len());
    for (vals, t) in parts {
        let t0 = now_ns();
        out.extend_from_slice(&vals);
        let merge = ns(t0);
        tr.absorb(t);
        tr.fold_ns += merge;
        tr.busy_ns += merge;
    }
    out
}

pub fn run(w: Workload, ctxs: &[StudyContext], threads: usize) -> Report {
    let mut tr = Trace::default();
    let mut c = Checks::default();
    let cpu0 = cpu_seconds();
    let t0 = now_ns();
    let digest = match w {
        Workload::LatencyDay => {
            let out = latency(&ctxs[0], threads, &mut tr);
            tr.wall_ns = ns(t0);
            checks::latency(&ctxs[0], &out, &mut c);
            out.digest()
        }
        Workload::ThroughputMultipath => {
            let rows = throughput(ctxs, &mut tr, &mut c);
            checks::throughput(&rows, &mut c);
            throughput_digest(&rows)
        }
        Workload::DisconnectedDay => {
            let vals = disconnected(&ctxs[0], threads, &mut tr);
            tr.wall_ns = ns(t0);
            checks::disconnected(&vals, ctxs[0].config.snapshot_times_s.len(), &mut c);
            fractions_digest(&vals)
        }
    };
    Report {
        wall_s: tr.wall_ns as f64 / 1e9,
        cpu_s: cpu_seconds() - cpu0,
        checks: c,
        digest,
        layers: tr.layers(ctxs),
    }
}
