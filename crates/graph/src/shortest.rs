//! Single-source shortest paths (Dijkstra) with optional edge masks.
//!
//! Two entry points:
//!
//! * The free functions [`dijkstra`] / [`dijkstra_with_mask`] allocate a
//!   fresh [`DijkstraWorkspace`] per call and materialize a
//!   [`ShortestPaths`] — convenient for one-shot queries and tests.
//! * A long-lived [`DijkstraWorkspace`] amortizes every buffer (distance,
//!   parent, settled, heap) across runs; clearing is generation-stamped,
//!   so resetting between runs costs O(nodes touched), not O(n). The hot
//!   experiment loops keep one workspace per worker thread.

use crate::contract::{recover_path, CoreGraph, DirtyRows, MaskedRows, CORE_D_MAX};
use crate::graph::{EdgeId, Graph, NodeId};
use leo_util::telemetry::Counter;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Telemetry: total Dijkstra runs (plain + masked) across the process.
static DIJKSTRA_CALLS: Counter = Counter::new("dijkstra_calls");
/// Telemetry: nodes settled across all Dijkstra runs.
static DIJKSTRA_SETTLED: Counter = Counter::new("dijkstra_nodes_settled");
/// Telemetry: runs that reused a warm workspace (every run after the
/// first on a given [`DijkstraWorkspace`]).
static WORKSPACE_REUSES: Counter = Counter::new("workspace_reuses");
/// Telemetry: [`DijkstraWorkspace::run_contracted`] sources and
/// [`DijkstraWorkspace::contracted_path`] queries answered on the full
/// graph instead of the core graph.
static CONTRACT_FALLBACKS: Counter = Counter::new("contract_fallbacks");

/// Result of a single-source Dijkstra run.
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    /// Source node.
    pub source: NodeId,
    /// `dist[v]` = shortest distance from the source, `f64::INFINITY` if
    /// unreached.
    ///
    /// When the run early-exited on a target, only nodes settled before
    /// the target report a (correct) finite distance; nodes that were
    /// merely queued report `INFINITY`, never a stale upper bound.
    pub dist: Vec<f64>,
    /// `parent_edge[v]` = edge id used to reach `v` on the shortest path,
    /// `EdgeId::MAX` for the source and unreached nodes.
    pub parent_edge: Vec<EdgeId>,
    /// `parent_node[v]` = predecessor of `v`, `NodeId::MAX` if none.
    pub parent_node: Vec<NodeId>,
}

impl ShortestPaths {
    /// True iff `v` was reached (settled with a shortest distance).
    pub fn reached(&self, v: NodeId) -> bool {
        self.dist[v as usize].is_finite()
    }
}

/// A path: node sequence plus the edges connecting them and total weight.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// Nodes from source to destination (inclusive).
    pub nodes: Vec<NodeId>,
    /// Edge ids, one per hop (`nodes.len() - 1` of them).
    pub edges: Vec<EdgeId>,
    /// Sum of edge weights.
    pub total_weight: f64,
}

impl Path {
    /// Number of hops (edges) in the path.
    pub fn num_hops(&self) -> usize {
        self.edges.len()
    }
}

#[derive(Debug, PartialEq)]
struct HeapItem {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by distance: reverse the comparison. Distances are
        // finite non-NaN by construction.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable buffers for repeated Dijkstra runs.
///
/// Entries are validated with a per-run generation stamp: `dist[v]`,
/// `parent_edge[v]`, `parent_node[v]`, and `settled[v]` are meaningful
/// only where `stamp[v]` equals the current generation, so starting a new
/// run is a counter bump plus a heap clear — no O(n) refill. The arrays
/// grow monotonically to the largest graph seen and are reused across
/// graphs of different sizes.
///
/// A workspace is plain mutable state: keep one per thread (the
/// experiment fan-outs create one per `parallel_map` worker) and the hot
/// loop stays lock-free and allocation-free after warm-up.
#[derive(Debug, Default)]
pub struct DijkstraWorkspace {
    /// `stamp[v] == gen` iff `v` was touched by the current run.
    stamp: Vec<u32>,
    /// `target_stamp[v] == gen` iff `v` is a pending early-exit target of
    /// the current run (see [`DijkstraWorkspace::run_multi`]).
    target_stamp: Vec<u32>,
    /// Current generation; bumped by every run, never 0 after the first.
    gen: u32,
    dist: Vec<f64>,
    parent_edge: Vec<EdgeId>,
    parent_node: Vec<NodeId>,
    settled: Vec<bool>,
    heap: BinaryHeap<HeapItem>,
    /// Loanable scratch mask, used by the multi-path algorithms.
    mask_buf: Vec<bool>,
    /// Loanable scratch distances (Suurballe potentials).
    dist_buf: Vec<f64>,
    /// Node count of the most recent run's graph.
    active_n: usize,
    /// Source of the most recent run.
    source: NodeId,
    /// Completed runs on this workspace.
    runs: u64,
    /// The most recent run was [`DijkstraWorkspace::run_contracted`] on
    /// a core graph: distances only, no parent edges.
    dist_only: bool,
    /// Contracted runs on this workspace that fell back to the full
    /// graph.
    fallbacks: u64,
    /// Hot rows of the most recent masked contracted run.
    dirty: DirtyRows,
}

impl DijkstraWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Completed runs on this workspace.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Contracted runs on this workspace that fell back to the full
    /// graph (see [`DijkstraWorkspace::run_contracted`]).
    pub fn contract_fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// Bump the generation and size buffers for an `n`-node graph.
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            // lint: allow(hot-path-alloc) grows once to the peak node count, then the guard above makes every resize a no-op
            self.stamp.resize(n, 0);
            // lint: allow(hot-path-alloc) grows once to the peak node count, then the guard above makes every resize a no-op
            self.target_stamp.resize(n, 0);
            // lint: allow(hot-path-alloc) grows once to the peak node count, then the guard above makes every resize a no-op
            self.dist.resize(n, f64::INFINITY);
            // lint: allow(hot-path-alloc) grows once to the peak node count, then the guard above makes every resize a no-op
            self.parent_edge.resize(n, EdgeId::MAX);
            // lint: allow(hot-path-alloc) grows once to the peak node count, then the guard above makes every resize a no-op
            self.parent_node.resize(n, NodeId::MAX);
            // lint: allow(hot-path-alloc) grows once to the peak node count, then the guard above makes every resize a no-op
            self.settled.resize(n, false);
        }
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // u32 wrap: stale stamps could collide with a reused
            // generation, so pay one full clear every 2^32 runs.
            self.stamp.fill(0);
            self.target_stamp.fill(0);
            self.gen = 1;
        }
        self.heap.clear();
        self.active_n = n;
        self.dist_only = false;
    }

    /// Run Dijkstra from `source`, skipping edges marked `true` in
    /// `disabled` and optionally stopping once `target` is settled.
    ///
    /// Returns a [`SsspView`] borrowing this workspace; the result stays
    /// readable (via [`DijkstraWorkspace::view`]) until the next run.
    pub fn run(
        &mut self,
        g: &Graph,
        source: NodeId,
        disabled: Option<&[bool]>,
        target: Option<NodeId>,
    ) -> SsspView<'_> {
        match target {
            Some(t) => self.run_core(g, source, disabled, Some(std::slice::from_ref(&t))),
            None => self.run_core(g, source, disabled, None),
        }
    }

    /// Like [`DijkstraWorkspace::run`] with a *set* of early-exit targets:
    /// the run stops once every node in `targets` is settled (duplicates
    /// are fine). Distances and paths to the targets are exact; other
    /// nodes follow the usual settled-only contract. An empty `targets`
    /// slice disables early exit (same as `target: None`).
    ///
    /// This is the experiment-loop shape: one source city, a handful of
    /// destination cities, and a constellation graph whose far side never
    /// needs settling.
    pub fn run_multi(
        &mut self,
        g: &Graph,
        source: NodeId,
        disabled: Option<&[bool]>,
        targets: &[NodeId],
    ) -> SsspView<'_> {
        self.run_core(
            g,
            source,
            disabled,
            if targets.is_empty() {
                None
            } else {
                Some(targets)
            },
        )
    }

    /// [`DijkstraWorkspace::run_multi`] (no mask) answered on `core`,
    /// the relay-contracted form of `g` (see [`CoreGraph`]): the same
    /// early exit, and distances and reached sets bit-identical to the
    /// full-graph run for every core node. Other nodes report
    /// unreached, and [`SsspView::extract_path`] returns `None` — the
    /// core graph carries no edge ids.
    ///
    /// The source answers on `g` itself instead (counted in
    /// `contract_fallbacks`) when the core run would pop a node beyond
    /// [`CORE_D_MAX`] — past it, pruned transit legs are no longer
    /// provably dominated — or when `core` is not
    /// [exact](CoreGraph::is_exact) or `source`/a target is not a core
    /// node.
    // lint: hot-path
    pub fn run_contracted(
        &mut self,
        core: &CoreGraph,
        g: &Graph,
        source: NodeId,
        targets: &[NodeId],
    ) -> SsspView<'_> {
        let exact = self.run_two_leg(core, source, targets);
        // Added even when 0, so every run log reports the counter.
        CONTRACT_FALLBACKS.add(u64::from(!exact));
        if !exact {
            self.fallbacks += 1;
            return self.run_multi(g, source, None, targets);
        }
        self.view()
    }

    /// The core-graph Dijkstra behind
    /// [`DijkstraWorkspace::run_contracted`]; false when the result
    /// cannot be trusted and the caller must fall back.
    // lint: hot-path
    fn run_two_leg(&mut self, core: &CoreGraph, source: NodeId, targets: &[NodeId]) -> bool {
        let n = core.num_nodes();
        if !core.is_exact() || source as usize >= n || targets.iter().any(|&t| t as usize >= n) {
            return false;
        }
        self.two_leg_search(n, source, targets, |u| {
            core.neighbors(u).iter().map(|e| (e.to, e.a, e.b))
        })
    }

    /// The shortest path from `source` to `target` in `g` without the
    /// edges set in `mask` — exactly the path [`DijkstraWorkspace::run`]
    /// with that mask and early exit at `target` extracts: same nodes,
    /// same edges, same `total_weight` bits. `masked` must list every
    /// edge set in `mask` (in any order).
    ///
    /// The distances come from a masked run on `core`, the relay-
    /// contracted form of `g`: masked direct edges are skipped, and the
    /// two-leg rows at the core ends of masked transit legs are
    /// re-derived from `g`. The path is then walked back on `g` with
    /// Dijkstra's own tie rule. The query answers on `g` itself instead
    /// (counted in `contract_fallbacks`) in the cases
    /// [`DijkstraWorkspace::run_contracted`] falls back, and when an
    /// edge at a core node is too light for the walk's tie rule
    /// (below `2⁻⁵²`).
    pub(crate) fn contracted_path(
        &mut self,
        core: &CoreGraph,
        g: &Graph,
        source: NodeId,
        target: NodeId,
        mask: &[bool],
        masked: &[EdgeId],
    ) -> Option<Path> {
        if self.run_two_leg_masked(core, g, source, target, mask, masked) {
            let rows = MaskedRows {
                core,
                dirty: &self.dirty,
                mask,
            };
            let view = self.view();
            // Added even when 0, so every run log reports the counter.
            if !view.reached(target) {
                CONTRACT_FALLBACKS.add(0);
                return None;
            }
            if let Some(path) = recover_path(view, g, rows, target) {
                CONTRACT_FALLBACKS.add(0);
                return Some(path);
            }
        }
        CONTRACT_FALLBACKS.add(1);
        self.fallbacks += 1;
        self.run(g, source, Some(mask), Some(target))
            .extract_path(target)
    }

    /// The masked core-graph Dijkstra behind
    /// [`DijkstraWorkspace::contracted_path`]: shared rows where both
    /// ends are cold, the workspace's [`DirtyRows`] at hot ones. False
    /// when the caller must fall back.
    // lint: hot-path
    fn run_two_leg_masked(
        &mut self,
        core: &CoreGraph,
        g: &Graph,
        source: NodeId,
        target: NodeId,
        mask: &[bool],
        masked: &[EdgeId],
    ) -> bool {
        let n = core.num_nodes();
        let targets = std::slice::from_ref(&target);
        if !core.recovers_paths() || source as usize >= n || target as usize >= n {
            return false;
        }
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.rederive(g, core, mask, masked);
        let ok = if masked.is_empty() {
            self.run_two_leg(core, source, targets)
        } else {
            let rows = MaskedRows {
                core,
                dirty: &dirty,
                mask,
            };
            self.two_leg_search(n, source, targets, |u| {
                rows.row(u).map(|(v, a, b, _)| (v, a, b))
            })
        };
        self.dirty = dirty;
        ok
    }

    /// Early-exit Dijkstra over core nodes `0..n`, relaxing each
    /// `(head, a, b)` of `row(u)` as `(d + a) + b` — two roundings, left
    /// to right, the full graph's order along `u → transit → head`
    /// (`b = 0.0` is exact). False if it would pop a node beyond
    /// [`CORE_D_MAX`].
    // lint: hot-path
    fn two_leg_search<I>(
        &mut self,
        n: usize,
        source: NodeId,
        targets: &[NodeId],
        row: impl Fn(NodeId) -> I,
    ) -> bool
    where
        I: Iterator<Item = (NodeId, f64, f64)>,
    {
        DIJKSTRA_CALLS.add(1);
        if self.runs > 0 {
            WORKSPACE_REUSES.add(1);
        }
        self.runs += 1;
        self.begin(n);
        self.dist_only = true;
        let gen = self.gen;
        let mut pending = 0usize;
        for &t in targets {
            let ti = t as usize;
            if self.target_stamp[ti] != gen {
                self.target_stamp[ti] = gen;
                pending += 1;
            }
        }
        let mut settled_count = 0u64;
        let si = source as usize;
        self.stamp[si] = gen;
        self.dist[si] = 0.0;
        self.settled[si] = false;
        self.heap.push(HeapItem {
            dist: 0.0,
            node: source,
        });
        let mut ok = true;
        while let Some(HeapItem { dist: d, node: u }) = self.heap.pop() {
            let ui = u as usize;
            if self.settled[ui] {
                continue;
            }
            if d > CORE_D_MAX {
                ok = false;
                break;
            }
            self.settled[ui] = true;
            settled_count += 1;
            if self.target_stamp[ui] == gen {
                pending -= 1;
                if pending == 0 {
                    break;
                }
            }
            for (v, a, b) in row(u) {
                let nd = (d + a) + b;
                let vi = v as usize;
                let cur = if self.stamp[vi] == gen {
                    self.dist[vi]
                } else {
                    f64::INFINITY
                };
                if nd < cur {
                    self.stamp[vi] = gen;
                    self.dist[vi] = nd;
                    self.settled[vi] = false;
                    self.heap.push(HeapItem { dist: nd, node: v });
                }
            }
        }
        DIJKSTRA_SETTLED.add(settled_count);
        self.source = source;
        ok
    }

    // lint: hot-path
    fn run_core(
        &mut self,
        g: &Graph,
        source: NodeId,
        disabled: Option<&[bool]>,
        targets: Option<&[NodeId]>,
    ) -> SsspView<'_> {
        let n = g.num_nodes();
        // Release builds keep equivalent protection via the slice bounds
        // checks on `stamp`/`dist` indexing below; the named asserts are
        // kept for debug/test builds where the message matters.
        debug_assert!((source as usize) < n, "source out of range");
        if let Some(d) = disabled {
            debug_assert_eq!(d.len(), g.num_edges(), "mask length must equal edge count");
        }
        DIJKSTRA_CALLS.add(1);
        if self.runs > 0 {
            WORKSPACE_REUSES.add(1);
        }
        self.runs += 1;
        self.begin(n);
        let gen = self.gen;
        // Pending distinct early-exit targets; `None` = run to exhaustion.
        let mut pending = targets.map(|ts| {
            let mut distinct = 0usize;
            for &t in ts {
                let ti = t as usize;
                debug_assert!(ti < n, "target out of range"); // release: target_stamp[ti] bounds-checks
                if self.target_stamp[ti] != gen {
                    self.target_stamp[ti] = gen;
                    distinct += 1;
                }
            }
            distinct
        });
        let mut settled_count = 0u64;
        let si = source as usize;
        self.stamp[si] = gen;
        self.dist[si] = 0.0;
        self.parent_edge[si] = EdgeId::MAX;
        self.parent_node[si] = NodeId::MAX;
        self.settled[si] = false;
        self.heap.push(HeapItem {
            dist: 0.0,
            node: source,
        });
        while let Some(HeapItem { dist: d, node: u }) = self.heap.pop() {
            let ui = u as usize;
            if self.settled[ui] {
                continue;
            }
            self.settled[ui] = true;
            settled_count += 1;
            if let Some(p) = pending.as_mut() {
                if self.target_stamp[ui] == gen {
                    *p -= 1;
                    if *p == 0 {
                        break;
                    }
                }
            }
            for h in g.neighbors(u) {
                if let Some(mask) = disabled {
                    if mask[h.edge as usize] {
                        continue;
                    }
                }
                let nd = d + h.weight;
                let vi = h.to as usize;
                let cur = if self.stamp[vi] == gen {
                    self.dist[vi]
                } else {
                    f64::INFINITY
                };
                if nd < cur {
                    self.stamp[vi] = gen;
                    self.dist[vi] = nd;
                    self.parent_edge[vi] = h.edge;
                    self.parent_node[vi] = u;
                    self.settled[vi] = false;
                    self.heap.push(HeapItem {
                        dist: nd,
                        node: h.to,
                    });
                }
            }
        }
        DIJKSTRA_SETTLED.add(settled_count);
        self.source = source;
        self.view()
    }

    /// A view of the most recent run's result (empty before any run).
    pub fn view(&self) -> SsspView<'_> {
        SsspView { ws: self }
    }

    /// Borrow the scratch edge mask, cleared and sized to `len`. Return
    /// it with [`DijkstraWorkspace::put_mask`] so the allocation is
    /// reused; taking it twice without returning just allocates afresh.
    pub fn take_mask(&mut self, len: usize) -> Vec<bool> {
        let mut m = std::mem::take(&mut self.mask_buf);
        m.clear();
        m.resize(len, false);
        m
    }

    /// Return a mask borrowed with [`DijkstraWorkspace::take_mask`].
    pub fn put_mask(&mut self, m: Vec<bool>) {
        self.mask_buf = m;
    }

    /// Borrow the scratch distance buffer (cleared). Return it with
    /// [`DijkstraWorkspace::put_dist_buf`].
    pub fn take_dist_buf(&mut self) -> Vec<f64> {
        let mut d = std::mem::take(&mut self.dist_buf);
        d.clear();
        d
    }

    /// Return the buffer borrowed with
    /// [`DijkstraWorkspace::take_dist_buf`].
    pub fn put_dist_buf(&mut self, d: Vec<f64>) {
        self.dist_buf = d;
    }

    /// Test hook: force the generation counter near the wrap point.
    #[cfg(test)]
    fn set_gen_for_test(&mut self, gen: u32) {
        self.gen = gen;
    }
}

/// Borrowed result of the most recent [`DijkstraWorkspace::run`].
///
/// Same contract as [`ShortestPaths`] without the materialization:
/// distances are reported only for **settled** nodes, so an early-exited
/// run never exposes a stale queued-but-unrelaxed upper bound.
#[derive(Clone, Copy)]
pub struct SsspView<'a> {
    ws: &'a DijkstraWorkspace,
}

impl SsspView<'_> {
    /// Source node of the run.
    pub fn source(&self) -> NodeId {
        self.ws.source
    }

    /// True iff `v` was settled with its shortest distance.
    pub fn reached(&self, v: NodeId) -> bool {
        let vi = v as usize;
        vi < self.ws.active_n && self.ws.stamp[vi] == self.ws.gen && self.ws.settled[vi]
    }

    /// Shortest distance to `v`, or `INFINITY` if `v` was not settled.
    pub fn dist(&self, v: NodeId) -> f64 {
        if self.reached(v) {
            self.ws.dist[v as usize]
        } else {
            f64::INFINITY
        }
    }

    /// Extract the path to `target`, or `None` if it was not settled or
    /// the run was [contracted](DijkstraWorkspace::run_contracted).
    pub fn extract_path(&self, target: NodeId) -> Option<Path> {
        if self.ws.dist_only || !self.reached(target) {
            return None;
        }
        let mut nodes = vec![target];
        let mut edges = Vec::new();
        let mut v = target;
        while v != self.ws.source {
            let e = self.ws.parent_edge[v as usize];
            let p = self.ws.parent_node[v as usize];
            debug_assert!(e != EdgeId::MAX && p != NodeId::MAX);
            edges.push(e);
            nodes.push(p);
            v = p;
        }
        nodes.reverse();
        edges.reverse();
        Some(Path {
            nodes,
            edges,
            total_weight: self.ws.dist[target as usize],
        })
    }

    /// Overwrite `out` with the per-node distances (`INFINITY` where
    /// unsettled), sized to the run's graph.
    pub fn write_dists(&self, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.ws.active_n);
        for v in 0..self.ws.active_n {
            let d = if self.ws.stamp[v] == self.ws.gen && self.ws.settled[v] {
                self.ws.dist[v]
            } else {
                f64::INFINITY
            };
            out.push(d);
        }
    }

    /// Materialize an owned [`ShortestPaths`] (allocates three `n`-vecs;
    /// parents stay unset after a contracted run).
    pub fn to_shortest_paths(&self) -> ShortestPaths {
        let n = self.ws.active_n;
        let mut dist = vec![f64::INFINITY; n];
        let mut parent_edge = vec![EdgeId::MAX; n];
        let mut parent_node = vec![NodeId::MAX; n];
        for v in 0..n {
            if self.ws.stamp[v] == self.ws.gen && self.ws.settled[v] {
                dist[v] = self.ws.dist[v];
                if !self.ws.dist_only {
                    parent_edge[v] = self.ws.parent_edge[v];
                    parent_node[v] = self.ws.parent_node[v];
                }
            }
        }
        ShortestPaths {
            source: self.ws.source,
            dist,
            parent_edge,
            parent_node,
        }
    }
}

thread_local! {
    static THREAD_WS: std::cell::RefCell<DijkstraWorkspace> =
        std::cell::RefCell::new(DijkstraWorkspace::new());
}

/// Run `f` with this thread's shared [`DijkstraWorkspace`] — a warm
/// workspace for one-shot call sites that don't manage their own.
///
/// Re-entrant use (calling `with_thread_workspace` from inside `f`)
/// panics on the `RefCell` borrow; pass the workspace down instead.
pub fn with_thread_workspace<R>(f: impl FnOnce(&mut DijkstraWorkspace) -> R) -> R {
    THREAD_WS.with(|ws| f(&mut ws.borrow_mut()))
}

/// Dijkstra from `source` over all edges.
pub fn dijkstra(g: &Graph, source: NodeId) -> ShortestPaths {
    DijkstraWorkspace::new()
        .run(g, source, None, None)
        .to_shortest_paths()
}

/// Dijkstra from `source`, ignoring edges whose id is marked `true` in
/// `disabled` (a bitmask indexed by [`EdgeId`]).
///
/// Used for k-edge-disjoint path computation and link-failure injection.
/// An optional `target` enables early exit once the target is settled; in
/// that case only nodes settled before the exit report finite distances
/// (see [`ShortestPaths::dist`]).
pub fn dijkstra_with_mask(
    g: &Graph,
    source: NodeId,
    disabled: &[bool],
    target: Option<NodeId>,
) -> ShortestPaths {
    DijkstraWorkspace::new()
        .run(g, source, Some(disabled), target)
        .to_shortest_paths()
}

/// Extract the path from the SSSP tree to `target`, or `None` if
/// unreached.
pub fn extract_path(sp: &ShortestPaths, target: NodeId) -> Option<Path> {
    if !sp.reached(target) {
        return None;
    }
    let mut nodes = vec![target];
    let mut edges = Vec::new();
    let mut v = target;
    while v != sp.source {
        let e = sp.parent_edge[v as usize];
        let p = sp.parent_node[v as usize];
        debug_assert!(e != EdgeId::MAX && p != NodeId::MAX);
        edges.push(e);
        nodes.push(p);
        v = p;
    }
    nodes.reverse();
    edges.reverse();
    Some(Path {
        nodes,
        edges,
        total_weight: sp.dist[target as usize],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    /// 0 --1-- 1 --1-- 2
    ///  \------5------/
    fn small() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(0, 2, 5.0);
        b.build()
    }

    #[test]
    fn prefers_two_hop_path() {
        let g = small();
        let sp = dijkstra(&g, 0);
        assert_eq!(sp.dist[2], 2.0);
        let p = extract_path(&sp, 2).unwrap();
        assert_eq!(p.nodes, vec![0, 1, 2]);
        assert_eq!(p.num_hops(), 2);
        assert_eq!(p.total_weight, 2.0);
    }

    #[test]
    fn masked_edge_forces_detour() {
        let g = small();
        let mut disabled = vec![false; g.num_edges()];
        disabled[0] = true; // kill 0-1
        let sp = dijkstra_with_mask(&g, 0, &disabled, None);
        assert_eq!(sp.dist[2], 5.0);
        let p = extract_path(&sp, 2).unwrap();
        assert_eq!(p.nodes, vec![0, 2]);
    }

    #[test]
    fn unreachable_is_infinite() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0);
        // 2,3 disconnected from 0,1; 2-3 connected.
        b.add_edge(2, 3, 1.0);
        let g = b.build();
        let sp = dijkstra(&g, 0);
        assert!(!sp.reached(2));
        assert!(extract_path(&sp, 3).is_none());
    }

    #[test]
    fn source_path_is_trivial() {
        let g = small();
        let sp = dijkstra(&g, 1);
        let p = extract_path(&sp, 1).unwrap();
        assert_eq!(p.nodes, vec![1]);
        assert!(p.edges.is_empty());
        assert_eq!(p.total_weight, 0.0);
    }

    #[test]
    fn early_exit_still_correct_for_target() {
        let g = small();
        let sp = dijkstra_with_mask(&g, 0, &[false; 3], Some(2));
        assert_eq!(sp.dist[2], 2.0);
        assert!(extract_path(&sp, 2).is_some());
    }

    /// Regression: before the settled-only contract, an early-exited run
    /// reported `dist[v]` for queued-but-unsettled nodes as whatever
    /// upper bound had been relaxed so far — here 10.0 for node 2, whose
    /// true distance is 2.0 — and `reached(2)` claimed true.
    #[test]
    fn early_exit_does_not_report_stale_distances() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 2, 10.0); // relaxes 2 to 10.0 before the exit
        b.add_edge(1, 2, 1.0); // true shortest: 0-1-2 = 2.0
        let g = b.build();
        let sp = dijkstra_with_mask(&g, 0, &[false; 3], Some(1));
        assert_eq!(sp.dist[1], 1.0, "target distance is exact");
        assert!(
            !sp.reached(2),
            "unsettled node must not be reported as reached (dist was {})",
            sp.dist[2]
        );
        assert!(sp.dist[2].is_infinite(), "no stale upper bound exposed");
        assert!(extract_path(&sp, 2).is_none());
    }

    #[test]
    fn zero_weight_edges_ok() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.0);
        b.add_edge(1, 2, 0.0);
        let g = b.build();
        let sp = dijkstra(&g, 0);
        assert_eq!(sp.dist[2], 0.0);
        assert_eq!(extract_path(&sp, 2).unwrap().num_hops(), 2);
    }

    #[test]
    fn grid_distances_match_manhattan() {
        // 5x5 unit grid: distance == Manhattan distance.
        let n = 5;
        let id = |r: u32, c: u32| r * n + c;
        let mut b = GraphBuilder::new((n * n) as usize);
        for r in 0..n {
            for c in 0..n {
                if c + 1 < n {
                    b.add_edge(id(r, c), id(r, c + 1), 1.0);
                }
                if r + 1 < n {
                    b.add_edge(id(r, c), id(r + 1, c), 1.0);
                }
            }
        }
        let g = b.build();
        let sp = dijkstra(&g, 0);
        for r in 0..n {
            for c in 0..n {
                assert_eq!(sp.dist[id(r, c) as usize], (r + c) as f64);
            }
        }
    }

    #[test]
    fn workspace_reuse_matches_fresh_runs_across_graphs() {
        // One workspace reused across graphs of different sizes must
        // agree with fresh runs everywhere — including after shrinking.
        let graphs = [small(), two_cliques(), small()];
        let mut ws = DijkstraWorkspace::new();
        for g in &graphs {
            for s in 0..g.num_nodes() as NodeId {
                let fresh = dijkstra(g, s);
                let view = ws.run(g, s, None, None);
                for v in 0..g.num_nodes() as NodeId {
                    assert_eq!(view.dist(v), fresh.dist[v as usize], "src {s} node {v}");
                    assert_eq!(view.reached(v), fresh.reached(v));
                    assert_eq!(
                        view.extract_path(v).map(|p| p.nodes),
                        extract_path(&fresh, v).map(|p| p.nodes)
                    );
                }
            }
        }
        assert_eq!(ws.runs(), 3 + 8 + 3);
    }

    /// 8 nodes: clique {0..3} and clique {4..7}, disconnected.
    fn two_cliques() -> Graph {
        let mut b = GraphBuilder::new(8);
        for base in [0u32, 4] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    b.add_edge(base + i, base + j, (i + j + 1) as f64);
                }
            }
        }
        b.build()
    }

    #[test]
    fn generation_wrap_clears_stamps() {
        let g = small();
        let mut ws = DijkstraWorkspace::new();
        // Warm up so every stamp slot holds a nonzero generation.
        ws.run(&g, 0, None, None);
        // Jump to the wrap point: next run bumps u32::MAX -> 0, which
        // must trigger the full stamp clear, not treat slots stamped
        // with the warm-up generation as touched.
        ws.set_gen_for_test(u32::MAX);
        let view = ws.run(&g, 1, None, None);
        assert_eq!(view.dist(0), 1.0);
        assert_eq!(view.dist(2), 1.0);
        let view = ws.run(&g, 0, None, None);
        assert_eq!(view.dist(2), 2.0);
    }

    #[test]
    fn view_write_dists_and_materialize_agree() {
        let g = two_cliques();
        let mut ws = DijkstraWorkspace::new();
        let view = ws.run(&g, 1, None, None);
        let sp = view.to_shortest_paths();
        let mut dists = Vec::new();
        view.write_dists(&mut dists);
        assert_eq!(dists.len(), g.num_nodes());
        for (a, b) in dists.iter().zip(&sp.dist) {
            assert_eq!(a, b);
        }
        assert!(!sp.reached(5), "other clique unreached");
    }

    #[test]
    fn mask_and_dist_buf_loans_round_trip() {
        let g = small();
        let mut ws = DijkstraWorkspace::new();
        let mut mask = ws.take_mask(g.num_edges());
        assert_eq!(mask, vec![false; 3]);
        mask[0] = true;
        let view = ws.run(&g, 0, Some(&mask), None);
        assert_eq!(view.dist(2), 5.0);
        ws.put_mask(mask);
        // Returned mask is re-cleared on the next take.
        let mask2 = ws.take_mask(2);
        assert_eq!(mask2, vec![false; 2]);
        ws.put_mask(mask2);
        let mut buf = ws.take_dist_buf();
        ws.view().write_dists(&mut buf);
        assert_eq!(buf[2], 5.0);
        assert_eq!(buf[1], 6.0, "0-1 masked, so 1 is reached via 0-2-1");
        ws.put_dist_buf(buf);
    }

    #[test]
    fn multi_target_early_exit_settles_all_targets() {
        // Line graph 0-1-2-3-4: targets {1, 3} must both be exact even
        // though the run may stop before settling 4.
        let mut b = GraphBuilder::new(5);
        for i in 0..4u32 {
            b.add_edge(i, i + 1, 1.0);
        }
        let g = b.build();
        let mut ws = DijkstraWorkspace::new();
        let view = ws.run_multi(&g, 0, None, &[3, 1]);
        assert_eq!(view.dist(1), 1.0);
        assert_eq!(view.dist(3), 3.0);
        assert!(view.extract_path(3).is_some());
        assert!(
            !view.reached(4),
            "node past the farthest target must not be settled"
        );
        // Duplicates and the source itself are fine.
        let view = ws.run_multi(&g, 2, None, &[2, 2, 4, 4]);
        assert_eq!(view.dist(2), 0.0);
        assert_eq!(view.dist(4), 2.0);
        // Empty target set means a full run.
        let view = ws.run_multi(&g, 0, None, &[]);
        for v in 0..5 {
            assert_eq!(view.dist(v), v as f64);
        }
    }

    #[test]
    fn multi_target_matches_full_run_on_targets() {
        let g = two_cliques();
        let mut ws = DijkstraWorkspace::new();
        for s in 0..g.num_nodes() as NodeId {
            let fresh = dijkstra(&g, s);
            let targets: Vec<NodeId> = (0..g.num_nodes() as NodeId).step_by(2).collect();
            let view = ws.run_multi(&g, s, None, &targets);
            for &t in &targets {
                // Unreachable targets can never settle; the run still
                // terminates (heap exhaustion) and reports INFINITY.
                assert_eq!(view.dist(t), fresh.dist[t as usize], "src {s} target {t}");
            }
        }
    }

    #[test]
    fn thread_workspace_is_warm_across_calls() {
        let g = small();
        let runs_before = with_thread_workspace(|ws| ws.runs());
        let d = with_thread_workspace(|ws| ws.run(&g, 0, None, None).dist(2));
        assert_eq!(d, 2.0);
        let runs_after = with_thread_workspace(|ws| ws.runs());
        assert_eq!(runs_after, runs_before + 1);
    }
}
