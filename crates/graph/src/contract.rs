//! Exact relay contraction: a core graph over the nodes a query can
//! start or end at, with every transit hop folded into two-leg edges.
//!
//! A bent-pipe snapshot is dominated by **transit** nodes (ground relays
//! and aircraft): they only ever forward `sat → transit → sat`, yet they
//! are ~96% of the nodes a full-graph Dijkstra settles. [`CoreGraph`]
//! keeps the **core** nodes `0..n_core` (satellites and cities, whose
//! ids come first in every snapshot) and replaces each
//! `u → r → v` bounce through a transit node `r` by one directed edge
//! `u → v` carrying both legs, `a = w(u, r)` and `b = w(r, v)`.
//! [`DijkstraWorkspace::run_contracted`] relaxes such an edge as
//! `(d + a) + b` — the very float operations, in the very order, that
//! the full graph performs along the same path — and a direct core edge
//! as `(d + w) + 0.0`, which is exactly `d + w`.
//!
//! **Why distances stay bit-identical.** `fl(x + w)` is monotone in `x`
//! and never below `x` for `w ≥ 0`, so full-graph Dijkstra assigns each
//! node the minimum, over all paths, of the left-to-right float sum. A
//! core node's path through `r` is worth `fl(fl(D(u) + a) + b)`, which
//! the two-leg edge reproduces; so the core run computes the same
//! minimum over the same set of path values.
//!
//! **Pruning.** Many transit nodes link the same satellite pair; only
//! those whose `a + b` lies within `8·2⁻⁵³·(CORE_D_MAX + m_uv)` of the
//! pair's minimum `m_uv` are kept (near ties become parallel edges).
//! Two roundings move a two-leg value by at most a factor `(1 ± 2⁻⁵³)²`,
//! so for any tail distance `d ≤ CORE_D_MAX` a pruned relay can never
//! produce a strictly smaller sum than the kept minimizer. The run
//! enforces the premise: popping a node farther than [`CORE_D_MAX`]
//! falls back to full-graph Dijkstra for that source (counted in
//! `contract_fallbacks`). DESIGN.md §"Relay contraction" has the error
//! bound in full.
//!
//! [`DijkstraWorkspace::run_contracted`]: crate::DijkstraWorkspace::run_contracted

use crate::graph::{Graph, NodeId};
use leo_util::telemetry::Counter;

/// Telemetry: core graphs built ([`CoreGraph::build_from`] calls).
static RELAY_CONTRACTIONS: Counter = Counter::new("relay_contractions");
/// Telemetry: directed half-edges across every core graph built.
static CORE_GRAPH_EDGES: Counter = Counter::new("core_graph_edges");

/// Largest tail distance (in edge-weight units: seconds one way for
/// snapshot graphs) at which pruned transit legs are provably unable to
/// win. A contracted run that would relax beyond it falls back to the
/// full graph.
pub const CORE_D_MAX: f64 = 1.0;

/// Candidate margin factor: `8 · 2⁻⁵³`.
const MARGIN: f64 = 8.0 * (f64::EPSILON / 2.0);

/// One directed core half-edge: relaxing it from distance `d` yields
/// `(d + a) + b`. Direct edges carry `b = 0.0`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TwoLegEdge {
    /// Head node (a core node id).
    pub(crate) to: NodeId,
    /// First leg: the direct weight, or `w(u, transit)`.
    pub(crate) a: f64,
    /// Second leg: `0.0`, or `w(transit, v)`.
    pub(crate) b: f64,
}

/// CSR graph over the core nodes `0..n_core` of a [`Graph`], with every
/// transit node (id `≥ n_core`) contracted into two-leg edges. Node ids
/// are the full graph's, so callers query it without remapping.
///
/// Rebuild it per graph with [`CoreGraph::build_from`]; all buffers are
/// reused across builds.
#[derive(Debug, Clone, Default)]
pub struct CoreGraph {
    n_core: usize,
    offsets: Vec<u32>,
    adj: Vec<TwoLegEdge>,
    /// False when some transit node reachable from the core links to
    /// another transit node: two-leg edges cannot express that path, so
    /// every run falls back to the full graph.
    exact: bool,
    /// Build scratch: `stamp[v] == gen` iff `best[v]` holds the current
    /// core node's minimum two-leg sum to `v`.
    stamp: Vec<u32>,
    best: Vec<f64>,
    gen: u32,
}

impl CoreGraph {
    /// An empty core graph; buffers grow on the first build.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of core nodes.
    pub fn num_nodes(&self) -> usize {
        self.n_core
    }

    /// Number of directed half-edges.
    pub fn num_edges(&self) -> usize {
        self.adj.len()
    }

    /// Whether runs on this graph can be answered without falling back
    /// (no transit-to-transit edge was found).
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// Outgoing half-edges of core node `u`.
    #[inline]
    pub(crate) fn neighbors(&self, u: NodeId) -> &[TwoLegEdge] {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        &self.adj[lo..hi]
    }

    /// Rebuild from `g`, keeping nodes `0..n_core` and contracting every
    /// node `≥ n_core`. One pass per core node: its direct core
    /// neighbours first, then the two-leg edges through its transit
    /// neighbours (a first sweep finds each head's minimum leg sum in a
    /// dense stamp array, a second emits the candidates within the
    /// margin).
    // lint: hot-path
    pub fn build_from(&mut self, g: &Graph, n_core: usize) {
        let n_core = n_core.min(g.num_nodes());
        self.n_core = n_core;
        self.exact = true;
        self.offsets.clear();
        self.adj.clear();
        if self.stamp.len() < n_core {
            self.stamp.resize(n_core, 0);
            self.best.resize(n_core, f64::INFINITY);
        }
        let core = n_core as NodeId;
        for u in 0..core {
            self.offsets.push(self.adj.len() as u32);
            self.gen = self.gen.wrapping_add(1);
            if self.gen == 0 {
                self.stamp.fill(0);
                self.gen = 1;
            }
            let gen = self.gen;
            for h in g.neighbors(u) {
                if h.to < core {
                    self.adj.push(TwoLegEdge {
                        to: h.to,
                        a: h.weight,
                        b: 0.0,
                    });
                    continue;
                }
                for h2 in g.neighbors(h.to) {
                    let v = h2.to;
                    if v >= core {
                        self.exact = false;
                        continue;
                    }
                    if v == u {
                        continue;
                    }
                    let s = h.weight + h2.weight;
                    let vi = v as usize;
                    if self.stamp[vi] != gen {
                        self.stamp[vi] = gen;
                        self.best[vi] = s;
                    } else if s < self.best[vi] {
                        self.best[vi] = s;
                    }
                }
            }
            for h in g.neighbors(u) {
                if h.to < core {
                    continue;
                }
                for h2 in g.neighbors(h.to) {
                    let v = h2.to;
                    if v >= core || v == u {
                        continue;
                    }
                    let m = self.best[v as usize];
                    if h.weight + h2.weight <= m + MARGIN * (CORE_D_MAX + m) {
                        self.adj.push(TwoLegEdge {
                            to: v,
                            a: h.weight,
                            b: h2.weight,
                        });
                    }
                }
            }
        }
        self.offsets.push(self.adj.len() as u32);
        RELAY_CONTRACTIONS.add(1);
        CORE_GRAPH_EDGES.add(self.adj.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::DijkstraWorkspace;

    /// Sats 0, 1; city 2 on sat 0, city 3 on sat 1; relays 4, 5 both
    /// bridging the sats, relay 6 hanging off sat 1 alone.
    fn bent_pipe() -> Graph {
        let mut b = GraphBuilder::new(7);
        b.add_edge(2, 0, 0.004);
        b.add_edge(3, 1, 0.005);
        b.add_edge(4, 0, 0.003);
        b.add_edge(4, 1, 0.006);
        b.add_edge(5, 0, 0.0045);
        b.add_edge(5, 1, 0.0046);
        b.add_edge(6, 1, 0.002);
        b.build()
    }

    #[test]
    fn contracts_relays_into_two_leg_edges() {
        let g = bent_pipe();
        let mut core = CoreGraph::new();
        core.build_from(&g, 4);
        assert_eq!(core.num_nodes(), 4);
        assert!(core.is_exact());
        // Sat 0: city 2 direct, sat 1 via relay 4 (0.009) only — relay
        // 5's 0.0091 is far outside the margin.
        let e0 = core.neighbors(0);
        assert_eq!(e0.len(), 2);
        assert_eq!((e0[0].to, e0[0].a, e0[0].b), (2, 0.004, 0.0));
        assert_eq!((e0[1].to, e0[1].a, e0[1].b), (1, 0.003, 0.006));
        // Relay 6 has a single satellite neighbour: no edge from it.
        assert_eq!(core.neighbors(1).len(), 2);
        assert_eq!(core.neighbors(2).len(), 1);
        assert_eq!(core.num_edges(), 6);
    }

    #[test]
    fn near_tie_relays_become_parallel_edges() {
        // Two relays whose leg sums differ by one ulp: both must survive.
        let w = 0.0045f64;
        let w_up = f64::from_bits(w.to_bits() + 1);
        let mut b = GraphBuilder::new(4);
        b.add_edge(2, 0, w);
        b.add_edge(2, 1, w);
        b.add_edge(3, 0, w_up);
        b.add_edge(3, 1, w);
        let g = b.build();
        let mut core = CoreGraph::new();
        core.build_from(&g, 2);
        assert_eq!(core.neighbors(0).len(), 2);
        assert_eq!(core.neighbors(1).len(), 2);
    }

    #[test]
    fn transit_to_transit_edge_marks_inexact() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 2, 1.0);
        b.add_edge(2, 3, 1.0);
        b.add_edge(3, 1, 1.0);
        let g = b.build();
        let mut core = CoreGraph::new();
        core.build_from(&g, 2);
        assert!(!core.is_exact());
        // The run still answers exactly, through the full graph.
        let mut ws = DijkstraWorkspace::new();
        let d = ws.run_contracted(&core, &g, 0, &[1]).dist(1);
        assert_eq!(d, 3.0);
        assert_eq!(ws.contract_fallbacks(), 1);
    }

    #[test]
    fn runs_past_d_max_fall_back_to_the_full_graph() {
        // City 2 – sat 0 – relay 4 – sat 1 – city 3, 1.3 s end to end.
        let mut b = GraphBuilder::new(5);
        b.add_edge(2, 0, 0.1);
        b.add_edge(0, 4, 0.6);
        b.add_edge(4, 1, 0.6);
        b.add_edge(1, 3, 0.05);
        let g = b.build();
        let mut core = CoreGraph::new();
        core.build_from(&g, 4);
        let mut ws = DijkstraWorkspace::new();
        let full = ws.run_multi(&g, 2, None, &[3]).dist(3);

        // Sat 0 pops at 0.1 s: within D_MAX, answered on the core.
        assert_eq!(ws.run_contracted(&core, &g, 2, &[0]).dist(0), 0.1);
        assert_eq!(ws.contract_fallbacks(), 0);
        // Sat 1 pops at 1.3 s > D_MAX: the source reruns on `g`.
        let view = ws.run_contracted(&core, &g, 2, &[3]);
        assert_eq!(view.dist(3).to_bits(), full.to_bits());
        assert!(view.extract_path(3).is_some(), "fallback runs keep paths");
        assert_eq!(ws.contract_fallbacks(), 1);
    }

    #[test]
    fn contracted_view_reports_core_distances_only() {
        let g = bent_pipe();
        let mut core = CoreGraph::new();
        core.build_from(&g, 4);
        let mut ws = DijkstraWorkspace::new();
        let view = ws.run_contracted(&core, &g, 2, &[]);
        // City 2 → sat 0 → relay 4 → sat 1 → city 3, summed left to right.
        let want: f64 = ((0.004 + 0.003) + 0.006) + 0.005;
        assert_eq!(view.dist(3).to_bits(), want.to_bits());
        assert!(!view.reached(4), "transit nodes are not in the core");
        assert!(view.extract_path(3).is_none());
        assert_eq!(ws.contract_fallbacks(), 0);
    }

    #[test]
    fn rebuild_reuses_buffers_and_matches_fresh() {
        let g = bent_pipe();
        let mut reused = CoreGraph::new();
        reused.build_from(&g, 2);
        reused.build_from(&g, 4);
        let mut fresh = CoreGraph::new();
        fresh.build_from(&g, 4);
        assert_eq!(reused.num_edges(), fresh.num_edges());
        for u in 0..4 {
            let (a, b) = (reused.neighbors(u), fresh.neighbors(u));
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(
                    (x.to, x.a.to_bits(), x.b.to_bits()),
                    (y.to, y.a.to_bits(), y.b.to_bits())
                );
            }
        }
    }
}
