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
//! **Masks and paths.** [`DijkstraWorkspace::contracted_path`] answers a
//! masked point-to-point query (the k edge-disjoint routing's) on the
//! same core graph. Masks stay on the full graph's edge ids: a masked
//! direct edge is skipped by id, and the two-leg rows at the core ends
//! of masked transit legs are re-derived from `g` without them
//! ([`DirtyRows`]). The path itself is then walked back on `g` with
//! Dijkstra's own tie rule ([`recover_path`]), so it is the full graph's
//! path, edge for edge.
//!
//! [`DijkstraWorkspace::run_contracted`]: crate::DijkstraWorkspace::run_contracted
//! [`DijkstraWorkspace::contracted_path`]: crate::DijkstraWorkspace::contracted_path

use crate::graph::{EdgeId, Graph, NodeId};
use crate::shortest::{Path, SsspView};
use leo_util::telemetry::Counter;

/// Telemetry: core graphs built ([`CoreGraph::build_from`] calls).
static RELAY_CONTRACTIONS: Counter = Counter::new("relay_contractions");
/// Telemetry: directed half-edges across every core graph built.
static CORE_GRAPH_EDGES: Counter = Counter::new("core_graph_edges");
/// Telemetry: hot rows re-derived from the full graph by masked runs
/// (see [`DirtyRows`]).
static DIRTY_ROWS: Counter = Counter::new("contract_dirty_rows");

/// Largest tail distance (in edge-weight units: seconds one way for
/// snapshot graphs) at which pruned transit legs are provably unable to
/// win. A contracted run that would relax beyond it falls back to the
/// full graph.
pub const CORE_D_MAX: f64 = 1.0;

/// Candidate margin factor: `8 · 2⁻⁵³`.
const MARGIN: f64 = 8.0 * (f64::EPSILON / 2.0);

/// Lightest edge path recovery accepts, `2⁻⁵²`: from any distance
/// `d < 2` (recovered paths end within [`CORE_D_MAX`]), `fl(d + w) > d`.
const MIN_STRICT_WEIGHT: f64 = f64::EPSILON;

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

/// What a core half-edge `u → v` stands for in the full graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Via {
    /// A direct core edge, by id.
    Edge(EdgeId),
    /// The legs `(u, relay)` and `(relay, v)`, by id; `least` iff their
    /// sum is the minimum over every relay of the pair.
    Relay {
        relay: NodeId,
        legs: [EdgeId; 2],
        least: bool,
    },
}

impl Via {
    /// The same edge seen from its other end.
    fn reversed(self) -> Via {
        match self {
            Via::Relay {
                relay,
                legs: [up, down],
                least,
            } => Via::Relay {
                relay,
                legs: [down, up],
                least,
            },
            edge => edge,
        }
    }
}

/// Dense per-head scratch for deriving one core node's two-leg hops:
/// `stamp[v] == gen` iff `best[v]` holds the row's minimum leg sum to
/// `v`. Shared by the core-graph build and the full rescan of a masked
/// run's hot row, so both prune by the very same rule.
#[derive(Debug, Clone, Default)]
struct LegScan {
    stamp: Vec<u32>,
    best: Vec<f64>,
    gen: u32,
}

impl LegScan {
    /// Call `emit(v, a, b, via)` for every hop `u → r → v` through a
    /// transit node `r` over two legs that are not `skip`ped, keeping
    /// those whose `a + b` lies within the margin of the minimum over
    /// `u`'s unskipped hops to `v` (a first sweep finds each head's
    /// minimum, a second emits). False when a transit neighbour of `u`
    /// links to another transit node.
    #[inline]
    fn row(
        &mut self,
        g: &Graph,
        n_core: usize,
        u: NodeId,
        skip: impl Fn(EdgeId) -> bool,
        mut emit: impl FnMut(NodeId, f64, f64, Via),
    ) -> bool {
        if self.stamp.len() < n_core {
            // lint: allow(hot-path-alloc) grows once to the peak core size, then the guard above makes every resize a no-op
            self.stamp.resize(n_core, 0);
            // lint: allow(hot-path-alloc) grows once to the peak core size, then the guard above makes every resize a no-op
            self.best.resize(n_core, f64::INFINITY);
        }
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.stamp.fill(0);
            self.gen = 1;
        }
        let gen = self.gen;
        let core = n_core as NodeId;
        let mut exact = true;
        for h in g.neighbors(u) {
            if h.to < core || skip(h.edge) {
                continue;
            }
            for h2 in g.neighbors(h.to) {
                let v = h2.to;
                if v >= core {
                    exact = false;
                    continue;
                }
                if v == u || skip(h2.edge) {
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
            if h.to < core || skip(h.edge) {
                continue;
            }
            for h2 in g.neighbors(h.to) {
                let v = h2.to;
                if v >= core || v == u || skip(h2.edge) {
                    continue;
                }
                let m = self.best[v as usize];
                let s = h.weight + h2.weight;
                if s <= m + MARGIN * (CORE_D_MAX + m) {
                    let via = Via::Relay {
                        relay: h.to,
                        legs: [h.edge, h2.edge],
                        least: s == m,
                    };
                    emit(v, h.weight, h2.weight, via);
                }
            }
        }
        exact
    }
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
    /// Parallel to `adj`, read only by masked runs and path recovery:
    /// what each half-edge stands for in the full graph.
    via: Vec<Via>,
    /// False when some transit node reachable from the core links to
    /// another transit node: two-leg edges cannot express that path, so
    /// every run falls back to the full graph.
    exact: bool,
    /// Every edge at a core node weighs at least [`MIN_STRICT_WEIGHT`],
    /// the premise of path recovery.
    strict: bool,
    scan: LegScan,
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

    /// Whether paths can be recovered from core distances: the graph is
    /// exact and no edge at a core node is lighter than
    /// [`MIN_STRICT_WEIGHT`].
    pub(crate) fn recovers_paths(&self) -> bool {
        self.exact && self.strict
    }

    /// Outgoing half-edges of core node `u`.
    #[inline]
    pub(crate) fn neighbors(&self, u: NodeId) -> &[TwoLegEdge] {
        &self.adj[self.range(u)]
    }

    /// [`Via`] of each of [`CoreGraph::neighbors`]`(u)`, entry for entry.
    #[inline]
    fn via(&self, u: NodeId) -> &[Via] {
        &self.via[self.range(u)]
    }

    #[inline]
    fn range(&self, u: NodeId) -> std::ops::Range<usize> {
        self.offsets[u as usize] as usize..self.offsets[u as usize + 1] as usize
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
        self.via.clear();
        let core = n_core as NodeId;
        let mut min_weight = f64::INFINITY;
        for u in 0..core {
            self.offsets.push(self.adj.len() as u32);
            for h in g.neighbors(u) {
                min_weight = min_weight.min(h.weight);
                if h.to < core {
                    self.adj.push(TwoLegEdge {
                        to: h.to,
                        a: h.weight,
                        b: 0.0,
                    });
                    self.via.push(Via::Edge(h.edge));
                }
            }
            let (adj, via) = (&mut self.adj, &mut self.via);
            self.exact &= self.scan.row(
                g,
                n_core,
                u,
                |_| false,
                |v, a, b, how| {
                    adj.push(TwoLegEdge { to: v, a, b });
                    via.push(how);
                },
            );
        }
        self.offsets.push(self.adj.len() as u32);
        self.strict = min_weight >= MIN_STRICT_WEIGHT;
        RELAY_CONTRACTIONS.add(1);
        CORE_GRAPH_EDGES.add(self.adj.len() as u64);
    }
}

/// One hop of a [`DirtyRows`] list: `(d + a) + b` to `to`, then the
/// index of the list's next hop.
#[derive(Debug, Clone, Copy)]
struct DirtyHop {
    to: NodeId,
    a: f64,
    b: f64,
    via: Via,
    next: u32,
}

/// End of a [`DirtyRows`] hop list.
const NIL: u32 = u32::MAX;

/// The two-leg hops a masked run relaxes instead of the shared core
/// rows. A core node is **hot** when it is the core end of a masked
/// transit leg. A two-leg edge of the [`CoreGraph`] between two cold
/// nodes uses two unmasked legs — a masked one would have made its end
/// hot — and its pair's pruning saw exactly the unmasked relays, so it
/// stays valid. Every hop at a hot node is re-derived under the mask
/// with the build's margin rule ([`PairScratch::derive`]), and listed
/// twice: on the hot node's own row and, reversed, on a cold head's
/// row.
///
/// Rebuilt per mask by [`DirtyRows::rederive`]; buffers are reused.
#[derive(Debug, Default)]
pub(crate) struct DirtyRows {
    /// `hot[v] == gen` iff core node `v` is hot.
    hot: Vec<u32>,
    /// `first[v]` heads `v`'s hop list where `listed[v] == gen`.
    first: Vec<u32>,
    listed: Vec<u32>,
    hops: Vec<DirtyHop>,
    hot_nodes: Vec<NodeId>,
    gen: u32,
    pairs: PairScratch,
}

impl DirtyRows {
    /// Derive the hot rows of `core` (exact) for `mask`, whose set
    /// entries are exactly the edges listed in `masked`.
    // lint: hot-path
    pub(crate) fn rederive(
        &mut self,
        g: &Graph,
        core: &CoreGraph,
        mask: &[bool],
        masked: &[EdgeId],
    ) {
        let n_core = core.num_nodes();
        if self.hot.len() < n_core {
            self.hot.resize(n_core, 0);
            self.first.resize(n_core, NIL);
            self.listed.resize(n_core, 0);
        }
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.hot.fill(0);
            self.listed.fill(0);
            self.gen = 1;
        }
        let gen = self.gen;
        self.hops.clear();
        self.hot_nodes.clear();
        let n = n_core as NodeId;
        for &e in masked {
            let (x, y, _) = g.edge(e);
            for (c, t) in [(x, y), (y, x)] {
                if c < n && t >= n && self.hot[c as usize] != gen {
                    self.hot[c as usize] = gen;
                    self.hot_nodes.push(c);
                }
            }
        }
        DIRTY_ROWS.add(self.hot_nodes.len() as u64);
        let Self {
            hot,
            first,
            listed,
            hops,
            hot_nodes,
            pairs,
            ..
        } = self;
        let mut push = |from: NodeId, to: NodeId, a: f64, b: f64, via: Via| {
            let f = from as usize;
            let next = if listed[f] == gen { first[f] } else { NIL };
            listed[f] = gen;
            first[f] = hops.len() as u32;
            hops.push(DirtyHop {
                to,
                a,
                b,
                via,
                next,
            });
        };
        for &u in hot_nodes.iter() {
            pairs.derive(g, core, u, mask, |v, a, b, via| {
                push(u, v, a, b, via);
                if hot[v as usize] != gen {
                    push(v, u, b, a, via.reversed());
                }
            });
        }
    }

    /// Whether core node `v` is hot under the current mask.
    #[inline]
    fn is_hot(&self, v: NodeId) -> bool {
        self.hot[v as usize] == self.gen
    }

    /// The re-derived hops out of core node `u`.
    #[inline]
    fn hops(&self, u: NodeId) -> impl Iterator<Item = (NodeId, f64, f64, Via)> + '_ {
        let mut i = if self.listed[u as usize] == self.gen {
            self.first[u as usize]
        } else {
            NIL
        };
        std::iter::from_fn(move || {
            let h = self.hops.get(i as usize)?;
            i = h.next;
            Some((h.to, h.a, h.b, h.via))
        })
    }
}

/// Scratch for re-deriving one hot node's two-leg hops under a mask,
/// pair by pair. Stamps are per derived row: `ok[v]`/`broken[v]` for
/// core heads, `leg_at[r]` (with `leg[r]`) for the hot node's unmasked
/// legs by transit node.
#[derive(Debug, Default)]
struct PairScratch {
    ok: Vec<u32>,
    broken: Vec<u32>,
    leg_at: Vec<u32>,
    leg: Vec<(f64, EdgeId)>,
    heads: Vec<NodeId>,
    gen: u32,
    scan: LegScan,
}

impl PairScratch {
    /// Emit `u`'s two-leg hops under `mask` as `(v, a, b, via)`: the
    /// very hops [`LegScan::row`] would keep with the masked legs
    /// skipped, without scanning every relay of `u` for every pair.
    ///
    /// A pair `(u, v)` whose shared row still holds a `least` hop with
    /// both legs unmasked keeps the pair's minimum `m`, so its masked
    /// kept set is the shared one minus the masked hops — same `m`,
    /// same margin. Every other pair is **broken** and is re-derived
    /// from the relays `u` and `v` share, found by stamping `u`'s
    /// unmasked legs and scanning `v`'s. A relay with parallel legs to
    /// `u` defeats the stamp; then the whole row is rescanned.
    fn derive(
        &mut self,
        g: &Graph,
        core: &CoreGraph,
        u: NodeId,
        mask: &[bool],
        mut emit: impl FnMut(NodeId, f64, f64, Via),
    ) {
        let n_core = core.num_nodes();
        if self.ok.len() < n_core {
            // lint: allow(hot-path-alloc) grows once to the peak core size, then the guard above makes every resize a no-op
            self.ok.resize(n_core, 0);
            // lint: allow(hot-path-alloc) grows once to the peak core size, then the guard above makes every resize a no-op
            self.broken.resize(n_core, 0);
        }
        if self.leg_at.len() < g.num_nodes() {
            // lint: allow(hot-path-alloc) grows once to the peak node count, then the guard above makes every resize a no-op
            self.leg_at.resize(g.num_nodes(), 0);
            // lint: allow(hot-path-alloc) grows once to the peak node count, then the guard above makes every resize a no-op
            self.leg.resize(g.num_nodes(), (0.0, 0));
        }
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.ok.fill(0);
            self.broken.fill(0);
            self.leg_at.fill(0);
            self.gen = 1;
        }
        let gen = self.gen;
        let masked = |legs: [EdgeId; 2]| mask[legs[0] as usize] || mask[legs[1] as usize];
        for h in g.neighbors(u) {
            let r = h.to as usize;
            if r < n_core || mask[h.edge as usize] {
                continue;
            }
            if self.leg_at[r] == gen {
                self.scan.row(g, n_core, u, |e| mask[e as usize], emit);
                return;
            }
            self.leg_at[r] = gen;
            self.leg[r] = (h.weight, h.edge);
        }
        let row = || core.neighbors(u).iter().zip(core.via(u));
        for (e, via) in row() {
            if let Via::Relay { legs, least, .. } = *via {
                if least && !masked(legs) {
                    self.ok[e.to as usize] = gen;
                }
            }
        }
        self.heads.clear();
        for (e, &via) in row() {
            if let Via::Relay { legs, .. } = via {
                let v = e.to as usize;
                if self.ok[v] == gen {
                    if !masked(legs) {
                        emit(e.to, e.a, e.b, via);
                    }
                } else if self.broken[v] != gen {
                    self.broken[v] = gen;
                    self.heads.push(e.to);
                }
            }
        }
        for &v in &self.heads {
            let shared = || {
                g.neighbors(v)
                    .iter()
                    .filter(|h| self.leg_at[h.to as usize] == gen && !mask[h.edge as usize])
            };
            let mut m = f64::INFINITY;
            for h in shared() {
                m = m.min(self.leg[h.to as usize].0 + h.weight);
            }
            for h in shared() {
                let (a, up) = self.leg[h.to as usize];
                let s = a + h.weight;
                if s <= m + MARGIN * (CORE_D_MAX + m) {
                    let via = Via::Relay {
                        relay: h.to,
                        legs: [up, h.edge],
                        least: s == m,
                    };
                    emit(v, a, h.weight, via);
                }
            }
        }
    }
}

/// The core rows of `g` under an edge mask: a [`CoreGraph`] with its
/// masked direct edges dropped and the two-leg edges at hot nodes
/// swapped for the mask's re-derived hops (`dirty`).
#[derive(Clone, Copy)]
pub(crate) struct MaskedRows<'a> {
    pub(crate) core: &'a CoreGraph,
    pub(crate) dirty: &'a DirtyRows,
    pub(crate) mask: &'a [bool],
}

impl<'a> MaskedRows<'a> {
    /// Core node `u`'s half-edges as `(head, a, b, via)`.
    #[inline]
    pub(crate) fn row(self, u: NodeId) -> impl Iterator<Item = (NodeId, f64, f64, Via)> + 'a {
        let dirty = self.dirty;
        let hot_u = dirty.is_hot(u);
        let shared = self
            .core
            .neighbors(u)
            .iter()
            .zip(self.core.via(u))
            .filter(move |&(e, via)| match *via {
                Via::Edge(id) => !self.mask[id as usize],
                Via::Relay { .. } => !hot_u && !dirty.is_hot(e.to),
            })
            .map(|(e, &via)| (e.to, e.a, e.b, via));
        shared.chain(dirty.hops(u))
    }
}

/// The path that full-graph Dijkstra — [`DijkstraWorkspace::run`] with
/// `rows.mask` and early exit at `target` — extracts, rebuilt from the
/// core distances in `view` of an exact contracted run to `target` on
/// `rows`. `None` if some step finds no parent, which exact, strict
/// inputs rule out.
///
/// Every edge weighs at least [`MIN_STRICT_WEIGHT`], so each relaxation
/// strictly raises a distance and the full run settles nodes in
/// strictly increasing `(dist, id)` order. The parent of `v` is thus
/// the unmasked neighbour `x` with the smallest `(D(x), x)` among those
/// where `fl(D(x) + w) == D(v)`, over the first such edge in `x`'s
/// adjacency. A transit node's distance is the minimum of
/// `fl(D(u) + w)` over its unmasked core neighbours settled by the run:
/// any other neighbour has `D ≥ D(target)`, too far to set it for a
/// node on the path. At a core node `v`, only the transit nodes on
/// `v`'s own core row can be parents: a transit parent `r` reached from
/// `u` gives the pair `(u, v)` the value `D(v)`, the least possible, so
/// pruning kept `r` for that pair.
///
/// [`DijkstraWorkspace::run`]: crate::DijkstraWorkspace::run
pub(crate) fn recover_path(
    view: SsspView<'_>,
    g: &Graph,
    rows: MaskedRows<'_>,
    target: NodeId,
) -> Option<Path> {
    let mask = rows.mask;
    let transit_dist = |r: NodeId| -> f64 {
        let mut d = f64::INFINITY;
        for h in g.neighbors(r) {
            let c = view.dist(h.to) + h.weight;
            if c < d && !mask[h.edge as usize] {
                d = c;
            }
        }
        d
    };
    let total_weight = view.dist(target);
    let mut nodes = vec![target];
    let mut edges = Vec::new();
    let (mut v, mut dv) = (target, total_weight);
    while v != view.source() {
        let mut parent: Option<(f64, NodeId)> = None;
        let mut offer = |dx: f64, x: NodeId| {
            if parent.is_none_or(|p| (dx, x) < p) {
                parent = Some((dx, x));
            }
        };
        if (v as usize) < rows.core.num_nodes() {
            for (x, a, b, via) in rows.row(v) {
                let dx = view.dist(x);
                match via {
                    Via::Edge(_) if dx + a == dv => offer(dx, x),
                    // The hop `x → r → v` takes the legs in reverse.
                    Via::Relay { relay: r, .. } if (dx + b) + a == dv => {
                        let dr = transit_dist(r);
                        if dr + a == dv {
                            offer(dr, r);
                        }
                    }
                    _ => {}
                }
            }
        } else {
            for h in g.neighbors(v) {
                let dx = view.dist(h.to);
                if dx + h.weight == dv && !mask[h.edge as usize] {
                    offer(dx, h.to);
                }
            }
        }
        let (dx, x) = parent?;
        let e = g
            .neighbors(x)
            .iter()
            .find(|h| h.to == v && !mask[h.edge as usize] && dx + h.weight == dv)?
            .edge;
        nodes.push(x);
        edges.push(e);
        (v, dv) = (x, dx);
    }
    nodes.reverse();
    edges.reverse();
    Some(Path {
        nodes,
        edges,
        total_weight,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::{k_edge_disjoint_paths, k_edge_disjoint_paths_contracted, DijkstraWorkspace};

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

        // Path queries fall back the same way and return `g`'s paths.
        let want = k_edge_disjoint_paths(&g, 2, 3, 2, None);
        assert_eq!(want.len(), 1);
        let got = k_edge_disjoint_paths_contracted(&core, &g, 2, 3, 2, None, &mut ws);
        assert_eq!(got, want);
        // The path query falls back; the second, under the path's mask,
        // exhausts within D_MAX and is answered on the core.
        assert_eq!(ws.contract_fallbacks(), 2);
    }

    #[test]
    fn masked_minimizer_yields_the_next_relay() {
        // Relay 4 is sat 0 ↔ sat 1's minimizer; relay 5, pruned from the
        // core graph, is next. Masking a leg of 4 makes sats 0 and 1 hot.
        let g = bent_pipe();
        let mut core = CoreGraph::new();
        core.build_from(&g, 4);
        assert_eq!(core.neighbors(0).len(), 2, "relay 5 is pruned");
        let mut ws = DijkstraWorkspace::new();
        let got = k_edge_disjoint_paths_contracted(&core, &g, 2, 3, 4, None, &mut ws);
        assert_eq!(got, k_edge_disjoint_paths(&g, 2, 3, 4, None));
        assert_eq!(got.len(), 1, "the city uplinks are bridges");

        let mut disabled = vec![false; g.num_edges()];
        disabled[2] = true; // relay 4 – sat 0
        let got = k_edge_disjoint_paths_contracted(&core, &g, 2, 3, 1, Some(&disabled), &mut ws);
        assert_eq!(got, k_edge_disjoint_paths(&g, 2, 3, 1, Some(&disabled)));
        assert_eq!(got[0].nodes, vec![2, 0, 5, 1, 3]);
        assert_eq!(ws.contract_fallbacks(), 0);
    }

    #[test]
    fn light_edges_fall_back_for_paths() {
        // A zero-weight uplink voids the strict settle order the path
        // walk relies on: the query answers on `g`.
        let mut b = GraphBuilder::new(5);
        b.add_edge(2, 0, 0.0);
        b.add_edge(4, 0, 0.003);
        b.add_edge(4, 1, 0.006);
        b.add_edge(3, 1, 0.005);
        let g = b.build();
        let mut core = CoreGraph::new();
        core.build_from(&g, 4);
        let mut ws = DijkstraWorkspace::new();
        let got = k_edge_disjoint_paths_contracted(&core, &g, 2, 3, 1, None, &mut ws);
        assert_eq!(got, k_edge_disjoint_paths(&g, 2, 3, 1, None));
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
