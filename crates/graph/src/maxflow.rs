//! Dinic's maximum-flow algorithm on floating-point capacities.
//!
//! Used to reproduce the "lax" throughput model of prior work (del Portillo
//! et al. 2019) that the paper criticizes in §3: all traffic entering the
//! constellation may exit anywhere, so the network is treated as a single
//! max-flow instance from many sources to one large sink. Comparing that
//! number against the per-pair max-min-fair allocation (crate `leo-flow`)
//! shows how much the lax model overstates achievable throughput.

/// A directed flow network with f64 capacities.
///
/// Undirected links are modelled as two directed arcs of the same
/// capacity. Capacities below [`FlowNetwork::EPS`] are treated as zero.
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    /// Per-arc target node.
    to: Vec<u32>,
    /// Per-arc residual capacity.
    cap: Vec<f64>,
    /// Head of adjacency list per node (arc index), u32::MAX = none.
    head: Vec<u32>,
    /// Next arc in adjacency list.
    next: Vec<u32>,
}

impl FlowNetwork {
    /// Capacities below this are considered exhausted; guards against
    /// floating-point residue causing livelock.
    pub const EPS: f64 = 1e-9;

    /// Create a network with `n` nodes and no arcs.
    pub fn new(n: usize) -> Self {
        Self {
            to: Vec::new(),
            cap: Vec::new(),
            head: vec![u32::MAX; n],
            next: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.head.len()
    }

    fn push_arc(&mut self, u: u32, v: u32, c: f64) {
        let id = self.to.len() as u32;
        self.to.push(v);
        self.cap.push(c);
        self.next.push(self.head[u as usize]);
        self.head[u as usize] = id;
    }

    /// Add a directed edge `u → v` with capacity `c` (and its residual
    /// reverse arc).
    pub fn add_directed(&mut self, u: u32, v: u32, c: f64) {
        // lint: allow(panic-reachable) caller contract: capacities must be finite and non-negative or the residual network corrupts
        assert!(c >= 0.0 && c.is_finite());
        self.push_arc(u, v, c);
        self.push_arc(v, u, 0.0);
    }

    /// Add an undirected edge of capacity `c` in each direction.
    pub fn add_undirected(&mut self, u: u32, v: u32, c: f64) {
        // lint: allow(panic-reachable) caller contract: capacities must be finite and non-negative or the residual network corrupts
        assert!(c >= 0.0 && c.is_finite());
        self.push_arc(u, v, c);
        self.push_arc(v, u, c);
    }
}

/// Compute the maximum flow from `s` to `t`, consuming the network's
/// residual capacities.
pub fn max_flow(net: &mut FlowNetwork, s: u32, t: u32) -> f64 {
    // lint: allow(panic-reachable) degenerate query: max flow from a node to itself is rejected by contract
    assert_ne!(s, t);
    let n = net.num_nodes();
    let mut total = 0.0;
    // BFS level per node (−1 = unreached), current-arc DFS cursor per
    // node, and the BFS queue.
    let mut level = vec![-1i32; n];
    let mut it = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    loop {
        // BFS to build the level graph.
        level.fill(-1);
        level[s as usize] = 0;
        queue.clear();
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            let mut a = net.head[u as usize];
            while a != u32::MAX {
                let v = net.to[a as usize];
                if net.cap[a as usize] > FlowNetwork::EPS && level[v as usize] < 0 {
                    level[v as usize] = level[u as usize] + 1;
                    queue.push_back(v);
                }
                a = net.next[a as usize];
            }
        }
        if level[t as usize] < 0 {
            break;
        }
        it.copy_from_slice(&net.head);
        // DFS blocking flow.
        loop {
            let pushed = dfs(net, s, t, f64::INFINITY, &level, &mut it);
            if pushed <= FlowNetwork::EPS {
                break;
            }
            total += pushed;
        }
    }
    total
}

fn dfs(net: &mut FlowNetwork, u: u32, t: u32, limit: f64, level: &[i32], it: &mut [u32]) -> f64 {
    if u == t {
        return limit;
    }
    while it[u as usize] != u32::MAX {
        let a = it[u as usize];
        let v = net.to[a as usize];
        if net.cap[a as usize] > FlowNetwork::EPS && level[v as usize] == level[u as usize] + 1 {
            let pushed = dfs(net, v, t, limit.min(net.cap[a as usize]), level, it);
            if pushed > FlowNetwork::EPS {
                net.cap[a as usize] -= pushed;
                net.cap[(a ^ 1) as usize] += pushed;
                return pushed;
            }
        }
        it[u as usize] = net.next[a as usize];
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge() {
        let mut net = FlowNetwork::new(2);
        net.add_directed(0, 1, 5.0);
        assert!((max_flow(&mut net, 0, 1) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn classic_diamond() {
        // s=0, t=3; two routes of cap 3 and 2, plus cross edge.
        let mut net = FlowNetwork::new(4);
        net.add_directed(0, 1, 3.0);
        net.add_directed(0, 2, 2.0);
        net.add_directed(1, 3, 2.0);
        net.add_directed(2, 3, 3.0);
        net.add_directed(1, 2, 5.0);
        assert!((max_flow(&mut net, 0, 3) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_limits_flow() {
        let mut net = FlowNetwork::new(3);
        net.add_directed(0, 1, 100.0);
        net.add_directed(1, 2, 1.5);
        assert!((max_flow(&mut net, 0, 2) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn disconnected_is_zero() {
        let mut net = FlowNetwork::new(3);
        net.add_directed(0, 1, 5.0);
        assert_eq!(max_flow(&mut net, 0, 2), 0.0);
    }

    #[test]
    fn undirected_edge_carries_both_ways() {
        let mut net = FlowNetwork::new(2);
        net.add_undirected(0, 1, 4.0);
        assert!((max_flow(&mut net, 0, 1) - 4.0).abs() < 1e-9);
        let mut net2 = FlowNetwork::new(2);
        net2.add_undirected(0, 1, 4.0);
        assert!((max_flow(&mut net2, 1, 0) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn super_source_sink_pattern() {
        // Two sources (1,2) with supply 10 each, one sink 3 with demand 5:
        // flow is limited by the sink-side arc.
        let mut net = FlowNetwork::new(5);
        let (s, t) = (0u32, 4u32);
        net.add_directed(s, 1, 10.0);
        net.add_directed(s, 2, 10.0);
        net.add_directed(1, 3, 4.0);
        net.add_directed(2, 3, 4.0);
        net.add_directed(3, t, 5.0);
        assert!((max_flow(&mut net, s, t) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn fractional_capacities() {
        let mut net = FlowNetwork::new(3);
        net.add_directed(0, 1, 0.25);
        net.add_directed(0, 2, 0.5);
        net.add_directed(1, 2, 1.0);
        assert!((max_flow(&mut net, 0, 2) - 0.75).abs() < 1e-9);
    }
}
