//! Output invariants, computed here from first principles rather than
//! through the layers being measured. Each check counts as one attempted
//! operation; a failed check is a failed operation.

use crate::workloads::{LatencyOut, ThroughputRow};
use leo_core::{Mode, StudyContext};
use leo_graph::Path;

/// Mean Earth radius and the speed of light, as plain constants: the
/// speed-of-light floor must not depend on the geometry code it checks.
const EARTH_RADIUS_M: f64 = 6_371_000.0;
const C_M_S: f64 = 299_792_458.0;
/// Relative slack for floating-point comparisons of allocations.
const REL_EPS: f64 = 1e-9;

#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// What the first few failed checks found, for the report.
    pub first_failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failures.len() < 10 {
                self.first_failures.push(what());
            }
        }
    }
}

/// Haversine surface distance between two (lat, lon) points in radians.
fn surface_distance_m(a: (f64, f64), b: (f64, f64)) -> f64 {
    let s_lat = ((b.0 - a.0) / 2.0).sin();
    let s_lon = ((b.1 - a.1) / 2.0).sin();
    let h = s_lat * s_lat + a.0.cos() * b.0.cos() * s_lon * s_lon;
    2.0 * EARTH_RADIUS_M * h.sqrt().min(1.0).asin()
}

/// Per pair: every min RTT is at least the round trip at `c` along the
/// surface; hybrid (a superset of BP's graph) reaches every pair BP
/// reaches, on at least as many instants, and is never slower.
pub fn latency(ctx: &StudyContext, out: &LatencyOut, c: &mut Checks) {
    let bp = &out.0[0];
    let hy = &out.0[1];
    for (pi, pair) in ctx.pairs.iter().enumerate() {
        let (a, b) = (
            ctx.ground.cities[pair.src as usize].pos,
            ctx.ground.cities[pair.dst as usize].pos,
        );
        let floor_ms =
            2.0 * surface_distance_m((a.lat(), a.lon()), (b.lat(), b.lon())) / C_M_S * 1e3;
        for m in &out.0 {
            if let Some(rtt) = m.min_rtt_ms[pi] {
                c.check(rtt >= floor_ms * (1.0 - REL_EPS), || {
                    format!("pair {pi}: min RTT {rtt} ms below light floor {floor_ms} ms")
                });
            }
        }
        c.check(hy.reachable[pi] >= bp.reachable[pi], || {
            format!(
                "pair {pi}: hybrid reachable {} < BP {}",
                hy.reachable[pi], bp.reachable[pi]
            )
        });
        if let Some(b) = bp.min_rtt_ms[pi] {
            c.check(hy.min_rtt_ms[pi].is_some_and(|h| h <= b + 1e-9), || {
                format!(
                    "pair {pi}: hybrid min {:?} vs BP min {b}",
                    hy.min_rtt_ms[pi]
                )
            });
        }
    }
}

/// Per result: routed pairs and flows within their counts; per
/// constellation and k: hybrid routes at least as many pairs as BP.
pub fn throughput(rows: &[ThroughputRow], c: &mut Checks) {
    for r in rows {
        let tag = || format!("{:?} {:?} k={}", r.kind, r.mode, r.k);
        c.check(r.routed_pairs <= r.pairs, || {
            format!("{}: routed {} > pairs", tag(), r.routed_pairs)
        });
        c.check(r.flows <= r.k * r.pairs, || {
            format!("{}: flows {} > k·pairs", tag(), r.flows)
        });
        c.check(
            r.aggregate_gbps.is_finite() && r.aggregate_gbps >= 0.0,
            || format!("{}: aggregate {}", tag(), r.aggregate_gbps),
        );
        if r.mode == Mode::Hybrid {
            if let Some(bp) = rows
                .iter()
                .find(|b| b.kind == r.kind && b.k == r.k && b.mode == Mode::BpOnly)
            {
                c.check(r.routed_pairs >= bp.routed_pairs, || {
                    format!(
                        "{}: hybrid routed {} < BP {}",
                        tag(),
                        r.routed_pairs,
                        bp.routed_pairs
                    )
                });
            }
        }
    }
}

/// One fraction per instant, each in [0, 1].
pub fn disconnected(vals: &[f64], instants: usize, c: &mut Checks) {
    c.check(vals.len() == instants, || {
        format!("{} fractions for {instants} instants", vals.len())
    });
    for (i, &f) in vals.iter().enumerate() {
        c.check((0.0..=1.0).contains(&f), || {
            format!("instant {i}: fraction {f}")
        });
    }
}

/// Max-min feasibility and the bottleneck property, with link loads
/// re-summed here from the rates: no link carries more than its
/// capacity (checked on every link a flow crosses), and every flow crosses a saturated link on which no other
/// flow gets a higher rate.
pub fn allocation(capacity: &[f64], flows: &[Vec<u32>], rates: &[f64], c: &mut Checks) {
    let mut load = vec![0.0f64; capacity.len()];
    let mut top = vec![0.0f64; capacity.len()];
    let mut crossed = vec![false; capacity.len()];
    for (f, path) in flows.iter().enumerate() {
        for &l in path {
            load[l as usize] += rates[f];
            top[l as usize] = top[l as usize].max(rates[f]);
            crossed[l as usize] = true;
        }
    }
    let slack = |cap: f64| REL_EPS * cap.max(1.0);
    for l in (0..capacity.len()).filter(|&l| crossed[l]) {
        let (u, cap) = (load[l], capacity[l]);
        c.check(u <= cap + slack(cap), || {
            format!("link {l}: load {u} over capacity {cap}")
        });
    }
    for (f, path) in flows.iter().enumerate() {
        let bottlenecked = path.iter().any(|&l| {
            let l = l as usize;
            load[l] >= capacity[l] - slack(capacity[l]) && rates[f] >= top[l] - slack(top[l])
        });
        c.check(bottlenecked, || {
            format!("flow {f} (rate {}) has no bottleneck link", rates[f])
        });
    }
}

/// The paths found for one pair share no edge.
pub fn edge_disjoint(pair: usize, paths: &[Path], scratch: &mut Vec<u32>, c: &mut Checks) {
    scratch.clear();
    for p in paths {
        scratch.extend_from_slice(&p.edges);
    }
    scratch.sort_unstable();
    let shared = scratch.windows(2).find(|w| w[0] == w[1]).map(|w| w[0]);
    c.check(shared.is_none(), || {
        format!("pair {pair}: edge {shared:?} used by two paths")
    });
}
