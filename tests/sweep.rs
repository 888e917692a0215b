//! Property test: a [`TimeSweep`] stepped through *random* time
//! sequences is indistinguishable — down to edge-weight bits — from
//! building every snapshot from scratch with `snapshot_bundle`.
//!
//! The leo-core unit tests pin a handful of hand-picked instants; this
//! suite drives the incremental engine with randomized times, step
//! sizes (including backwards jumps), mode subsets, and two different
//! constellation geometries, so any drift the incremental path could
//! accumulate — stale cell membership, missed transitions, reused link
//! buffers — shows up as a bit-level mismatch.

use leo_core::{ExperimentScale, Mode, NetworkSnapshot, StudyContext, TimeSweep};
use leo_util::check::check_with;
use leo_util::{check_assert, check_assert_eq};

/// Tiny-scale context with the requested constellation swapped in.
fn ctx(kind: leo_core::ConstellationKind) -> StudyContext {
    let mut cfg = ExperimentScale::Tiny.config();
    cfg.constellation = kind;
    StudyContext::build(cfg)
}

/// Bit-exact snapshot comparison (graph topology, weights, metadata).
fn assert_identical(
    a: &NetworkSnapshot,
    b: &NetworkSnapshot,
    what: &str,
) -> Result<(), leo_util::check::CaseError> {
    check_assert_eq!(a.t_s.to_bits(), b.t_s.to_bits(), "{what}: t_s");
    check_assert_eq!(a.mode, b.mode, "{what}: mode");
    check_assert_eq!(a.nodes, b.nodes, "{what}: node table");
    check_assert_eq!(a.edges, b.edges, "{what}: edge metadata");
    check_assert_eq!(a.num_satellites, b.num_satellites, "{what}: num_satellites");
    check_assert_eq!(a.num_aircraft, b.num_aircraft, "{what}: num_aircraft");
    check_assert_eq!(
        a.graph.num_nodes(),
        b.graph.num_nodes(),
        "{what}: node count"
    );
    check_assert_eq!(
        a.graph.num_edges(),
        b.graph.num_edges(),
        "{what}: edge count"
    );
    for e in 0..a.graph.num_edges() as u32 {
        let (u1, v1, w1) = a.graph.edge(e);
        let (u2, v2, w2) = b.graph.edge(e);
        check_assert_eq!((u1, v1), (u2, v2), "{what}: edge {e} endpoints");
        check_assert_eq!(
            w1.to_bits(),
            w2.to_bits(),
            "{what}: edge {e} weight ({w1} vs {w2})"
        );
    }
    Ok(())
}

fn random_sweep_property(c: &StudyContext, name: &str, cases: usize) {
    const MODES: [Mode; 3] = [Mode::BpOnly, Mode::Hybrid, Mode::IslOnly];
    check_with(name, cases, |g| {
        // Random non-empty mode subset, in fixed canonical order.
        let mask = g.u32(1..8);
        let modes: Vec<Mode> = MODES
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &m)| m)
            .collect();
        // Random walk over the day: mixed step sizes, occasionally
        // stepping backwards (the sweep contract allows any order).
        let mut t = g.f64(0.0..86_400.0);
        let steps = g.usize(2..5);
        let mut sweep = TimeSweep::new(c, &modes);
        for s in 0..steps {
            let inc = sweep.step(t);
            let fresh = c.snapshot_bundle(t, &modes);
            check_assert!(inc.len() == fresh.len(), "bundle length");
            for (i, (a, b)) in inc.iter().zip(&fresh).enumerate() {
                assert_identical(a, b, &format!("step {s} t={t} mode #{i}"))?;
            }
            let dt = if g.bool() {
                g.f64(0.1..120.0) // sub-cell to few-cell motion
            } else {
                g.f64(120.0..20_000.0) // crosses many cells
            };
            t = if g.u32(0..8) == 0 { t - dt } else { t + dt };
        }
        Ok(())
    });
}

#[test]
fn random_sweeps_match_fresh_bundles_starlink() {
    let c = ctx(leo_core::ConstellationKind::Starlink);
    random_sweep_property(&c, "random_sweeps_match_fresh_bundles_starlink", 12);
}

#[test]
fn random_sweeps_match_fresh_bundles_kuiper() {
    // Different shell geometry (34×34 at 630 km, 51.9°) exercises
    // different cell-transition patterns and visibility radii.
    let c = ctx(leo_core::ConstellationKind::Kuiper);
    random_sweep_property(&c, "random_sweeps_match_fresh_bundles_kuiper", 8);
}
