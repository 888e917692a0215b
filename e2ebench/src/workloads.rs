//! Workload definitions, their outputs and digests, and the entry pass.

use crate::checks::{self, Checks};
use crate::{cpu_seconds, Report};
use leo_core::experiments::latency::{latency_studies, PairStats};
use leo_core::experiments::throughput::{disconnected_satellite_fraction, throughput};
use leo_core::{ConstellationKind, ExperimentScale, Mode, StudyConfig, StudyContext};
use leo_util::telemetry::now_ns;

/// Modes folded together in `latency_day` (fig2: BP vs hybrid).
pub const LATENCY_MODES: [Mode; 2] = [Mode::BpOnly, Mode::Hybrid];
/// Constellations of `throughput_multipath` (fig4).
pub const THROUGHPUT_KINDS: [ConstellationKind; 2] =
    [ConstellationKind::Starlink, ConstellationKind::Kuiper];
/// (mode, k) combos of `throughput_multipath`, in fig4's order.
pub const THROUGHPUT_COMBOS: [(Mode, usize); 4] = [
    (Mode::BpOnly, 1),
    (Mode::BpOnly, 4),
    (Mode::Hybrid, 1),
    (Mode::Hybrid, 4),
];
/// fig4 evaluates the network at the start of the day.
pub const THROUGHPUT_T_S: f64 = 0.0;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    LatencyDay,
    ThroughputMultipath,
    DisconnectedDay,
}

/// How much of the paper's study a run covers. The graph is always the
/// paper's (1,000 cities, 0.5° relay grid); only pairs and instants are
/// cut.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    /// The gated benchmark size.
    Gated,
    /// The paper's full 5,000 pairs × 96 instants (opt-in, never gated).
    Paper,
}

impl Size {
    pub fn parse(s: &str) -> Option<Size> {
        match s {
            "gated" => Some(Size::Gated),
            "paper" => Some(Size::Paper),
            _ => None,
        }
    }
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "latency_day" => Some(Workload::LatencyDay),
            "throughput_multipath" => Some(Workload::ThroughputMultipath),
            "disconnected_day" => Some(Workload::DisconnectedDay),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::LatencyDay => "latency_day",
            Workload::ThroughputMultipath => "throughput_multipath",
            Workload::DisconnectedDay => "disconnected_day",
        }
    }

    /// (pairs, instants across the day) at `size`.
    fn shape(self, size: Size) -> (usize, usize) {
        match (self, size) {
            (Workload::LatencyDay, Size::Gated) => (5000, 2),
            (Workload::ThroughputMultipath, Size::Gated) => (300, 1),
            (Workload::DisconnectedDay, Size::Gated) => (300, 1200),
            (Workload::ThroughputMultipath, Size::Paper) => (5000, 1),
            (_, Size::Paper) => (5000, 96),
        }
    }

    /// One study configuration per context the workload builds: the
    /// paper's graph with this workload's pairs and instants, and the
    /// benchmark seed as the study seed (city tail and pair sampling).
    pub fn configs(self, size: Size, seed: u64) -> Vec<StudyConfig> {
        let (pairs, instants) = self.shape(size);
        let kinds: &[ConstellationKind] = match self {
            Workload::ThroughputMultipath => &THROUGHPUT_KINDS,
            _ => &[ConstellationKind::Starlink],
        };
        kinds
            .iter()
            .map(|&kind| {
                let mut cfg = ExperimentScale::Paper.config();
                cfg.constellation = kind;
                cfg.num_pairs = pairs;
                cfg.snapshot_times_s = if instants == 1 {
                    vec![THROUGHPUT_T_S]
                } else {
                    StudyConfig::day_snapshots(instants)
                };
                cfg.seed = seed;
                cfg
            })
            .collect()
    }
}

/// FNV-1a 64 over the little-endian bytes of the pushed words.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => self.f64(x),
            None => self.u64(u64::MAX),
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One mode's per-pair latency fold.
pub struct ModeLatency {
    pub min_rtt_ms: Vec<Option<f64>>,
    pub max_rtt_ms: Vec<Option<f64>>,
    pub reachable: Vec<usize>,
    pub total: usize,
}

impl ModeLatency {
    fn from_stats(stats: &[PairStats]) -> ModeLatency {
        ModeLatency {
            min_rtt_ms: stats.iter().map(|s| s.min_rtt_ms).collect(),
            max_rtt_ms: stats.iter().map(|s| s.max_rtt_ms).collect(),
            reachable: stats.iter().map(|s| s.reachable).collect(),
            total: stats.first().map_or(0, |s| s.total),
        }
    }
}

/// `latency_day` output: one fold per entry of [`LATENCY_MODES`].
pub struct LatencyOut(pub Vec<ModeLatency>);

impl LatencyOut {
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        for m in &self.0 {
            d.u64(m.total as u64);
            for pi in 0..m.reachable.len() {
                d.opt_f64(m.min_rtt_ms[pi]);
                d.opt_f64(m.max_rtt_ms[pi]);
                d.u64(m.reachable[pi] as u64);
            }
        }
        d.finish()
    }
}

/// One `throughput` result of `throughput_multipath`.
pub struct ThroughputRow {
    pub kind: ConstellationKind,
    pub mode: Mode,
    pub k: usize,
    pub pairs: usize,
    pub aggregate_gbps: f64,
    pub routed_pairs: usize,
    pub flows: usize,
}

pub fn throughput_digest(rows: &[ThroughputRow]) -> u64 {
    let mut d = Digest::new();
    for r in rows {
        d.f64(r.aggregate_gbps);
        d.u64(r.routed_pairs as u64);
        d.u64(r.flows as u64);
    }
    d.finish()
}

pub fn fractions_digest(vals: &[f64]) -> u64 {
    let mut d = Digest::new();
    for &v in vals {
        d.f64(v);
    }
    d.finish()
}

/// Time `f` on the wall clock and in process CPU time.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let cpu0 = cpu_seconds();
    let t0 = now_ns();
    let r = f();
    (r, (now_ns() - t0) as f64 / 1e9, cpu_seconds() - cpu0)
}

/// The entry pass: each workload through the public entry point the
/// figure binaries call, then the output checks (outside the timing).
pub fn run_entry(w: Workload, ctxs: &[StudyContext], threads: usize) -> Report {
    let mut c = Checks::default();
    let (digest, wall_s, cpu_s) = match w {
        Workload::LatencyDay => {
            let (stats, wall, cpu) = timed(|| latency_studies(&ctxs[0], &LATENCY_MODES, threads));
            let out = LatencyOut(stats.iter().map(|s| ModeLatency::from_stats(s)).collect());
            checks::latency(&ctxs[0], &out, &mut c);
            (out.digest(), wall, cpu)
        }
        Workload::ThroughputMultipath => {
            let (rows, wall, cpu) = timed(|| {
                let mut rows = Vec::new();
                for ctx in ctxs {
                    for &(mode, k) in &THROUGHPUT_COMBOS {
                        let r = throughput(ctx, THROUGHPUT_T_S, mode, k);
                        rows.push(ThroughputRow {
                            kind: ctx.config.constellation,
                            mode,
                            k,
                            pairs: ctx.pairs.len(),
                            aggregate_gbps: r.aggregate_gbps,
                            routed_pairs: r.routed_pairs,
                            flows: r.flows,
                        });
                    }
                }
                rows
            });
            checks::throughput(&rows, &mut c);
            (throughput_digest(&rows), wall, cpu)
        }
        Workload::DisconnectedDay => {
            let (vals, wall, cpu) =
                timed(|| disconnected_satellite_fraction(&ctxs[0], Mode::BpOnly, threads));
            checks::disconnected(&vals, ctxs[0].config.snapshot_times_s.len(), &mut c);
            (fractions_digest(&vals), wall, cpu)
        }
    };
    Report {
        wall_s,
        cpu_s,
        checks: c,
        digest,
        layers: Vec::new(),
    }
}
