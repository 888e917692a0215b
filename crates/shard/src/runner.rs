//! Shard execution: build a range-restricted [`StudyContext`], run the
//! study fold on it, spill keepers, and merge shard files back into a
//! full run.
//!
//! Determinism contract: every shard builds the **same** context —
//! constellation, ground segment, and the seeded pair sample are pure
//! functions of the [`StudyConfig`] — and then restricts itself to its
//! partition range. Snapshot graphs are pair-independent, latency folds
//! are per-pair independent, and fig4's routing reads only the snapshot
//! graph, so a shard's results are exactly the corresponding slice of a
//! single-process run's results. The merge concatenates those slices in
//! global pair order, which is why `K`-sharded output is bit-identical
//! to `K = 1`.
//!
//! There is one execution path. Each worker is its own OS process
//! (`--shard i/K --shard-dir D`) that runs [`spill_latency_shard`] or
//! [`spill_flow_shard`] and so holds only `O(pairs/K)` pair state; the
//! coordinator then merges the spill files with [`merge_latency_files`]
//! or [`merge_flow_files`]. Tests and benches drive the same two halves
//! in one process, one shard after another.

use crate::codec::{read_shard, write_shard, PayloadKind, ShardError, ShardHeader};
use crate::keepers::{
    merge_flow_shards, merge_latency_shards, FlowCombo, FlowPathsKeepers, LatencyKeepers, MergedRun,
};
use crate::partition::ShardSpec;
use leo_core::experiments::latency::latency_studies;
use leo_core::experiments::throughput::route_pair_paths;
use leo_core::{Mode, StudyConfig, StudyContext};
use leo_util::telemetry::fnv1a_64;
use std::path::{Path, PathBuf};

/// The run-identity hash stamped into shard headers: FNV-1a 64 of the
/// config's canonical kv string — the same hash run manifests carry, so
/// shard files, manifests, and reports all name a run identically.
pub fn config_hash(cfg: &StudyConfig) -> u64 {
    fnv1a_64(cfg.to_kv_string().as_bytes())
}

/// Canonical spill-file name for one shard of a labelled run.
pub fn shard_file_name(label: &str, spec: ShardSpec) -> String {
    format!("SHARD_{label}.s{}of{}.bin", spec.index, spec.count)
}

/// Canonical tag for a routed (mode, k) combination — merge identity
/// for fig4 shards.
pub fn combo_tag(mode: Mode, k: usize) -> String {
    format!("{mode:?}/k{k}")
}

/// Build the shared context and restrict it to `spec`'s pair range.
/// Returns the restricted context and the global range it covers.
fn restricted_context(
    cfg: &StudyConfig,
    spec: ShardSpec,
) -> (StudyContext, std::ops::Range<usize>) {
    let mut ctx = StudyContext::build(cfg.clone());
    let range = spec.range(ctx.pairs.len());
    ctx.restrict_pair_range(range.start, range.end);
    (ctx, range)
}

fn header_for(
    cfg: &StudyConfig,
    spec: ShardSpec,
    range: &std::ops::Range<usize>,
    kind: PayloadKind,
) -> ShardHeader {
    ShardHeader {
        config_hash: config_hash(cfg),
        seed: cfg.seed,
        shard_index: spec.index as u32,
        shard_count: spec.count as u32,
        pair_lo: range.start as u64,
        pair_hi: range.end as u64,
        kind,
    }
}

/// Run one latency shard — fold `modes` over the configured snapshots
/// for this shard's pairs only, with `threads` threads (0 = one per
/// core) — and spill it to `dir`; returns the file path and the header
/// written to it (its pair range included).
pub fn spill_latency_shard(
    cfg: &StudyConfig,
    modes: &[Mode],
    spec: ShardSpec,
    threads: usize,
    dir: &Path,
    label: &str,
) -> Result<(PathBuf, ShardHeader), ShardError> {
    let (ctx, range) = restricted_context(cfg, spec);
    let studies = latency_studies(&ctx, modes, threads);
    let total = cfg.snapshot_times_s.len() as u64;
    let keepers = LatencyKeepers::from_stats(&studies, modes, total);
    let header = header_for(cfg, spec, &range, PayloadKind::Latency);
    let path = dir.join(shard_file_name(label, spec));
    write_shard(&path, &header, &keepers.encode())?;
    Ok((path, header))
}

/// Run one throughput-routing shard — route every `(mode, k)` combo at
/// `t_s` for this shard's pairs and keep the per-pair path edge sets —
/// and spill it to `dir`; returns the file path and the header written
/// to it. The global max-min solve happens after the merge, on the full
/// concatenated path list.
pub fn spill_flow_shard(
    cfg: &StudyConfig,
    t_s: f64,
    combos: &[(Mode, usize)],
    spec: ShardSpec,
    dir: &Path,
    label: &str,
) -> Result<(PathBuf, ShardHeader), ShardError> {
    let (ctx, range) = restricted_context(cfg, spec);
    let mut modes: Vec<Mode> = Vec::new();
    for &(m, _) in combos {
        if !modes.contains(&m) {
            modes.push(m);
        }
    }
    let snaps = ctx.snapshot_bundle(t_s, &modes);
    let combos = combos
        .iter()
        .map(|&(mode, k)| {
            let mi = modes
                .iter()
                .position(|&m| m == mode)
                // lint: allow(unwrap-in-lib) modes was built from combos, so every combo's mode is present
                .expect("mode present");
            let paths = route_pair_paths(&ctx, &snaps[mi], k)
                .into_iter()
                .map(|pair| pair.into_iter().map(|p| p.edges).collect())
                .collect();
            FlowCombo {
                tag: combo_tag(mode, k),
                paths,
            }
        })
        .collect();
    let header = header_for(cfg, spec, &range, PayloadKind::FlowPaths);
    let keepers = FlowPathsKeepers { combos };
    let path = dir.join(shard_file_name(label, spec));
    write_shard(&path, &header, &keepers.encode())?;
    Ok((path, header))
}

/// Read, decode, and merge latency shard files (any order).
pub fn merge_latency_files(paths: &[PathBuf]) -> Result<(MergedRun, LatencyKeepers), ShardError> {
    let mut shards = Vec::with_capacity(paths.len());
    for p in paths {
        let (header, payload) = read_shard(p)?;
        shards.push((header, LatencyKeepers::decode(&payload)?));
    }
    merge_latency_shards(shards)
}

/// Read, decode, and merge throughput shard files (any order).
pub fn merge_flow_files(paths: &[PathBuf]) -> Result<(MergedRun, FlowPathsKeepers), ShardError> {
    let mut shards = Vec::with_capacity(paths.len());
    for p in paths {
        let (header, payload) = read_shard(p)?;
        shards.push((header, FlowPathsKeepers::decode(&payload)?));
    }
    merge_flow_shards(shards)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spills_return_the_header_they_wrote() {
        let dir = std::env::temp_dir().join(format!("leo_shard_runner_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        let cfg = leo_core::ExperimentScale::Tiny.config();
        let spec = ShardSpec::new(1, 3).expect("valid spec");
        for (path, header) in [
            spill_latency_shard(&cfg, &[Mode::BpOnly], spec, 1, &dir, "lat"),
            spill_flow_shard(&cfg, 0.0, &[(Mode::Hybrid, 1)], spec, &dir, "flow"),
        ]
        .map(|spilled| spilled.expect("spill"))
        {
            assert_eq!(header, read_shard(&path).expect("read back").0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
