//! Fig. 2 — minimum RTT (a) and RTT variation (b) CDFs across city pairs,
//! BP vs hybrid, plus the §1/§4 headline summary numbers.
//!
//! Sharded execution (`leo-shard`): `--shards K` spawns `K` OS worker
//! processes of this binary (`--shard i/K --shard-dir D`), each folding
//! one pair shard on a range-restricted context and spilling its
//! keepers; the coordinator merges the spill files. The tables and CSV
//! are **byte-identical** to an unsharded run (CI diffs them).

use leo_bench::{
    config_with_cities, finish_run_with, init_run, print_table, results_dir, run_latency_worker,
    shard_cli, shard_dir, shard_files, spawn_figure_workers,
};
use leo_core::experiments::latency::{latency_studies, summarize, PairStats};
use leo_core::metrics::Distribution;
use leo_core::output::CsvWriter;
use leo_core::{Mode, StudyContext};
use leo_shard::runner::merge_latency_files;
use leo_util::diag;

const LABEL: &str = "fig2_latency";
const MODES: [Mode; 2] = [Mode::BpOnly, Mode::Hybrid];

fn cdf_rows(stats: &[PairStats]) -> (Distribution, Distribution) {
    let mins: Vec<f64> = stats.iter().filter_map(|s| s.min_rtt_ms).collect();
    let vars: Vec<f64> = stats.iter().filter_map(PairStats::variation_ms).collect();
    (
        Distribution::from_samples(&mins),
        Distribution::from_samples(&vars),
    )
}

fn main() {
    let cli = shard_cli(std::env::args().skip(1), &[]);
    let cfg = config_with_cities(cli.scale, 340);

    if let Some(spec) = cli.worker {
        run_latency_worker(LABEL, &cfg, &MODES, spec, 0, &shard_dir(&cli));
        return;
    }

    init_run(LABEL);
    let ctx = StudyContext::build(cfg.clone());
    diag!(
        "fig2: {} cities, {} pairs, {} snapshots, {} relays",
        ctx.ground.cities.len(),
        ctx.pairs.len(),
        ctx.config.snapshot_times_s.len(),
        ctx.ground.relays.len()
    );

    let mut extras: Vec<(&str, String)> = Vec::new();
    let mut studies = if cli.shards > 0 {
        let dir = spawn_figure_workers(&cli);
        let (run, keepers) = merge_latency_files(&shard_files(&dir, LABEL, cli.shards))
            .unwrap_or_else(|e| {
                eprintln!("fig2: merging worker spills: {e}");
                std::process::exit(1);
            });
        assert_eq!(
            run.n_pairs as usize,
            ctx.pairs.len(),
            "merged shards cover a different traffic matrix than this config"
        );
        extras.push(("shards", run.shard_count.to_string()));
        keepers.to_stats(&ctx.pairs).unwrap_or_else(|e| {
            eprintln!("fig2: {e}");
            std::process::exit(1);
        })
    } else {
        // One shared orbit/visibility pass per snapshot covers both modes.
        latency_studies(&ctx, &MODES, 0)
    };

    let hy = studies.pop().expect("hybrid study");
    let bp = studies.pop().expect("bp study");
    let (bp_min, bp_var) = cdf_rows(&bp);
    let (hy_min, hy_var) = cdf_rows(&hy);

    // Fig. 2(a): minimum RTT distribution.
    let pcts = [10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0];
    let rows: Vec<Vec<String>> = pcts
        .iter()
        .map(|&p| {
            vec![
                format!("p{p}"),
                format!("{:.1}", bp_min.percentile(p)),
                format!("{:.1}", hy_min.percentile(p)),
            ]
        })
        .collect();
    print_table(
        "Fig 2(a): min RTT across pairs (ms)",
        &["pct", "BP", "hybrid"],
        &rows,
    );

    // Fig. 2(b): RTT variation distribution.
    let rows: Vec<Vec<String>> = pcts
        .iter()
        .map(|&p| {
            vec![
                format!("p{p}"),
                format!("{:.1}", bp_var.percentile(p)),
                format!("{:.1}", hy_var.percentile(p)),
            ]
        })
        .collect();
    print_table(
        "Fig 2(b): RTT variation max-min across pairs (ms)",
        &["pct", "BP", "hybrid"],
        &rows,
    );

    let s = summarize(&bp, &hy);
    let inflation = |b: f64, h: f64| {
        if h > 0.0 {
            format!("{:.0}%", (b / h - 1.0) * 100.0)
        } else {
            "inf".into()
        }
    };
    print_table(
        "Summary (paper: median +80%, p95 +422%, max min-RTT gap 57 ms)",
        &["metric", "BP", "hybrid", "BP inflation"],
        &[
            vec![
                "median variation (ms)".into(),
                format!("{:.1}", s.bp_median_variation_ms),
                format!("{:.1}", s.hybrid_median_variation_ms),
                inflation(s.bp_median_variation_ms, s.hybrid_median_variation_ms),
            ],
            vec![
                "p95 variation (ms)".into(),
                format!("{:.1}", s.bp_p95_variation_ms),
                format!("{:.1}", s.hybrid_p95_variation_ms),
                inflation(s.bp_p95_variation_ms, s.hybrid_p95_variation_ms),
            ],
            vec![
                "max variation (ms)".into(),
                format!("{:.1}", s.bp_max_variation_ms),
                format!("{:.1}", s.hybrid_max_variation_ms),
                String::new(),
            ],
            vec![
                "max min-RTT gap (ms)".into(),
                format!("{:.1}", s.max_min_rtt_gap_ms),
                String::new(),
                String::new(),
            ],
        ],
    );

    // CSV dump of the full CDFs.
    let path = results_dir().join("fig2_latency.csv");
    let mut w = CsvWriter::create(&path).expect("create csv");
    w.row(&["series", "value_ms", "cdf"]).unwrap();
    for (label, dist) in [
        ("bp_min", &bp_min),
        ("hybrid_min", &hy_min),
        ("bp_var", &bp_var),
        ("hybrid_var", &hy_var),
    ] {
        for (v, f) in dist.cdf_points(200) {
            w.row(&[label.to_string(), format!("{v:.3}"), format!("{f:.4}")])
                .unwrap();
        }
    }
    w.flush().unwrap();
    diag!("wrote {}", path.display());
    finish_run_with(LABEL, &ctx.config, &extras);
}
