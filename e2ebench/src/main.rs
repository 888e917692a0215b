//! End-to-end benchmark process for the paper's graph.
//!
//! One invocation runs one workload once, in one of two passes:
//!
//! * `entry` — the public entry point the figure binaries call
//!   (`latency_studies`, `throughput`, `disconnected_satellite_fraction`),
//!   timed as a whole;
//! * `replay` — the same work re-done through the public layer calls
//!   (`TimeSweep::new`/`step`, `DijkstraWorkspace::run_multi`,
//!   `k_edge_disjoint_paths_with`, `FlowSim::solve_with`,
//!   `disconnected_fraction_of`), each call timed from here.
//!
//! Both passes print a digest of their outputs (FNV-1a over the exact
//! f64 bits); equal digests show the replay did the program's work.
//! Both passes check physical invariants on the outputs with code that
//! does not go through the layers under test. The last stdout line is
//! one JSON object; `run.py` next to this crate drives the processes.
//!
//! Usage: `leo-e2ebench <workload> --pass entry|replay --seed N
//!         --threads T [--size gated|paper]`

mod checks;
mod replay;
mod workloads;

use leo_core::{StudyConfig, StudyContext};
use leo_util::telemetry;
use workloads::{Size, Workload};

/// Everything one process reports.
pub struct Report {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub checks: checks::Checks,
    pub digest: u64,
    /// Per-layer figures (replay pass only), in print order.
    pub layers: Vec<(&'static str, f64)>,
}

struct Args {
    workload: Workload,
    replay: bool,
    seed: u64,
    threads: usize,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let workload = it
        .next()
        .ok_or("missing workload name")
        .and_then(|w| Workload::parse(&w).ok_or("unknown workload"))?;
    let (mut replay, mut seed, mut threads, mut size) = (None, None, None, Size::Gated);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--pass" => {
                replay = Some(match value.as_str() {
                    "entry" => false,
                    "replay" => true,
                    _ => return Err(format!("unknown pass {value}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--threads" => threads = Some(value.parse().map_err(|e| format!("--threads: {e}"))?),
            "--size" => size = Size::parse(&value).ok_or(format!("unknown size {value}"))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let threads: usize = threads.ok_or("--threads is required")?;
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    Ok(Args {
        workload,
        replay: replay.ok_or("--pass is required")?,
        seed: seed.ok_or("--seed is required")?,
        threads,
        size,
    })
}

/// User plus system CPU time of this process, seconds, from
/// `/proc/self/stat` (clock ticks of 1/100 s).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Times the set-up is repeated; `setup_s` is the median. A build takes
/// a fraction of a second, so one sample would be mostly noise.
const SETUP_REPS: usize = 3;

/// Build every context the workload needs, [`SETUP_REPS`] times over,
/// keeping the last build and returning the median build time.
fn setup(cfgs: &[StudyConfig]) -> (Vec<StudyContext>, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut ctxs = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(ctxs);
        let t0 = telemetry::now_ns();
        ctxs = cfgs.iter().cloned().map(StudyContext::build).collect();
        times.push((telemetry::now_ns() - t0) as f64 / 1e9);
    }
    times.sort_by(f64::total_cmp);
    (ctxs, times[SETUP_REPS / 2])
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("leo-e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let label = format!("e2ebench_{}", args.workload.name());
    if args.replay {
        telemetry::init(&label);
    }
    let cfgs = args.workload.configs(args.size, args.seed);
    let config_hash = telemetry::fnv1a_64(cfgs[0].to_kv_string().as_bytes());
    let (ctxs, setup_s) = setup(&cfgs);
    let report = if args.replay {
        replay::run(args.workload, &ctxs, args.threads)
    } else {
        workloads::run_entry(args.workload, &ctxs, args.threads)
    };
    if args.replay {
        let manifest = telemetry::RunManifest::new(&label, config_hash, args.seed, args.threads)
            .with("pass", "replay");
        telemetry::finish_run(&manifest);
    }
    for msg in &report.checks.first_failures {
        eprintln!("invariant violated: {msg}");
    }
    let layers: Vec<String> = report
        .layers
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", json_num(*v)))
        .collect();
    println!(
        "{{\"workload\":\"{}\",\"pass\":\"{}\",\"seed\":{},\"threads\":{},\
         \"setup_s\":{},\"wall_s\":{},\"cpu_s\":{},\"peak_rss_mib\":{},\
         \"checks\":{},\"violations\":{},\"digest\":\"{:#018x}\",\"layers\":{{{}}}}}",
        args.workload.name(),
        if args.replay { "replay" } else { "entry" },
        args.seed,
        args.threads,
        json_num(setup_s),
        json_num(report.wall_s),
        json_num(report.cpu_s),
        json_num(peak_rss_mib()),
        report.checks.attempted,
        report.checks.failed,
        report.digest,
        layers.join(","),
    );
}

/// A JSON number with every digit of Rust's shortest round-trip
/// format; a non-finite value becomes `null`, which `run.py` rejects.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
