//! `lint.toml` — per-rule path scoping in the workspace's hermetic
//! `key = value` config dialect (parsed with [`leo_util::config::KvDoc`],
//! not actual TOML; the name keeps the conventional spelling).
//!
//! ```text
//! [run]
//! exclude = crates/lint/tests/fixtures
//!
//! [wall-clock]
//! allow = crates/util/src/bench.rs,crates/util/src/telemetry.rs
//!
//! [unordered-iter]
//! paths = crates/core/src,crates/graph/src
//! ```
//!
//! All paths are workspace-relative prefixes with forward slashes.
//! Every key is optional; compiled-in defaults (matching this repo's
//! layout) apply when the file or a key is absent.

use leo_util::config::KvDoc;

/// Parsed lint configuration.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Path prefixes excluded from all linting (fixture corpora).
    pub exclude: Vec<String>,
    /// Files allowed to read the wall clock (the telemetry/bench core).
    pub wall_clock_allow: Vec<String>,
    /// Result-path prefixes where `unordered-iter` applies.
    pub unordered_iter_paths: Vec<String>,
    /// Files allowed to print from library code (the telemetry sink and
    /// bench reporter).
    pub print_allow: Vec<String>,
    /// Hot-path root fn patterns (`Type::name`, `Type::*`, or a free-fn
    /// `name`) — everything reachable from these must be alloc-free.
    pub hot_path_roots: Vec<String>,
    /// Path prefixes exempt from reachability `hot-path-alloc` findings
    /// (cold code dragged in by over-approximate method resolution).
    pub hot_path_allow: Vec<String>,
    /// Cold-boundary fn patterns: reachability stops at (and does not
    /// report inside) these fns — declared setup/teardown/debug paths
    /// that hot roots invoke once per run, not once per step. The list
    /// is config, so the hot/cold boundary is auditable in one place.
    pub hot_path_cold: Vec<String>,
    /// Path prefixes exempt from `panic-reachable` (files whose job is
    /// panicking, e.g. the property-test assertion harness).
    pub panic_allow: Vec<String>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            exclude: vec!["crates/lint/tests/fixtures".into()],
            wall_clock_allow: vec![
                "crates/util/src/bench.rs".into(),
                "crates/util/src/telemetry.rs".into(),
            ],
            unordered_iter_paths: vec![
                "crates/core/src".into(),
                "crates/graph/src".into(),
                "crates/flow/src".into(),
                "crates/data/src".into(),
                "crates/orbit/src".into(),
                "crates/packetsim/src".into(),
                "crates/bench/src".into(),
            ],
            print_allow: vec![
                "crates/util/src/bench.rs".into(),
                "crates/util/src/telemetry.rs".into(),
            ],
            // The inner loops the paper's artifact timings stand on
            // (`// lint: hot-path`-marked fns are roots implicitly).
            hot_path_roots: vec![
                "SptWorkspace::apply".into(),
                "SptWorkspace::rebuild".into(),
                "DijkstraWorkspace::run".into(),
                "DijkstraWorkspace::run_multi".into(),
                "DijkstraWorkspace::run_contracted".into(),
                "DijkstraWorkspace::run_two_leg_masked".into(),
                "CoreGraph::build_from".into(),
                "DirtyRows::rederive".into(),
                "TimeSweep::step_with_deltas".into(),
                "VisibilityScan::*".into(),
                "StudyContext::sweep_fold".into(),
                "StudyContext::sweep_fold_deltas".into(),
            ],
            // The analyzer itself is offline tooling — never on the
            // pipeline's hot paths; edges into it are method-name
            // resolution artifacts (`build`, `chain` are common names).
            hot_path_allow: vec!["crates/lint/".into()],
            hot_path_cold: vec![
                // Per-sweep setup: builds the constellation, cities,
                // grids, and link tables once, then the per-instant
                // stepping takes over.
                "TimeSweep::new".into(),
                "StudyContext::build".into(),
                // Debug-gated telemetry rendering: only runs under
                // LEO_LOG=debug, which is outside the timing contract.
                "debug_log".into(),
                // Property-test harness error path (allocates a report
                // string after a case already failed/skipped).
                "CaseError::skip".into(),
                // Fan-out scaffolding: one thread-spawn + result-vec
                // round per sweep, amortised over every snapshot the
                // fan-out computes. The per-item closures it runs are
                // still attributed to their *defining* fns and patrolled.
                "parallel_map_stats".into(),
                "record_fanout".into(),
                // One-time lazy inits behind a boolean: delta tracking
                // (first `step_with_deltas`) and the land-mask bbox
                // cache (first point test).
                "TimeSweep::start_delta_tracking".into(),
                "poly_bboxes".into(),
                // Full-rebuild fallback for the first step of a sweep;
                // every later step takes the incremental `advance_to` /
                // `relocate` path.
                "Constellation::positions_at".into(),
                "CellGrid::new".into(),
            ],
            // leo_util::check asserts by panicking — that *is* its API.
            panic_allow: vec!["crates/util/src/check.rs".into()],
        }
    }
}

impl LintConfig {
    /// Parse config text; absent keys keep their defaults.
    pub fn parse(text: &str) -> Result<LintConfig, String> {
        let doc = KvDoc::parse(text).map_err(|e| format!("lint config: {e}"))?;
        let mut cfg = LintConfig::default();
        let list = |section: &str, key: &str, into: &mut Vec<String>| {
            if let Some(v) = doc.get(section, key) {
                *into = v
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
        };
        list("run", "exclude", &mut cfg.exclude);
        list("wall-clock", "allow", &mut cfg.wall_clock_allow);
        list("unordered-iter", "paths", &mut cfg.unordered_iter_paths);
        list("print-in-lib", "allow", &mut cfg.print_allow);
        list("hot-path-alloc", "roots", &mut cfg.hot_path_roots);
        list("hot-path-alloc", "allow", &mut cfg.hot_path_allow);
        list("hot-path-alloc", "cold", &mut cfg.hot_path_cold);
        list("panic-reachable", "allow", &mut cfg.panic_allow);
        Ok(cfg)
    }

    /// Does `path` fall under any prefix in `prefixes`?
    pub fn path_matches(path: &str, prefixes: &[String]) -> bool {
        prefixes.iter().any(|p| path.starts_with(p.as_str()))
    }

    /// Is `path` excluded from linting entirely?
    pub fn is_excluded(&self, path: &str) -> bool {
        Self::path_matches(path, &self.exclude)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_repo_layout() {
        let cfg = LintConfig::default();
        assert!(cfg.is_excluded("crates/lint/tests/fixtures/wall-clock/bad.rs"));
        assert!(LintConfig::path_matches(
            "crates/util/src/telemetry.rs",
            &cfg.wall_clock_allow
        ));
        assert!(LintConfig::path_matches(
            "crates/core/src/experiments/latency.rs",
            &cfg.unordered_iter_paths
        ));
        assert!(!LintConfig::path_matches(
            "crates/geo/src/ecef.rs",
            &cfg.unordered_iter_paths
        ));
    }

    #[test]
    fn parse_overrides_and_keeps_defaults() {
        let cfg =
            LintConfig::parse("[run]\nexclude = a/b , c/d\n[unordered-iter]\npaths = only/here\n")
                .unwrap();
        assert_eq!(cfg.exclude, vec!["a/b", "c/d"]);
        assert_eq!(cfg.unordered_iter_paths, vec!["only/here"]);
        // Untouched section keeps its default.
        assert_eq!(cfg.wall_clock_allow.len(), 2);
    }

    #[test]
    fn reachability_sections_parse() {
        let cfg = LintConfig::parse(
            "[hot-path-alloc]\nroots = W::apply, W::*\nallow = crates/cold\ncold = W::setup\n\
             [panic-reachable]\nallow = crates/util/src/check.rs\n",
        )
        .unwrap();
        assert_eq!(cfg.hot_path_roots, vec!["W::apply", "W::*"]);
        assert_eq!(cfg.hot_path_allow, vec!["crates/cold"]);
        assert_eq!(cfg.hot_path_cold, vec!["W::setup"]);
        assert_eq!(cfg.panic_allow, vec!["crates/util/src/check.rs"]);
        // Defaults name the real inner-loop roots.
        let d = LintConfig::default();
        assert!(d.hot_path_roots.iter().any(|r| r == "SptWorkspace::apply"));
        assert!(d.panic_allow.iter().any(|p| p.ends_with("check.rs")));
    }

    #[test]
    fn repo_lint_toml_equals_compiled_in_defaults() {
        let file = LintConfig::parse(include_str!("../../../lint.toml")).unwrap();
        assert_eq!(format!("{file:?}"), format!("{:?}", LintConfig::default()));
    }

    #[test]
    fn malformed_config_errors() {
        assert!(LintConfig::parse("not a kv line\n").is_err());
    }
}
