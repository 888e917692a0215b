//! CLI-level test of the figure bins' argument handling: an argument a
//! bin does not declare must fail with exit code 2 and a usage line
//! before any work starts, never fall back to a default run.

use std::process::Command;

#[test]
fn undeclared_arguments_exit_2_before_any_work() {
    let cases: [(&str, &[&str], &str); 4] = [
        // Only `--scale <name>` is parsed; `--scale=paper` must not
        // quietly run at the default bench scale.
        (
            env!("CARGO_BIN_EXE_fig5_isl_sweep"),
            &["--scale=paper"],
            "'--scale=paper'",
        ),
        // `--shards K` always spawns OS workers; `--spawn` is gone.
        (
            env!("CARGO_BIN_EXE_fig2_latency"),
            &["--shards", "2", "--spawn"],
            "'--spawn'",
        ),
        // Typos, in a bin with declared switches and in one without.
        (
            env!("CARGO_BIN_EXE_fig4_throughput"),
            &["--disconected"],
            "'--disconected'",
        ),
        (
            env!("CARGO_BIN_EXE_fig9_gso_arc"),
            &["--scael", "tiny"],
            "'--scael'",
        ),
    ];
    for (i, (bin, args, offending)) in cases.into_iter().enumerate() {
        // Every bin writes under `results/` in its cwd once it works.
        let dir = std::env::temp_dir().join(format!("leo_figure_cli_{}_{i}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        let out = Command::new(bin)
            .args(["--scale", "tiny"])
            .args(args)
            .current_dir(&dir)
            .env("LEO_LOG", "off")
            .output()
            .expect("spawn figure bin");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(offending), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!dir.join("results").exists(), "{args:?} started work");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
