//! The exit-code contract of `campaign_ctl`, asserted end to end.
//!
//! `crates/bench/src/exit.rs` documents the vocabulary — 0 success, 1 internal,
//! 2 usage, 3 findings, 4 degraded — and scripts and CI gates branch on it, so
//! every code is pinned here against the real binary.

use bsm_engine::{CampaignBuilder, Executor};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bsm-ctl-exit-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn code_of(args: &[&str]) -> i32 {
    Command::new(env!("CARGO_BIN_EXE_campaign_ctl"))
        .args(args)
        .output()
        .expect("campaign_ctl spawns")
        .status
        .code()
        .expect("campaign_ctl was not signal-killed")
}

/// Writes a tiny in-process report (one size, one seed) to `path`.
fn write_report(path: &Path, seed_start: u64) {
    let campaign = CampaignBuilder::new().sizes([2]).seeds(seed_start..seed_start + 1).build();
    let (report, _) = Executor::new().threads(1).run(&campaign);
    std::fs::write(path, bsm_engine::to_json(&report)).unwrap();
}

#[test]
fn success_is_0() {
    let dir = scratch("success");
    let report = dir.join("a.json");
    write_report(&report, 0);
    let path = report.to_str().unwrap();
    let merged = dir.join("merged");
    assert_eq!(code_of(&["merge", path, "--out", merged.to_str().unwrap()]), 0);
    assert_eq!(code_of(&["diff", path, path]), 0, "identical reports are not findings");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A pipe whose reader is already gone: every write fails with EPIPE, as it does
/// for `campaign_ctl … | head` once `head` has exited.
fn closed_pipe() -> Stdio {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    writer.into()
}

#[test]
fn a_closed_stdout_or_stderr_is_not_an_error() {
    let dir = scratch("epipe");
    let code_without_readers = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_campaign_ctl"))
            .args(args)
            .stdout(closed_pipe())
            .stderr(closed_pipe())
            .status()
            .expect("campaign_ctl spawns")
            .code()
    };
    let run = dir.join("run");
    assert_eq!(code_without_readers(&["run", "--smoke", "--out", run.to_str().unwrap()]), Some(0));
    let report = run.join("report.json");
    assert!(report.exists(), "run left no report.json");
    let merged = dir.join("merged");
    let merge = ["merge", report.to_str().unwrap(), "--out", merged.to_str().unwrap()];
    assert_eq!(code_without_readers(&merge), Some(0));
    assert!(merged.join("report.json").exists(), "merge left no report.json");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_on_a_run_without_a_sidecar_is_a_liveness_check() {
    let dir = scratch("stats");
    let run = dir.join("run");
    let out = run.to_str().unwrap();
    assert_eq!(code_of(&["run", "--smoke", "--stream", "--shard", "3/3", "--out", out]), 0);
    let stats = Command::new(env!("CARGO_BIN_EXE_campaign_ctl"))
        .args(["stats", out])
        .output()
        .expect("campaign_ctl spawns");
    assert_eq!(stats.status.code(), Some(0), "{}", String::from_utf8_lossy(&stats.stderr));
    let printed = String::from_utf8_lossy(&stats.stdout);
    assert!(printed.starts_with("heartbeat: 24/24"), "{printed}");
    // Neither a heartbeat nor a sidecar: nothing to report.
    let empty = dir.join("empty");
    std::fs::create_dir_all(&empty).unwrap();
    assert_eq!(code_of(&["stats", empty.to_str().unwrap()]), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn internal_errors_are_1() {
    let dir = scratch("internal");
    let missing = dir.join("nope.json");
    let missing = missing.to_str().unwrap();
    assert_eq!(code_of(&["merge", missing, "--out", dir.join("out").to_str().unwrap()]), 1);
    assert_eq!(code_of(&["stats", missing]), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_are_2() {
    // The invocation itself is wrong: before any work starts, exit 2.
    assert_eq!(code_of(&["frobnicate"]), 2, "unknown subcommand");
    assert_eq!(code_of(&["run", "--smoke", "--frobnicate"]), 2, "unknown flag");
    assert_eq!(code_of(&["run", "--smoke", "--budget", "9"]), 2, "fuzz flag on run");
    assert_eq!(code_of(&["run", "--smoke", "--shards", "2"]), 2, "supervise flag on run");
    assert_eq!(code_of(&["supervise", "--smoke"]), 2, "supervise requires --shards");
    assert_eq!(code_of(&["fuzz", "--smoke"]), 2, "fuzz requires --budget");
}

#[test]
fn findings_are_3() {
    let dir = scratch("findings");
    let (a, b) = (dir.join("a.json"), dir.join("b.json"));
    write_report(&a, 0);
    write_report(&b, 1);
    let diff = code_of(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(diff, 3, "differing reports are findings, not failures");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn degraded_supervised_runs_are_4() {
    let dir = scratch("degraded");
    // One shard, and both allowed attempts die before doing any work: the
    // supervisor quarantines it and reports graceful degradation.
    let code = code_of(&[
        "supervise",
        "--smoke",
        "--shards",
        "1",
        "--chaos",
        "1:1:early,1:2:early",
        "--max-attempts",
        "2",
        "--backoff-ms",
        "0",
        "--poll-ms",
        "25",
        "--out",
        dir.join("sup").to_str().unwrap(),
    ]);
    assert_eq!(code, 4);
    let _ = std::fs::remove_dir_all(&dir);
}
