//! The exit-code contract of `campaign_ctl`, asserted end to end.
//!
//! `crates/bench/src/exit.rs` documents the vocabulary — 0 success, 1 internal,
//! 2 usage, 3 findings, 4 degraded — and scripts and CI gates branch on it, so
//! every code is pinned here against the real binary. The experiment binaries have
//! no failure codes to pin; they exit 0 on a closed pipe and on an ignored argument.

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

/// Each experiment binary with a short invocation that still prints every table.
const EXPERIMENTS: [(&str, &[&str]); 4] = [
    (env!("CARGO_BIN_EXE_solvability_matrix"), &["2"]),
    (env!("CARGO_BIN_EXE_cost_tables"), &[]),
    (env!("CARGO_BIN_EXE_impossibility_attacks"), &[]),
    (env!("CARGO_BIN_EXE_topology_figure"), &[]),
];

#[test]
fn experiment_binaries_survive_a_closed_stdout_or_stderr() {
    for (bin, args) in EXPERIMENTS {
        // A stray positional makes the binary write a warning to the closed stderr too.
        let status = Command::new(bin)
            .args(args)
            .arg("foo")
            .stdout(closed_pipe())
            .stderr(closed_pipe())
            .status()
            .expect("the experiment binary spawns");
        assert_eq!(status.code(), Some(0), "{bin} {args:?} foo");
    }
}

#[test]
fn experiment_binaries_warn_about_a_stray_positional() {
    let stderr_of = |bin: &str, args: &[&str]| {
        let output = Command::new(bin).args(args).output().expect("the experiment binary spawns");
        assert_eq!(output.status.code(), Some(0), "{bin} {args:?}");
        String::from_utf8_lossy(&output.stderr).into_owned()
    };
    for (bin, args) in EXPERIMENTS {
        // `--smoke` is outside every experiment binary's row in `bsm_bench::cli::COMMANDS`.
        let stderr = stderr_of(bin, &[args, &["foo", "--no-verify", "--smoke"]].concat());
        assert!(stderr.contains("warning: ignoring positional argument: foo"), "{bin}: {stderr}");
        assert!(stderr.contains("warning: ignoring flag: --smoke ("), "{bin}: {stderr}");
    }
    let stderr = stderr_of(env!("CARGO_BIN_EXE_cost_tables"), &["5"]);
    assert!(stderr.contains("warning: ignoring positional argument: 5 ("), "{stderr}");
    // A flag's value goes with it: `--out DIR` is ignored whole, and nothing is written.
    let dir = scratch("stray");
    let out = dir.join("ignored");
    let args = ["--smoke", "--out", out.to_str().unwrap(), "--budget", "9"];
    let stderr = stderr_of(env!("CARGO_BIN_EXE_topology_figure"), &args);
    assert_eq!(stderr.matches("warning: ignoring flag: ").count(), 3, "{stderr}");
    assert!(!out.exists(), "topology_figure wrote {}", out.display());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_on_a_run_without_a_sidecar_is_a_liveness_check() {
    let dir = scratch("stats");
    let run = dir.join("run");
    let out = run.to_str().unwrap();
    assert_eq!(code_of(&["run", "--smoke", "--stream", "--shard", "3/3", "--out", out]), 0);
    let stats = |out: &str| {
        let stats = Command::new(env!("CARGO_BIN_EXE_campaign_ctl"))
            .args(["stats", out])
            .output()
            .expect("campaign_ctl spawns");
        assert_eq!(stats.status.code(), Some(0), "{}", String::from_utf8_lossy(&stats.stderr));
        String::from_utf8_lossy(&stats.stdout).into_owned()
    };
    let printed = stats(out);
    assert!(printed.starts_with("heartbeat: 24/24"), "{printed}");
    assert!(printed.contains(": complete]"), "{printed}");
    // Shard 1/34 of the full grid holds 32 cells, one heartbeat interval: the beat
    // reads 32/32 before the footer, and this worker dies before its rename.
    let died = dir.join("died");
    let status = Command::new(env!("CARGO_BIN_EXE_campaign_ctl"))
        .args(["run", "--stream", "--shard", "1/34", "--out", died.to_str().unwrap()])
        .env("BSM_CRASH_AFTER_CELLS", "finish")
        .output()
        .expect("campaign_ctl spawns")
        .status;
    assert!(!status.success(), "the injected crash did not fire");
    assert!(died.join("report.jsonl.partial").exists());
    let printed = stats(died.to_str().unwrap());
    assert!(printed.starts_with("heartbeat: 32/32"), "{printed}");
    assert!(printed.contains(": worker dead; `campaign_ctl resume` finishes it]"), "{printed}");
    // A published empty shard is complete, though its heartbeat reads 0/0.
    let empty_shard = dir.join("empty-shard");
    let out = empty_shard.to_str().unwrap();
    assert_eq!(code_of(&["run", "--smoke", "--stream", "--shard", "80/80", "--out", out]), 0);
    let printed = stats(out);
    assert!(printed.starts_with("heartbeat: 0/0"), "{printed}");
    assert!(printed.contains(": complete]"), "{printed}");
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
    // A positional the subcommand does not read is never dropped silently.
    assert_eq!(code_of(&["run", "--smoke", "foo"]), 2, "a path on run");
    assert_eq!(code_of(&["run", "--smoke", "7"]), 2, "a market size on run");
    assert_eq!(code_of(&["run", "--smoke", "0"]), 2, "an out-of-range market size");
    assert_eq!(code_of(&["fuzz", "--budget", "2", "3"]), 2, "a market size on fuzz");
    assert_eq!(code_of(&["bench", "--smoke", "foo"]), 2, "a path on bench");
    assert_eq!(code_of(&["stats", "5"]), 2, "a market size on stats");
    // Every flag outside the subcommand's row in `bsm_bench::cli::COMMANDS` is
    // refused before any work starts, whatever the other arguments.
    let dir = scratch("usage");
    let report = dir.join("a.json");
    write_report(&report, 0);
    let (a, out) = (report.to_str().unwrap(), dir.join("out"));
    let out = out.to_str().unwrap();
    for args in [
        &["run", "--smoke", "--seeds", "9", "--out", out][..],
        &["run", "--smoke", "--no-verify", "--out", out],
        &["merge", "--shard", "1/2", a, "--out", out],
        &["merge", "--scenario", "missing.toml", a, "--out", out],
        &["merge", "--stream", a, "--out", out],
        &["supervise", "--smoke", "--shards", "2", "--stall-polls", "8", "--out", out],
        &["diff", "--out", out, a, a],
        &["fuzz", "--budget", "2", "--threads", "2", "--out", out],
        &["bench", "--smoke", "--no-verify", "--out", out],
    ] {
        assert_eq!(code_of(args), 2, "{args:?}");
    }
    assert!(!dir.join("out").exists(), "a refused invocation wrote its --out");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A non-UTF-8 argument is a usage error wherever it stands: as the subcommand, as a
/// flag's value or as a file.
#[cfg(unix)]
#[test]
fn non_utf8_arguments_are_usage_errors() {
    use std::ffi::OsString;
    use std::os::unix::ffi::OsStringExt;
    let dir = scratch("non-utf8");
    let raw = |bytes: &[u8]| OsString::from_vec(bytes.to_vec());
    let code = |args: Vec<OsString>| {
        Command::new(env!("CARGO_BIN_EXE_campaign_ctl"))
            .args(args)
            .output()
            .expect("campaign_ctl spawns")
            .status
            .code()
    };
    let mut out = dir.clone().into_os_string().into_vec();
    out.extend_from_slice(b"/x\xff");
    assert_eq!(code(vec![raw(b"stats"), raw(b"\xff")]), Some(2), "as a file");
    assert_eq!(code(vec![raw(b"\xff")]), Some(2), "as the subcommand");
    let run = vec![raw(b"run"), raw(b"--smoke"), raw(b"--out"), OsString::from_vec(out)];
    assert_eq!(code(run), Some(2), "as a flag value");
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "nothing was written");
    let _ = std::fs::remove_dir_all(&dir);
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
