//! The chaos matrix: supervised shard execution against deterministic crash
//! injection, end to end through the real `campaign_ctl` binary.
//!
//! Every test spawns a real supervisor that spawns real worker subprocesses and
//! kills/relaunches them through real process deaths (`--chaos`), then asserts
//! the two contracts of `campaign_ctl supervise`:
//!
//! * **byte-identity** — whenever every shard eventually completes, the merged
//!   `report.json`/`report.csv` are byte-identical to an uninterrupted
//!   single-process `run --smoke`, whatever was killed, torn or hung along the
//!   way;
//! * **graceful degradation** — a shard that exhausts its attempts is
//!   quarantined, the completed shards still merge, `supervise.json` records the
//!   full attempt history, and the process exits with the degraded code 4.
//!
//! Crash points are keyed on cells completed in canonical order (never
//! wall-clock), so every scenario here is reproducible.

use bsm_engine::supervise::{parse_supervise, AttemptOutcome, SuperviseSummary};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A scratch directory unique to one test (removed on entry, best-effort).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bsm-ctl-supervise-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn ctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_campaign_ctl"))
        .args(args)
        .output()
        .expect("campaign_ctl spawns")
}

/// Runs the uninterrupted single-process reference (`run --smoke`) into `dir`.
fn reference(dir: &Path) {
    let out = ctl(&["run", "--smoke", "--out", dir.to_str().unwrap()]);
    assert!(out.status.success(), "reference run failed: {}", String::from_utf8_lossy(&out.stderr));
}

/// Runs `supervise --smoke --shards 3` with the given chaos spec and extra flags.
fn supervised(dir: &Path, chaos: Option<&str>, extra: &[&str]) -> Output {
    let dir = dir.to_str().unwrap();
    let mut args = vec!["supervise", "--smoke", "--shards", "3", "--out", dir];
    // Fast retries and fast completion detection; the stall deadline is the
    // default number of polls, scaled by the poll interval.
    args.extend(["--backoff-ms", "0", "--poll-ms", "25"]);
    if let Some(spec) = chaos {
        args.extend(["--chaos", spec]);
    }
    args.extend(extra);
    ctl(&args)
}

fn assert_identical(reference: &Path, supervised: &Path) {
    for artifact in ["report.json", "report.csv"] {
        let want = std::fs::read(reference.join(artifact)).unwrap();
        let got = std::fs::read(supervised.join(artifact))
            .unwrap_or_else(|err| panic!("supervised {artifact} missing: {err}"));
        assert_eq!(want, got, "supervised {artifact} is not byte-identical to the plain run");
    }
}

fn summary(dir: &Path) -> SuperviseSummary {
    let text = std::fs::read_to_string(dir.join("supervise.json")).unwrap();
    parse_supervise(&text).expect("supervise.json parses")
}

/// Collects every `.tmp` and `.partial` file under `root`, recursively.
fn residue(root: &Path) -> (Vec<PathBuf>, Vec<PathBuf>) {
    let (mut tmp, mut partial) = (Vec::new(), Vec::new());
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|ext| ext == "tmp") {
                tmp.push(path);
            } else if path.extension().is_some_and(|ext| ext == "partial") {
                partial.push(path);
            }
        }
    }
    (tmp, partial)
}

/// The shard-2 attempt rows of a summary, in launch order.
fn shard_attempts(summary: &SuperviseSummary, shard: usize) -> Vec<(u32, bool, AttemptOutcome)> {
    summary
        .attempts
        .iter()
        .filter(|record| record.shard == shard)
        .map(|record| (record.attempt, record.resumed, record.outcome))
        .collect()
}

#[test]
fn clean_supervised_run_is_byte_identical_and_leaves_no_residue() {
    let base = scratch("clean");
    let (reference_dir, supervised_dir) = (base.join("ref"), base.join("sup"));
    reference(&reference_dir);
    let out = supervised(&supervised_dir, None, &[]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert_identical(&reference_dir, &supervised_dir);
    let summary = summary(&supervised_dir);
    assert!(!summary.degraded());
    assert_eq!(summary.completed_shards(), vec![1, 2, 3]);
    assert_eq!(summary.attempts.len(), 3, "one attempt per healthy shard");
    assert!(summary.attempts.iter().all(|r| !r.resumed && r.exit == 0 && r.backoff_ms == 0));
    let (tmp, partial) = residue(&supervised_dir);
    assert!(tmp.is_empty(), "stale staging files: {tmp:?}");
    assert!(partial.is_empty(), "unsalvaged partials: {partial:?}");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn boundary_and_torn_and_early_and_finish_deaths_all_recover_byte_identically() {
    let base = scratch("matrix");
    let (reference_dir, supervised_dir) = (base.join("ref"), base.join("sup"));
    reference(&reference_dir);
    // One injected death per shard, each a different shape: shard 1 dies before
    // its first heartbeat, shard 2 is SIGKILLed mid-line (torn half-line after
    // cell 7), shard 3 dies after its footer but before the final rename.
    let out = supervised(&supervised_dir, Some("1:1:early,2:1:torn7,3:1:finish"), &[]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert_identical(&reference_dir, &supervised_dir);
    let summary = summary(&supervised_dir);
    assert!(!summary.degraded());
    // Early death left nothing salvageable: the relaunch is a fresh `run`.
    assert_eq!(
        shard_attempts(&summary, 1),
        vec![(1, false, AttemptOutcome::Crashed), (2, false, AttemptOutcome::Completed)]
    );
    // Torn partial: salvaged and finished by `resume`.
    assert_eq!(
        shard_attempts(&summary, 2),
        vec![(1, false, AttemptOutcome::Crashed), (2, true, AttemptOutcome::Completed)]
    );
    // Complete-but-unpublished partial: `resume` salvages all of it.
    assert_eq!(
        shard_attempts(&summary, 3),
        vec![(1, false, AttemptOutcome::Crashed), (2, true, AttemptOutcome::Completed)]
    );
    // Every injected death reported the chaos exit code (128 + SIGKILL).
    assert!(summary
        .attempts
        .iter()
        .filter(|r| r.outcome == AttemptOutcome::Crashed)
        .all(|r| r.exit == 137));
    let (tmp, partial) = residue(&supervised_dir);
    assert!(tmp.is_empty(), "stale staging files: {tmp:?}");
    assert!(partial.is_empty(), "unsalvaged partials: {partial:?}");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn repeated_boundary_crashes_recover_across_multiple_resumes() {
    let base = scratch("repeat");
    let (reference_dir, supervised_dir) = (base.join("ref"), base.join("sup"));
    reference(&reference_dir);
    // Shard 2 dies after cell 5 on attempt 1 and after cell 9 on attempt 2 (a
    // stream-absolute position: the 9th cell counting the salvaged replay), so
    // attempt 3 resumes a twice-crashed shard.
    let out = supervised(&supervised_dir, Some("2:1:5,2:2:9"), &[]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert_identical(&reference_dir, &supervised_dir);
    let summary = summary(&supervised_dir);
    assert_eq!(
        shard_attempts(&summary, 2),
        vec![
            (1, false, AttemptOutcome::Crashed),
            (2, true, AttemptOutcome::Crashed),
            (3, true, AttemptOutcome::Completed),
        ]
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn hung_worker_is_killed_by_the_stall_watchdog_and_the_retry_completes() {
    let base = scratch("hang");
    let (reference_dir, supervised_dir) = (base.join("ref"), base.join("sup"));
    reference(&reference_dir);
    // Shard 2 stops beating after cell 3 without exiting; only the watchdog
    // (here: no heartbeat advance across the default 150 polls × 25 ms) can end
    // it. The generous deadline keeps slow-but-healthy workers safe on loaded CI
    // machines.
    let out = supervised(&supervised_dir, Some("2:1:hang3"), &[]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert_identical(&reference_dir, &supervised_dir);
    let summary = summary(&supervised_dir);
    let shard2 = shard_attempts(&summary, 2);
    assert_eq!(shard2[0], (1, false, AttemptOutcome::Stalled));
    assert_eq!(shard2.last().unwrap().2, AttemptOutcome::Completed);
    let stalled = summary.attempts.iter().find(|r| r.outcome == AttemptOutcome::Stalled).unwrap();
    assert_eq!(stalled.exit, 137, "a stall kill is recorded as 128 + SIGKILL");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn exhausted_attempts_quarantine_the_shard_and_degrade_gracefully() {
    let base = scratch("quarantine");
    let supervised_dir = base.join("sup");
    // Shard 2 dies at the same boundary on every one of its 3 allowed attempts.
    let out = supervised(&supervised_dir, Some("2:1:3,2:2:3,2:3:3"), &["--max-attempts", "3"]);
    assert_eq!(out.status.code(), Some(4), "degraded runs must exit 4");
    let summary = summary(&supervised_dir);
    assert!(summary.degraded());
    assert_eq!(summary.completed_shards(), vec![1, 3]);
    assert_eq!(summary.quarantined.len(), 1);
    let quarantined = summary.quarantined[0];
    assert_eq!(
        (quarantined.shard, quarantined.start, quarantined.cells, quarantined.attempts),
        (2, 24, 24, 3),
        "the quarantine names shard 2's exact canonical range"
    );
    assert_eq!(shard_attempts(&summary, 2).len(), 3, "bounded attempts");
    // Graceful degradation: the completed shards still merged — 48 of 72 cells.
    let json = std::fs::read_to_string(supervised_dir.join("report.json")).unwrap();
    let merged = bsm_engine::from_json(&json).unwrap();
    assert_eq!(merged.totals().scenarios, 48);
    // No staging debris anywhere; the only partial is the quarantined shard's
    // salvageable stream (a later manual resume can still finish it).
    let (tmp, partial) = residue(&supervised_dir);
    assert!(tmp.is_empty(), "stale staging files: {tmp:?}");
    assert_eq!(partial, vec![supervised_dir.join("shard-2").join("report.jsonl.partial")]);
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn chaos_across_different_shards_and_attempts_composes() {
    let base = scratch("compose");
    let (reference_dir, supervised_dir) = (base.join("ref"), base.join("sup"));
    reference(&reference_dir);
    // Shard 1 dies once at a boundary; shard 3 tears a line on attempt 1 and
    // dies at another boundary on attempt 2; everything still converges.
    let out = supervised(&supervised_dir, Some("1:1:2,3:1:torn4,3:2:6"), &[]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert_identical(&reference_dir, &supervised_dir);
    let summary = summary(&supervised_dir);
    assert!(!summary.degraded());
    assert_eq!(shard_attempts(&summary, 1).len(), 2);
    assert_eq!(shard_attempts(&summary, 2).len(), 1, "shard 2 was never touched");
    assert_eq!(shard_attempts(&summary, 3).len(), 3);
    let _ = std::fs::remove_dir_all(&base);
}
