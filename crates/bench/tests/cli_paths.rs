//! The `campaign_ctl` execution paths, pinned end to end against the real binary on
//! the smoke grid.
//!
//! Every `run` streams: without `--stream` it merges its one shard stream into
//! `report.json` and keeps no stream. Every `merge` is the same k-way merge, with
//! or without `--stream`, and opens `.json` documents and `.jsonl` streams by
//! extension — so a mixed-format merge is byte-identical to the single-process run.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bsm-ctl-paths-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn ctl(args: &[&str]) {
    let output = Command::new(env!("CARGO_BIN_EXE_campaign_ctl"))
        .args(args)
        .output()
        .expect("campaign_ctl spawns");
    assert!(
        output.status.success(),
        "campaign_ctl {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

fn path(dir: &Path, file: &str) -> String {
    dir.join(file).to_str().unwrap().to_string()
}

#[test]
fn a_run_without_stream_leaves_the_report_and_heartbeat_only() {
    let dir = scratch("run");
    ctl(&["run", "--smoke", "--out", &path(&dir, "ctl")]);
    let mut files: Vec<String> = std::fs::read_dir(dir.join("ctl"))
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    // No report.jsonl, *.partial or *.tmp: the shard stream was an intermediate.
    assert_eq!(files, ["progress.json", "report.csv", "report.json"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_with_or_without_stream_takes_json_and_jsonl_shards_alike() {
    let dir = scratch("merge");
    ctl(&["run", "--smoke", "--out", &path(&dir, "whole")]);
    // Shard 1 as a report.json document, shards 2 and 3 as report.jsonl streams.
    ctl(&["run", "--smoke", "--shard", "1/3", "--out", &path(&dir, "shard-1")]);
    for shard in ["2/3", "3/3"] {
        let out = path(&dir, &format!("stream-{}", &shard[..1]));
        ctl(&["run", "--smoke", "--stream", "--shard", shard, "--out", &out]);
    }
    let shards = [
        path(&dir, "shard-1/report.json"),
        path(&dir, "stream-2/report.jsonl"),
        path(&dir, "stream-3/report.jsonl"),
    ];
    for (name, flags) in [("merged", &[][..]), ("stream-merged", &["--stream"][..])] {
        let out = path(&dir, name);
        let mut args = vec!["merge", "--out", &out];
        args.extend_from_slice(flags);
        args.extend(shards.iter().map(String::as_str));
        ctl(&args);
        for file in ["report.json", "report.csv"] {
            let merged = std::fs::read(dir.join(name).join(file)).unwrap();
            let whole = std::fs::read(dir.join("whole").join(file)).unwrap();
            assert!(merged == whole, "{name}/{file} differs from the single-process run");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
