//! The `campaign_ctl` execution paths, pinned end to end against the real binary on
//! the smoke grid.
//!
//! Every `run` streams: without `--stream` it merges its one shard stream into
//! `report.json` and keeps no stream. Every `merge` is the same k-way merge, and
//! opens `.json` documents and `.jsonl` streams by extension — so a mixed-format
//! merge is byte-identical to the single-process run.

use bsm_core::harness::AdversarySpec;
use bsm_core::problem::AuthMode;
use bsm_core::solvability::ProtocolPlan;
use bsm_engine::{
    from_json, from_jsonl, CampaignDiff, CellOutcome, CellRecord, CellStats, ScenarioSpec,
    StreamingExporter,
};
use bsm_net::{FaultSpec, Topology};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bsm-ctl-paths-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_ctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_campaign_ctl"))
        .args(args)
        .output()
        .expect("campaign_ctl spawns")
}

fn ctl(args: &[&str]) {
    let output = run_ctl(args);
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
fn merge_takes_json_and_jsonl_shards_alike() {
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
    let out = path(&dir, "merged");
    let mut args = vec!["merge", "--out", &out];
    args.extend(shards.iter().map(String::as_str));
    ctl(&args);
    for file in ["report.json", "report.csv"] {
        let merged = std::fs::read(dir.join("merged").join(file)).unwrap();
        let whole = std::fs::read(dir.join("whole").join(file)).unwrap();
        assert!(merged == whole, "merged/{file} differs from the single-process run");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shard footers whose slots sum past `u64::MAX` merge into saturated totals, and
/// the merged document re-exports byte for byte.
#[test]
fn merge_of_footers_summing_past_u64_max_saturates() {
    let dir = scratch("saturate");
    let shards: Vec<String> = (0..2)
        .map(|seed| {
            let cell = CellRecord {
                spec: ScenarioSpec {
                    k: 3,
                    topology: Topology::FullyConnected,
                    auth: AuthMode::Authenticated,
                    t_l: 1,
                    t_r: 1,
                    adversary: AdversarySpec::Crash,
                    faults: FaultSpec::NONE,
                    seed,
                },
                outcome: CellOutcome::Completed(CellStats {
                    plan: ProtocolPlan::ALL[0],
                    all_honest_decided: true,
                    violations: 0,
                    slots: u64::MAX,
                    messages: 1,
                    signatures: 1,
                }),
            };
            let mut stream = Vec::new();
            let mut exporter = StreamingExporter::new(&mut stream);
            exporter.write_cell(&cell).unwrap();
            exporter.finish().unwrap();
            let shard = path(&dir, &format!("shard-{seed}.jsonl"));
            std::fs::write(&shard, stream).unwrap();
            shard
        })
        .collect();
    ctl(&["merge", "--out", &path(&dir, "merged"), &shards[0], &shards[1]]);
    let json = std::fs::read_to_string(dir.join("merged").join("report.json")).unwrap();
    let report = from_json(&json).unwrap();
    assert_eq!(report.totals().slots, u64::MAX);
    assert_eq!(bsm_engine::to_json(&report), json);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `report.json` whose first two cells are swapped is refused by every reader of
/// documents: `merge` and `diff` fail (exit 1) and name the cell, instead of putting
/// the cells back in order or comparing them as if they were.
#[test]
fn merge_and_diff_refuse_a_report_json_with_swapped_cells() {
    let dir = scratch("swapped");
    ctl(&["run", "--smoke", "--out", &path(&dir, "whole")]);
    let json = std::fs::read_to_string(dir.join("whole/report.json")).unwrap();
    let mut lines: Vec<&str> = json.lines().collect();
    let first = lines.iter().position(|line| line.starts_with("    {")).unwrap();
    lines.swap(first, first + 1);
    let swapped = path(&dir, "swapped.json");
    std::fs::write(&swapped, lines.join("\n") + "\n").unwrap();
    let whole = path(&dir, "whole/report.json");
    for args in
        [vec!["merge", "--out", &path(&dir, "merged"), &swapped], vec!["diff", &swapped, &whole]]
    {
        let output = run_ctl(&args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "campaign_ctl {args:?}: {stderr}");
        assert!(stderr.contains("cells[1]: cell out of canonical coordinate order"), "{stderr}");
    }
    assert!(!dir.join("merged/report.json").exists(), "a refused merge publishes nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `diff` merge-joins a `report.json` document against a `report.jsonl` stream as
/// it reads them, and prints what `CampaignDiff::between` prints for the two imported
/// reports.
#[test]
fn diff_of_a_json_document_against_a_jsonl_stream_equals_between_on_the_imports() {
    let dir = scratch("diff");
    ctl(&["run", "--smoke", "--out", &path(&dir, "whole")]);
    let whole = path(&dir, "whole/report.json");
    let left = from_json(&std::fs::read_to_string(&whole).unwrap()).unwrap();
    // The right side: the same cells as a stream, with one cell changed and one gone.
    let mut cells = left.cells().to_vec();
    cells.remove(5);
    cells[0].outcome = CellOutcome::Failed { message: "injected".into() };
    let mut stream = Vec::new();
    let mut exporter = StreamingExporter::new(&mut stream);
    for cell in &cells {
        exporter.write_cell(cell).unwrap();
    }
    exporter.finish().unwrap();
    let changed = path(&dir, "changed.jsonl");
    std::fs::write(&changed, &stream).unwrap();
    let output = run_ctl(&["diff", &whole, &changed]);
    assert_eq!(output.status.code(), Some(3), "{}", String::from_utf8_lossy(&output.stderr));
    let expected = CampaignDiff::between(&left, &from_jsonl(&stream[..]).unwrap());
    assert_eq!(expected.len(), 2);
    assert_eq!(String::from_utf8(output.stdout).unwrap(), expected.render());
    let _ = std::fs::remove_dir_all(&dir);
}
