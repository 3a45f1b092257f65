//! Seeded byte-mutation robustness test for every reader of untrusted text: the
//! TOML-subset readers (`Script::parse`, `ScenarioFile::parse`) and the JSON readers
//! (`from_json`, `StreamingCells` and its salvage mode, `footer_meta`,
//! `parse_telemetry_line`, `parse_progress`, `parse_supervise`).
//!
//! Each reader gets a few thousand mutants of real artifacts — every frozen fuzz
//! regression, every example scenario, and a small exported campaign with its
//! sidecars — made by flipping, inserting, deleting bytes and truncating. The test
//! asserts that no reader panics, that every positioned error points inside its
//! input, and that every accepted script or scenario re-renders to a canonical
//! fixpoint (and every accepted JSON artifact re-exports to an equal value).

use bsm_core::script::Script;
use bsm_core::TextError;
use bsm_engine::{
    footer_meta, from_json, parse_progress, parse_supervise, parse_telemetry_line, to_json,
    AttemptOutcome, AttemptRecord, CampaignBuilder, CampaignReport, Executor, Heartbeat,
    ImportError, QuarantinedShard, ScenarioFile, StreamError, StreamingCells, StreamingExporter,
    SuperviseSummary,
};
use bsm_net::Topology;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Mutants per reader.
const CASES: usize = 3000;

/// Bytes that carry meaning in one of the grammars.
const SYNTAX: &[u8] = b"[]{}\",:=#\\\n\r\t 0-9etf.";

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

fn read_dir_sorted(dir: &Path) -> Vec<String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|err| panic!("{}: {err}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    paths.sort();
    paths.iter().map(|path| std::fs::read_to_string(path).unwrap()).collect()
}

/// One to three stacked mutations of `seed`: flip a byte, insert a syntax byte,
/// delete a byte, or truncate.
fn mutate(rng: &mut StdRng, seed: &[u8]) -> Vec<u8> {
    let mut bytes = seed.to_vec();
    for _ in 0..rng.random_range(1..=3usize) {
        let at = rng.random_range(0..=bytes.len());
        match rng.random_range(0..4u32) {
            0 if at < bytes.len() => bytes[at] ^= rng.random_range(1..=255u8),
            1 => bytes.insert(at, SYNTAX[rng.random_range(0..SYNTAX.len())]),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.truncate(at),
        }
    }
    bytes
}

/// Runs `check` on `CASES` mutants of the seeds, reporting the input of any panic;
/// `check` says whether the reader accepted the mutant, and both outcomes must occur.
fn fuzz(name: &str, seeds: &[String], mut check: impl FnMut(&[u8]) -> bool) {
    let mut rng = StdRng::seed_from_u64(0x7e47_c0de);
    let (mut accepted, mut rejected) = (0, 0);
    for case in 0..CASES {
        let seed = &seeds[case % seeds.len()];
        let input = mutate(&mut rng, seed.as_bytes());
        match catch_unwind(AssertUnwindSafe(|| check(&input))) {
            Ok(true) => accepted += 1,
            Ok(false) => rejected += 1,
            Err(_) => {
                panic!("{name}: case {case} panicked on {:?}", String::from_utf8_lossy(&input))
            }
        }
    }
    assert!(accepted > 0 && rejected > 0, "{name}: {accepted} accepted, {rejected} rejected");
}

fn lines(text: &str) -> usize {
    text.split('\n').count()
}

fn assert_text_error(text: &str, err: &TextError) {
    assert!(err.line <= lines(text), "{err} lies outside {text:?}");
}

fn assert_import_error(text: &str, err: &ImportError) {
    match err {
        ImportError::Syntax { offset, .. } => assert!(*offset <= text.len(), "{err}"),
        ImportError::Stream { line, .. } => assert!(*line <= lines(text), "{err}"),
        ImportError::Schema(_) | ImportError::Io(_) => {}
    }
}

#[test]
fn scripts_never_panic_and_accepted_ones_are_canonical_fixpoints() {
    let seeds = read_dir_sorted(&repo_root().join("crates/core/tests/fuzz_regressions"));
    assert!(seeds.len() >= 5);
    fuzz("Script::parse", &seeds, |bytes| {
        let text = String::from_utf8_lossy(bytes);
        match Script::parse(&text) {
            Ok(script) => {
                let canonical = script.canonical();
                let reparsed = Script::parse(&canonical).expect("canonical text parses");
                assert_eq!(reparsed, script, "{text:?}");
                assert_eq!(reparsed.canonical(), canonical);
                true
            }
            Err(err) => {
                assert_text_error(&text, &err);
                false
            }
        }
    });
}

#[test]
fn scenarios_never_panic_and_accepted_ones_are_canonical_fixpoints() {
    let seeds = read_dir_sorted(&repo_root().join("examples/scenarios"));
    assert!(seeds.len() >= 3);
    fuzz("ScenarioFile::parse", &seeds, |bytes| {
        let text = String::from_utf8_lossy(bytes);
        match ScenarioFile::parse(&text) {
            Ok(scenario) => {
                let canonical = scenario.canonical();
                let reparsed = ScenarioFile::parse(&canonical).expect("canonical text parses");
                assert_eq!(reparsed, scenario, "{text:?}");
                assert_eq!(reparsed.canonical(), canonical);
                true
            }
            Err(err) => {
                assert_text_error(&text, &err);
                false
            }
        }
    });
}

/// A small exported campaign: its `report.json`, its `report.jsonl` and one
/// `metrics.jsonl` line per cell.
fn exported_campaign() -> (String, String, Vec<String>) {
    let campaign = CampaignBuilder::new()
        .sizes([2])
        .topologies([Topology::Bipartite, Topology::FullyConnected])
        .corruptions([(0, 0), (1, 1)])
        .adversaries([bsm_core::AdversarySpec::Lying])
        .build();
    let (mut cells, mut metrics) = (Vec::new(), Vec::new());
    Executor::new()
        .threads(1)
        .run_streaming_telemetry(&campaign, |cell, telemetry| -> Result<(), StreamError> {
            cells.push(cell);
            metrics.push(telemetry.to_json());
            Ok(())
        })
        .unwrap();
    let report = CampaignReport::new(cells).with_scenario("name = \"mutation \\\"seed\\\"\"\n");
    let mut jsonl = Vec::new();
    let mut exporter = StreamingExporter::new(&mut jsonl);
    exporter.set_scenario(report.scenario().unwrap().to_string());
    for cell in report.cells() {
        exporter.write_cell(cell).unwrap();
    }
    exporter.finish().unwrap();
    (to_json(&report), String::from_utf8(jsonl).unwrap(), metrics)
}

#[test]
fn report_documents_never_panic_and_accepted_ones_round_trip() {
    let (json, _, _) = exported_campaign();
    fuzz("from_json", &[json], |bytes| {
        let text = String::from_utf8_lossy(bytes);
        match from_json(&text) {
            Ok(report) => {
                assert_eq!(from_json(&to_json(&report)).unwrap(), report);
                true
            }
            Err(err) => {
                assert_import_error(&text, &err);
                false
            }
        }
    });
}

#[test]
fn streamed_reports_never_panic_in_any_read_mode() {
    let (_, jsonl, _) = exported_campaign();
    fuzz("StreamingCells", &[jsonl], |bytes| {
        // Raw bytes: invalid UTF-8 must surface as an error, not a panic.
        let text = String::from_utf8_lossy(bytes);
        let strict = StreamingCells::new(bytes).collect::<Result<Vec<_>, _>>();
        if let Err(err) = &strict {
            assert_import_error(&text, err);
        }
        match StreamingCells::salvage(bytes) {
            Ok(prefix) => assert_eq!(prefix.complete, strict.is_ok()),
            Err(err) => assert!(matches!(err, ImportError::Io(_)), "{err}"),
        }
        if let Err(err) = footer_meta(bytes) {
            assert_import_error(&text, &err);
        }
        strict.is_ok()
    });
}

#[test]
fn telemetry_lines_never_panic_and_accepted_ones_round_trip() {
    let (_, _, metrics) = exported_campaign();
    fuzz("parse_telemetry_line", &metrics, |bytes| {
        let text = String::from_utf8_lossy(bytes);
        match parse_telemetry_line(&text) {
            Ok(cell) => {
                assert_eq!(parse_telemetry_line(&cell.to_json()).unwrap(), cell);
                true
            }
            Err(err) => {
                assert_import_error(&text, &err);
                false
            }
        }
    });
}

#[test]
fn progress_documents_never_panic() {
    let dir = std::env::temp_dir().join(format!("bsm-reader-mutation-{}", std::process::id()));
    let campaign = CampaignBuilder::new().sizes([2]).build();
    let mut heartbeat = Heartbeat::new(&dir, campaign.len(), 1).unwrap();
    let fresh = std::fs::read_to_string(heartbeat.path()).unwrap();
    heartbeat.tick(campaign.specs()[0]).unwrap();
    let ticked = std::fs::read_to_string(heartbeat.path()).unwrap();
    heartbeat.finish().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    fuzz("parse_progress", &[fresh, ticked], |bytes| {
        let text = String::from_utf8_lossy(bytes);
        match parse_progress(&text) {
            Ok(_) => true,
            Err(err) => {
                assert_import_error(&text, &err);
                false
            }
        }
    });
}

#[test]
fn supervise_documents_never_panic_and_accepted_ones_round_trip() {
    let record = |shard, attempt, resumed, outcome| AttemptRecord {
        shard,
        attempt,
        resumed,
        outcome,
        exit: if outcome == AttemptOutcome::Completed { 0 } else { 137 },
        done: 6,
        backoff_ms: 25 * u64::from(attempt - 1),
    };
    let summary = SuperviseSummary {
        shards: 2,
        total_cells: 24,
        max_attempts: 2,
        attempts: vec![
            record(1, 1, false, AttemptOutcome::Completed),
            record(2, 1, false, AttemptOutcome::Crashed),
            record(2, 2, true, AttemptOutcome::Stalled),
        ],
        quarantined: vec![QuarantinedShard { shard: 2, start: 12, cells: 12, attempts: 2 }],
    };
    fuzz("parse_supervise", &[summary.to_json()], |bytes| {
        let text = String::from_utf8_lossy(bytes);
        match parse_supervise(&text) {
            Ok(parsed) => {
                assert_eq!(parse_supervise(&parsed.to_json()).unwrap(), parsed);
                true
            }
            Err(err) => {
                assert_import_error(&text, &err);
                false
            }
        }
    });
}
