//! Scenario-file contract tests: the worked examples in `docs/SCENARIOS.md` are
//! the literal files under `examples/scenarios/` (neither copy may drift), every
//! example parses with a canonical fixpoint, and a faulty scenario's report
//! artifacts are byte-identical across thread counts and a K=3 streamed shard
//! merge — the partial-synchrony faults never break the determinism contract.

use bsm_engine::{
    footer_meta, to_json, CellMerge, Executor, MergedJsonWriter, ScenarioFile, ShardPlan,
    StreamingCells, StreamingExporter, Totals,
};
use std::path::{Path, PathBuf};

/// The example scenarios, in the order `docs/SCENARIOS.md` presents them.
const EXAMPLES: [&str; 3] = ["clean_grid", "partition_heal", "lossy_link"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

fn example_path(name: &str) -> PathBuf {
    repo_root().join("examples").join("scenarios").join(format!("{name}.toml"))
}

/// Extracts the ```toml fenced blocks of a markdown document, in order.
fn toml_blocks(markdown: &str) -> Vec<String> {
    let mut blocks = Vec::new();
    let mut current: Option<String> = None;
    for line in markdown.lines() {
        match &mut current {
            Some(block) => {
                if line.trim_end() == "```" {
                    blocks.push(current.take().expect("checked Some"));
                } else {
                    block.push_str(line);
                    block.push('\n');
                }
            }
            None if line.trim_end() == "```toml" => current = Some(String::new()),
            None => {}
        }
    }
    assert!(current.is_none(), "docs/SCENARIOS.md ends inside a ```toml block");
    blocks
}

#[test]
fn docs_examples_are_the_literal_example_files() {
    let docs = std::fs::read_to_string(repo_root().join("docs").join("SCENARIOS.md"))
        .expect("docs/SCENARIOS.md is readable");
    let blocks = toml_blocks(&docs);
    assert_eq!(
        blocks.len(),
        EXAMPLES.len(),
        "docs/SCENARIOS.md must contain exactly one ```toml block per example file"
    );
    for (name, block) in EXAMPLES.iter().zip(&blocks) {
        let path = example_path(name);
        let file = std::fs::read_to_string(&path)
            .unwrap_or_else(|err| panic!("cannot read {}: {err}", path.display()));
        assert_eq!(
            block,
            &file,
            "the ```toml block for {name} in docs/SCENARIOS.md must be byte-identical \
             to {}",
            path.display()
        );
    }
}

#[test]
fn every_example_parses_with_a_canonical_fixpoint() {
    for name in EXAMPLES {
        let scenario =
            ScenarioFile::load(&example_path(name)).unwrap_or_else(|err| panic!("{name}: {err}"));
        assert!(!scenario.name.is_empty(), "{name}");
        assert!(!scenario.campaign().is_empty(), "{name}: the campaign must be non-empty");
        let canonical = scenario.canonical();
        let reparsed =
            ScenarioFile::parse(&canonical).unwrap_or_else(|err| panic!("{name}: {err}"));
        assert_eq!(reparsed, scenario, "{name}: canonical text must parse back identically");
        assert_eq!(reparsed.canonical(), canonical, "{name}: canonical must be a fixpoint");
    }
}

#[test]
fn faulty_scenario_reports_are_byte_identical_across_thread_counts() {
    // lossy_link exercises the stochastic fault axes (loss + jitter), the hardest
    // case for cross-thread determinism; partition_heal the scheduled ones.
    for name in ["partition_heal", "lossy_link"] {
        let scenario = ScenarioFile::load(&example_path(name)).unwrap();
        let campaign = scenario.campaign();
        let tag = scenario.canonical();
        let (one, _) = Executor::new().threads(1).run(&campaign);
        let (four, _) = Executor::new().threads(4).run(&campaign);
        assert_eq!(
            to_json(&one.with_scenario(tag.clone())),
            to_json(&four.with_scenario(tag.clone())),
            "{name}: 1-thread and 4-thread exports must be byte-identical"
        );
    }
}

#[test]
fn faulty_scenario_streamed_shard_merge_is_byte_identical_to_the_unsharded_run() {
    let scenario = ScenarioFile::load(&example_path("lossy_link")).unwrap();
    let campaign = scenario.campaign();
    let tag = scenario.canonical();
    let executor = Executor::new().threads(2);

    // The reference document: the unsharded in-memory run, tagged.
    let (report, _) = executor.run(&campaign);
    let expected = to_json(&report.with_scenario(tag.clone()));

    // Shard side: 3 streamed shard exports, each carrying the scenario tag.
    let mut shards: Vec<Vec<u8>> = Vec::new();
    for index in 0..3 {
        let mut buf = Vec::new();
        let mut exporter = StreamingExporter::new(&mut buf);
        exporter.set_scenario(tag.clone());
        let plan = ShardPlan::new(index, 3).unwrap();
        executor
            .run_shard_streaming_telemetry(&campaign, plan, |cell, _| exporter.write_cell(&cell))
            .unwrap();
        exporter.finish().unwrap();
        shards.push(buf);
    }

    // Coordinator side: footers carry equal tags; the k-way merge re-renders the
    // canonical document byte-identically.
    let mut totals = Totals::default();
    let mut merged_tag: Option<String> = None;
    for (index, shard) in shards.iter().enumerate() {
        let (shard_totals, shard_tag) = footer_meta(&shard[..]).unwrap();
        totals += shard_totals;
        assert_eq!(shard_tag.as_deref(), Some(tag.as_str()), "shard {index} footer tag");
        merged_tag = shard_tag;
    }
    let mut out = Vec::new();
    let mut writer = MergedJsonWriter::with_scenario(&mut out, totals, merged_tag).unwrap();
    let streams: Vec<_> = shards.iter().map(|shard| StreamingCells::new(&shard[..])).collect();
    for cell in CellMerge::new(streams) {
        writer.write_cell(&cell.unwrap()).unwrap();
    }
    writer.finish().unwrap();
    assert_eq!(String::from_utf8(out).unwrap(), expected);
}
