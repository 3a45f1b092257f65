//! A ~1000-scenario campaign on the `bsm-engine` parallel executor.
//!
//! Sweeps market sizes × topologies × auth modes × corruption budgets × adversary
//! strategies × seeds, runs the campaign at several worker-thread counts, verifies
//! that the aggregated JSON/CSV exports are **byte-identical across thread counts**,
//! splits the campaign into shards and verifies the merged shard reports are
//! byte-identical too, reports the parallel speedup, and writes the exports to disk.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example campaign                     # full ~1080-cell sweep
//! cargo run --release --example campaign -- --smoke          # small CI grid
//! cargo run --release --example campaign -- --threads 8 --out target/campaign
//! cargo run --release --example campaign -- --shards 5       # 5-way shard self-check
//! ```
//!
//! Exits non-zero when the determinism check fails or the export cannot be written —
//! CI runs the smoke mode as a regression gate.

use byzantine_stable_matching::engine::export::{to_csv, to_json};
use byzantine_stable_matching::engine::{
    Campaign, CampaignBuilder, CampaignReport, Executor, ShardPlan,
};
use byzantine_stable_matching::AdversarySpec;
use std::ffi::OsStr;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    smoke: bool,
    threads: Option<usize>,
    shards: usize,
    out: PathBuf,
}

fn parse_args() -> Args {
    let mut args =
        Args { smoke: false, threads: None, shards: 3, out: PathBuf::from("target/campaign") };
    // `args_os`, not `args`: a non-UTF-8 argument is reported and ignored, not a panic.
    let mut iter = std::env::args_os().skip(1);
    while let Some(arg) = iter.next() {
        match arg.to_str() {
            Some("--smoke") => args.smoke = true,
            Some("--threads") => match iter.next().map(|v| (positive(&v), v)) {
                Some((Some(n), _)) => args.threads = Some(n),
                Some((None, v)) => {
                    eprintln!("warning: ignoring invalid --threads value: {}", v.to_string_lossy())
                }
                None => eprintln!("warning: --threads expects a positive integer"),
            },
            Some("--shards") => match iter.next().map(|v| (positive(&v), v)) {
                Some((Some(n), _)) => args.shards = n,
                Some((None, v)) => {
                    eprintln!("warning: ignoring invalid --shards value: {}", v.to_string_lossy())
                }
                None => eprintln!("warning: --shards expects a positive integer"),
            },
            Some("--out") => {
                if let Some(dir) = iter.next() {
                    args.out = PathBuf::from(dir);
                }
            }
            _ => eprintln!("warning: ignoring unrecognized argument: {}", arg.to_string_lossy()),
        }
    }
    args
}

/// A flag value that is a positive integer, or `None` (non-UTF-8 values included).
fn positive(value: &OsStr) -> Option<usize> {
    value.to_str()?.parse().ok().filter(|&n| n > 0)
}

fn build_campaign(smoke: bool) -> Campaign {
    if smoke {
        // Small CI grid: 1 × 3 × 2 × 2 × 3 × 2 = 72 cells.
        CampaignBuilder::new()
            .sizes([3])
            .corruptions([(0, 0), (1, 1)])
            .adversaries(AdversarySpec::ALL)
            .seeds(0..2)
            .build()
    } else {
        // Full sweep: 3 × 3 × 2 × 4 × 3 × 5 = 1080 cells.
        CampaignBuilder::new()
            .sizes([3, 4, 5])
            .corruptions([(0, 0), (0, 1), (1, 0), (1, 1)])
            .adversaries(AdversarySpec::ALL)
            .seeds(0..5)
            .build()
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let campaign = build_campaign(args.smoke);
    let mode = if args.smoke { "smoke" } else { "full" };
    println!("# bsm-engine campaign demo ({mode} mode): {campaign}");
    // Timing and hardware context go to stderr so stdout stays byte-identical across
    // runs (the repo's determinism convention); the deterministic results — totals,
    // determinism verdict, export paths — go to stdout.
    eprintln!(
        "hardware: {} core(s) available (speedup over 1 thread is bounded by this)",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    // Thread counts to compare. The engine's contract is that they all aggregate to
    // the same bytes; the wall-clock difference is the point of the engine. The
    // parallel leg is clamped to ≥ 2 so the determinism gate always compares a
    // multi-threaded merge against the serial reference (never 1 vs 1).
    let parallel = args.threads.unwrap_or(if args.smoke { 2 } else { 8 }).max(2);
    let mut counts = if args.smoke { vec![1, parallel] } else { vec![1, 2, 8] };
    if !counts.contains(&parallel) {
        counts.push(parallel);
    }

    let mut exports: Vec<(usize, String, String, f64)> = Vec::new();
    let mut totals = None;
    for &threads in &counts {
        let (report, stats) = Executor::new().threads(threads).run(&campaign);
        eprintln!("threads={threads}: {stats}");
        exports.push((threads, to_json(&report), to_csv(&report), stats.elapsed.as_secs_f64()));
        totals = Some(report.totals());
    }
    if let Some(totals) = totals {
        println!("totals: {totals}");
    }

    // Cross-thread-count determinism check: every export must match the 1-thread one.
    let (_, ref json_1, ref csv_1, elapsed_1) = exports[0];
    for (threads, json, csv, _) in &exports[1..] {
        if json != json_1 || csv != csv_1 {
            eprintln!("DETERMINISM FAILURE: exports differ between 1 and {threads} threads");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "determinism: JSON and CSV exports are byte-identical across thread counts {:?}",
        counts
    );

    // Shard self-check: run the campaign as `--shards` independent slices (as K
    // processes would), merge the shard reports, and require the merged exports to be
    // byte-identical to the unsharded reference.
    let shard_reports: Vec<CampaignReport> = (0..args.shards)
        .map(|index| {
            let plan = ShardPlan::new(index, args.shards).expect("index < count");
            Executor::new().threads(parallel).run(&campaign.shard(plan)).0
        })
        .collect();
    match CampaignReport::merge(shard_reports) {
        Ok(merged) if to_json(&merged) == *json_1 && to_csv(&merged) == *csv_1 => {
            println!(
                "determinism: merging {} shard runs is byte-identical to the unsharded run",
                args.shards
            );
        }
        Ok(_) => {
            eprintln!("DETERMINISM FAILURE: merged {}-shard exports differ", args.shards);
            return ExitCode::FAILURE;
        }
        Err(err) => {
            eprintln!("MERGE FAILURE: {err}");
            return ExitCode::FAILURE;
        }
    }

    // Speedup of the most parallel run over the serial one.
    if let Some((threads, _, _, elapsed)) = exports.iter().find(|(t, _, _, _)| *t == parallel) {
        if *elapsed > 0.0 {
            eprintln!("speedup: {:.2}x at {threads} threads vs 1 thread", elapsed_1 / elapsed);
        }
    }

    // Structured export to disk.
    let json_path = args.out.join("report.json");
    let csv_path = args.out.join("report.csv");
    let write = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&json_path, json_1))
        .and_then(|()| std::fs::write(&csv_path, csv_1));
    if let Err(err) = write {
        eprintln!("EXPORT FAILURE: cannot write to {}: {err}", args.out.display());
        return ExitCode::FAILURE;
    }
    // Paranoid read-back: the CI gate requires the JSON to actually exist.
    match std::fs::metadata(&json_path) {
        Ok(meta) if meta.len() > 0 => {}
        _ => {
            eprintln!("EXPORT FAILURE: {} missing or empty", json_path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("exported {} and {}", json_path.display(), csv_path.display());
    ExitCode::SUCCESS
}
