//! The repository benchmark: runs one workload of the bSM campaign engine for a fixed
//! host time, checks its outputs, and prints the metrics `BENCHMARK.json` declares.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload ds_heavy --seed 0 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is the result: `{"correct": …, "attempted": …,
//! "failed": …, "metrics": {…}}`, with the end-to-end metrics under `--trace 0` and the
//! per-layer metrics under `--trace 1`. The line before it is the run record. Artifacts
//! and the span trace (`trace.jsonl`) go to `perfbench/.out/<workload>/`. A failed output
//! check prints `"correct": false` and exits with status 1.

mod campaign;
mod fuzz;
mod metrics;
mod probes;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Dolev–Strong-heavy cells: the crypto, broadcast and netsim layers.
    DsHeavy,
    /// The default grid under three fault plans, sharded, merged and diffed.
    GridPipeline,
    /// The sequential adversary-script fuzzer.
    FuzzSearch,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] =
        [Workload::DsHeavy, Workload::GridPipeline, Workload::FuzzSearch];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DsHeavy => "ds_heavy",
            Workload::GridPipeline => "grid_pipeline",
            Workload::FuzzSearch => "fuzz_search",
        }
    }
}

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The seed every input is generated from.
    pub seed: u64,
    /// Host seconds of measurement.
    pub seconds: f64,
    /// Whether this is the traced run, printing per-layer metrics.
    pub trace: bool,
    /// Where the run writes its artifacts.
    pub dir: PathBuf,
}

/// Operations attempted and failed over a run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Cells (fuzz: cases) attempted.
    pub attempted: u64,
    /// Cells that failed (fuzz: cases that raised a harness error).
    pub failed: u64,
}

/// Largest seed accepted: every workload derives seed ranges from it without overflow.
const MAX_SEED: u64 = 1 << 48;

const USAGE: &str = "usage: perfbench --workload <ds_heavy|grid_pipeline|fuzz_search> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<(Workload, RunConfig), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let found = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(found.ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => {
                let parsed = value.parse::<u64>().ok().filter(|&s| s < MAX_SEED);
                seed = Some(parsed.ok_or_else(|| format!("--seed {value:?} is not below 2^48"))?);
            }
            "--seconds" => {
                let parsed = value.parse::<f64>().ok().filter(|s| s.is_finite() && *s >= 0.0);
                seconds = Some(parsed.ok_or_else(|| format!("bad --seconds {value:?}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".out").join(workload.name());
    Ok((
        workload,
        RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            dir,
        },
    ))
}

/// Hex SHA-256 of `bytes`.
pub fn hex_digest(bytes: &[u8]) -> String {
    bsm_crypto::Digest::of_bytes(bytes).as_bytes().iter().map(|b| format!("{b:02x}")).collect()
}

/// Peak resident set size of this process (`VmHWM`), in megabytes.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|err| format!("cannot read /proc/self/status: {err}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Runs `workload`; returns its metric values and run record.
fn run_workload(
    workload: Workload,
    config: &RunConfig,
    tally: &mut Tally,
) -> Result<(metrics::Values, String), String> {
    match workload {
        Workload::DsHeavy => campaign::run(&campaign::DS_HEAVY, config, tally),
        Workload::GridPipeline => campaign::run(&campaign::GRID_PIPELINE, config, tally),
        Workload::FuzzSearch => fuzz::run(config, tally),
    }
}

fn main() -> ExitCode {
    let (workload, config) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&config.dir);
    if let Err(err) = std::fs::create_dir_all(&config.dir) {
        eprintln!("perfbench: cannot create {}: {err}", config.dir.display());
        return ExitCode::FAILURE;
    }
    let mut tally = Tally::default();
    let outcome = run_workload(workload, &config, &mut tally);
    let line = outcome.and_then(|(values, record)| {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        println!(
            "{{\"run_record\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
             \"trace\": {}, \"nproc\": {nproc}, {record}, \"rustc\": \"{}\"}}}}",
            workload.name(),
            config.seed,
            config.seconds,
            config.trace,
            env!("PERFBENCH_RUSTC_VERSION")
        );
        metrics::result_line(tally.attempted, tally.failed, metrics::table(config.trace), &values)
    });
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(reason) => {
            eprintln!("perfbench: {} failed its checks: {reason}", workload.name());
            println!("{}", metrics::failed_line(tally.attempted.max(1), tally.failed));
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(String::from).collect()
    }

    /// Runs `workload` briefly in both modes and checks that it prints exactly the
    /// metrics `BENCHMARK.json` declares.
    fn prints_every_declared_metric(workload: Workload, seed: u64) {
        for trace in [false, true] {
            let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join(".out")
                .join(format!("test-{}-{trace}", workload.name()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let config = RunConfig { seed, seconds: 0.0, trace, dir };
            let mut tally = Tally::default();
            let (values, _) = run_workload(workload, &config, &mut tally).unwrap();
            let table = metrics::table(trace);
            metrics::result_line(tally.attempted, tally.failed, table, &values).unwrap();
            let declared = |name: &&str| {
                metrics::END_TO_END.iter().chain(&metrics::PER_LAYER).any(|(n, _)| n == name)
            };
            assert!(values.keys().all(declared), "{} measures undeclared metrics", workload.name());
            assert!(tally.attempted > 0 && tally.failed == 0);
        }
    }

    #[test]
    fn ds_heavy_prints_its_metrics() {
        prints_every_declared_metric(Workload::DsHeavy, 1);
    }

    #[test]
    fn grid_pipeline_prints_its_metrics() {
        prints_every_declared_metric(Workload::GridPipeline, 1);
    }

    #[test]
    fn fuzz_search_prints_its_metrics() {
        prints_every_declared_metric(Workload::FuzzSearch, 1);
    }

    #[test]
    fn arguments_parse_in_any_order_and_reject_mistakes() {
        let (workload, config) =
            parse_args(args("--trace 1 --seconds 2 --seed 7 --workload fuzz_search")).unwrap();
        assert_eq!(workload, Workload::FuzzSearch);
        assert_eq!((config.seed, config.seconds, config.trace), (7, 2.0, true));
        assert!(config.dir.ends_with(".out/fuzz_search"));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload ds_heavy --seed -1 --seconds 1 --trace 0",
            "--workload ds_heavy --seed 1 --seconds 1 --trace 2",
            "--workload ds_heavy --seed 1 --seconds 1",
            "--workload ds_heavy --seed 1 --seconds 1 --trace",
            "--workload ds_heavy --seed 281474976710656 --seconds 1 --trace 0",
        ] {
            assert!(parse_args(args(bad)).is_err(), "{bad}");
        }
    }
}
