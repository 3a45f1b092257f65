//! Argument parsing for the experiment binaries and `campaign_ctl`.
//!
//! [`COMMANDS`] is the one place that says what each command reads. A row names a
//! command as typed (`topology_figure`, `campaign_ctl run`) and its usage: each flag
//! it reads, with its value's name, and its positionals, `[k]` (a market size) and
//! `[PATH...]` (paths). [`BenchArgs::from_args`] parses against one row; an argument
//! outside it sets nothing and is filed in [`BenchArgs::unknown`] under its own name,
//! with the row's usage. `campaign_ctl` exits 2 on any such argument, and the
//! experiment binaries warn and go on.
//!
//! A flag's value is consumed with the flag, inside the row or not, so it never turns
//! into a positional. A positional integer is a market size whatever the row (one
//! outside `1..=`[`MAX_K`] is unrecognized), so `campaign_ctl stats 5` is refused
//! rather than read as a path named `5`.

use bsm_core::problem::MAX_K;
use bsm_engine::supervise::ChaosSpec;
use bsm_engine::{Executor, ShardPlan};
use std::ffi::OsString;
use std::iter::Peekable;
use std::path::PathBuf;

/// One row of [`COMMANDS`]: a command as typed and its usage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// A binary's name, or `campaign_ctl` and a subcommand.
    pub command: &'static str,
    /// Every argument the command reads, each in brackets: `[k]` (a market size),
    /// `[PATH...]` (paths), or a flag and the name of its value.
    pub usage: &'static str,
}

/// What each command reads; no other code decides it.
pub const COMMANDS: [Row; 12] = [
    Row { command: "solvability_matrix", usage: "[k] [--threads N] [--seeds N] [--no-verify]" },
    Row { command: "cost_tables", usage: "[--threads N]" },
    Row { command: "impossibility_attacks", usage: "[--threads N]" },
    Row { command: "topology_figure", usage: "[k]" },
    Row {
        command: "campaign_ctl run",
        usage: "[--smoke] [--scenario FILE] [--stream] [--metrics] [--shard I/K] \
                [--threads N] [--out DIR]",
    },
    // `run --stream`'s flags, so an interrupted invocation is replayed with only the
    // subcommand swapped; not `--metrics`, since telemetry cannot be rebuilt for
    // salvaged cells. A resumed run always leaves its stream.
    Row {
        command: "campaign_ctl resume",
        usage: "[--smoke] [--scenario FILE] [--stream] [--shard I/K] [--threads N] [--out DIR]",
    },
    // No `--shard`, `--stream` or `--metrics`: the supervisor shards, streams and
    // merges itself.
    Row {
        command: "campaign_ctl supervise",
        usage: "[--smoke] [--scenario FILE] [--threads N] [--out DIR] [--shards K] \
                [--chaos SPEC] [--max-attempts N] [--backoff-ms MS] [--poll-ms MS]",
    },
    // A fixed campaign, so that its snapshot stays comparable across runs.
    Row { command: "campaign_ctl bench", usage: "[--smoke] [--threads N] [--out DIR]" },
    // Every merge streams, so there is no `--stream` to select it.
    Row { command: "campaign_ctl merge", usage: "[PATH...] [--out DIR]" },
    Row { command: "campaign_ctl diff", usage: "[PATH...]" },
    Row { command: "campaign_ctl stats", usage: "[PATH...]" },
    Row {
        command: "campaign_ctl fuzz",
        usage: "[--budget N] [--seed S] [--replay FILE] [--freeze] [--out DIR]",
    },
];

/// A positional market size in a [`Row::usage`].
const K: &str = "k";
/// Positional paths in a [`Row::usage`].
const PATHS: &str = "PATH...";

impl Row {
    /// The row of `command`, as typed.
    pub fn of(command: &str) -> Option<Row> {
        COMMANDS.into_iter().find(|row| row.command == command)
    }

    /// Whether the usage lists `arg`: a flag, `k` or `PATH...`.
    fn takes(&self, arg: &str) -> bool {
        self.usage.split('[').skip(1).any(|entry| entry.split([' ', ']']).next() == Some(arg))
    }
}

/// One command's parsed arguments: the fields its [`Row`] lists are set, the rest
/// keep their defaults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// The positional market size, when given; always in `1..=MAX_K`.
    pub k: Option<usize>,
    /// `false` when `--no-verify` was passed.
    pub verify: bool,
    /// Worker-thread override from `--threads`.
    pub threads: Option<usize>,
    /// Seeds per cell from `--seeds` (default 1).
    pub seeds: u64,
    /// The shard to run from `--shard I/K` (1-based on the command line).
    pub shard: Option<ShardPlan>,
    /// Output directory from `--out`.
    pub out: Option<PathBuf>,
    /// `true` when `--smoke` was passed (run the small CI grid).
    pub smoke: bool,
    /// Scenario file from `--scenario` (a declarative campaign description; see
    /// `docs/SCENARIOS.md`).
    pub scenario: Option<PathBuf>,
    /// `true` when `--stream` was passed (`run` keeps `report.jsonl` instead of
    /// rendering `report.json`).
    pub stream: bool,
    /// `true` when `--metrics` was passed (write the `metrics.jsonl` telemetry
    /// sidecar alongside the report artifacts).
    pub metrics: bool,
    /// Fuzzing case budget from `--budget` (`campaign_ctl fuzz`).
    pub budget: Option<u64>,
    /// Fuzzer master seed from `--seed` (`campaign_ctl fuzz`; default 0).
    pub seed: Option<u64>,
    /// Frozen script to replay from `--replay` (`campaign_ctl fuzz`).
    pub replay: Option<PathBuf>,
    /// `true` when `--freeze` was passed (write found/replayed scripts as canonical
    /// regression files).
    pub freeze: bool,
    /// Worker-subprocess count from `--shards` (`campaign_ctl supervise`).
    pub shards: Option<usize>,
    /// Deterministic crash-injection plan from `--chaos` (`campaign_ctl
    /// supervise`; see [`ChaosSpec`]).
    pub chaos: Option<ChaosSpec>,
    /// Bounded attempts per shard from `--max-attempts` (`campaign_ctl
    /// supervise`).
    pub max_attempts: Option<u32>,
    /// Exponential-backoff base in milliseconds from `--backoff-ms`
    /// (`campaign_ctl supervise`; 0 retries immediately).
    pub backoff_ms: Option<u64>,
    /// Heartbeat poll interval in milliseconds from `--poll-ms` (`campaign_ctl
    /// supervise`).
    pub poll_ms: Option<u64>,
    /// Non-numeric positional arguments, in order (paths, for a row with
    /// `[PATH...]`).
    pub files: Vec<String>,
    /// Arguments that were not understood or are outside the row, each starting with
    /// the argument itself.
    pub unknown: Vec<String>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        Self {
            k: None,
            verify: true,
            threads: None,
            seeds: 1,
            shard: None,
            out: None,
            smoke: false,
            scenario: None,
            stream: false,
            metrics: false,
            budget: None,
            seed: None,
            replay: None,
            freeze: false,
            shards: None,
            chaos: None,
            max_attempts: None,
            backoff_ms: None,
            poll_ms: None,
            files: Vec::new(),
            unknown: Vec::new(),
        }
    }
}

impl BenchArgs {
    /// Parses the process arguments (skipping the binary name) against the row of
    /// `command`.
    ///
    /// # Panics
    ///
    /// When [`COMMANDS`] has no row for `command`.
    pub fn parse(command: &str) -> Self {
        let row = Row::of(command).unwrap_or_else(|| panic!("{command} has no row in COMMANDS"));
        Self::from_args(row, std::env::args_os().skip(1))
    }

    /// Parses an explicit argument list against `row` (testable core of
    /// [`BenchArgs::parse`]).
    ///
    /// An argument that is not valid UTF-8 is never taken as a flag's value: it lands
    /// in [`BenchArgs::unknown`], rendered lossily.
    pub fn from_args<S: Into<OsString>>(row: Row, args: impl IntoIterator<Item = S>) -> Self {
        let mut parsed = Self::default();
        let mut iter = args
            .into_iter()
            .map(|arg| arg.into().into_string().map_err(|raw| raw.to_string_lossy().into_owned()))
            .peekable();
        // The value of a `--flag VALUE` pair; never steals a following flag, so
        // `--threads --smoke` reports a missing value instead of swallowing `--smoke`.
        fn value(
            iter: &mut Peekable<impl Iterator<Item = Result<String, String>>>,
        ) -> Option<String> {
            match iter.peek() {
                Some(Ok(next)) if !next.starts_with("--") => iter.next()?.ok(),
                _ => None,
            }
        }
        // A path value must name something: an empty `--out ""` would otherwise
        // write into the working directory.
        fn path(
            iter: &mut Peekable<impl Iterator<Item = Result<String, String>>>,
        ) -> Option<PathBuf> {
            value(iter).filter(|v| !v.is_empty()).map(PathBuf::from)
        }
        while let Some(arg) = iter.next() {
            let arg = match arg {
                Ok(arg) => arg,
                Err(lossy) => {
                    parsed.unknown.push(format!("{lossy} (not valid UTF-8)"));
                    continue;
                }
            };
            let before = parsed.clone();
            match arg.as_str() {
                "--no-verify" => parsed.verify = false,
                "--threads" => match value(&mut iter).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n > 0 => parsed.threads = Some(n),
                    _ => parsed.unknown.push("--threads (expects a positive integer)".into()),
                },
                "--seeds" => match value(&mut iter).and_then(|v| v.parse::<u64>().ok()) {
                    Some(n) if n > 0 => parsed.seeds = n,
                    _ => parsed.unknown.push("--seeds (expects a positive integer)".into()),
                },
                "--shard" => match value(&mut iter).map(|v| (v.parse::<ShardPlan>(), v)) {
                    Some((Ok(plan), _)) => parsed.shard = Some(plan),
                    Some((Err(err), v)) => parsed.unknown.push(format!("--shard {v} ({err})")),
                    None => parsed.unknown.push("--shard (expects I/K, e.g. 2/3)".into()),
                },
                "--out" => match path(&mut iter) {
                    Some(dir) => parsed.out = Some(dir),
                    None => parsed.unknown.push("--out (expects a directory)".into()),
                },
                "--smoke" => parsed.smoke = true,
                "--scenario" => match path(&mut iter) {
                    Some(file) => parsed.scenario = Some(file),
                    None => parsed.unknown.push("--scenario (expects a file)".into()),
                },
                "--stream" => parsed.stream = true,
                "--metrics" => parsed.metrics = true,
                "--budget" => match value(&mut iter).and_then(|v| v.parse::<u64>().ok()) {
                    Some(n) if n > 0 => parsed.budget = Some(n),
                    _ => parsed.unknown.push("--budget (expects a positive integer)".into()),
                },
                "--seed" => match value(&mut iter).and_then(|v| v.parse::<u64>().ok()) {
                    Some(n) => parsed.seed = Some(n),
                    None => parsed.unknown.push("--seed (expects an integer)".into()),
                },
                "--replay" => match path(&mut iter) {
                    Some(file) => parsed.replay = Some(file),
                    None => parsed.unknown.push("--replay (expects a script file)".into()),
                },
                "--freeze" => parsed.freeze = true,
                "--shards" => match value(&mut iter).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n > 0 => parsed.shards = Some(n),
                    _ => parsed.unknown.push("--shards (expects a positive integer)".into()),
                },
                "--chaos" => match value(&mut iter).map(|v| (v.parse::<ChaosSpec>(), v)) {
                    Some((Ok(spec), _)) => parsed.chaos = Some(spec),
                    Some((Err(err), v)) => parsed.unknown.push(format!("--chaos {v} ({err})")),
                    None => {
                        parsed.unknown.push("--chaos (expects SHARD:ATTEMPT:MODE entries)".into());
                    }
                },
                "--max-attempts" => match value(&mut iter).and_then(|v| v.parse::<u32>().ok()) {
                    Some(n) if n > 0 => parsed.max_attempts = Some(n),
                    _ => parsed.unknown.push("--max-attempts (expects a positive integer)".into()),
                },
                "--backoff-ms" => match value(&mut iter).and_then(|v| v.parse::<u64>().ok()) {
                    Some(ms) => parsed.backoff_ms = Some(ms),
                    None => parsed.unknown.push("--backoff-ms (expects milliseconds)".into()),
                },
                "--poll-ms" => match value(&mut iter).and_then(|v| v.parse::<u64>().ok()) {
                    Some(ms) if ms > 0 => parsed.poll_ms = Some(ms),
                    _ => parsed.unknown.push("--poll-ms (expects positive milliseconds)".into()),
                },
                // A flag no row lists: the row check below files it.
                other if other.starts_with("--") => {}
                other => match other.parse::<usize>() {
                    Ok(k) if !(1..=MAX_K).contains(&k) => {
                        parsed.unknown.push(format!("{other} (k must be in 1..={MAX_K})"));
                    }
                    Ok(k) if parsed.k.is_none() => parsed.k = Some(k),
                    Ok(_) => parsed.unknown.push(other.to_string()),
                    Err(_) => parsed.files.push(other.to_string()),
                },
            }
            // After the arm, which has consumed the flag's value: an argument outside
            // the row undoes whatever the arm did, and is filed once.
            let entry = match arg.parse::<usize>() {
                _ if arg.starts_with("--") => arg.as_str(),
                Ok(_) => K,
                Err(_) => PATHS,
            };
            if !row.takes(entry) {
                parsed = before;
                parsed.unknown.push(format!("{arg} ({} takes {})", row.command, row.usage));
            }
        }
        parsed
    }

    /// The market size, falling back to `default` when no positional was given.
    pub fn k_or(&self, default: usize) -> usize {
        self.k.unwrap_or(default)
    }

    /// A campaign executor honoring `--threads` (and otherwise the available
    /// parallelism, per [`Executor::new`]).
    pub fn executor(&self) -> Executor {
        let executor = Executor::new();
        match self.threads {
            Some(n) => executor.threads(n),
            None => executor,
        }
    }

    /// Warns on stderr about every argument an experiment binary ignores, the
    /// entries of [`BenchArgs::unknown`]. Returns `self` for chaining.
    pub fn warn_unknown(self) -> Self {
        for arg in &self.unknown {
            let kind = if arg.starts_with("--") { "flag" } else { "positional argument" };
            crate::errln!("warning: ignoring {kind}: {arg}");
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A row that takes every argument of every row.
    fn every_argument() -> Row {
        static USAGE: std::sync::OnceLock<String> = std::sync::OnceLock::new();
        let usage = USAGE.get_or_init(|| COMMANDS.map(|row| row.usage).join(" "));
        Row { command: "every command", usage }
    }

    fn args(list: &[&str]) -> BenchArgs {
        BenchArgs::from_args(every_argument(), list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_when_empty() {
        let parsed = args(&[]);
        assert_eq!(parsed, BenchArgs::default());
        assert_eq!(parsed.k_or(6), 6);
        assert!(parsed.verify);
    }

    #[test]
    fn positional_k_and_flags() {
        let parsed = args(&["5", "--no-verify", "--threads", "3", "--seeds", "10"]);
        assert_eq!(parsed.k, Some(5));
        assert_eq!(parsed.k_or(6), 5);
        assert!(!parsed.verify);
        assert_eq!(parsed.threads, Some(3));
        assert_eq!(parsed.seeds, 10);
        assert!(parsed.unknown.is_empty());
        assert_eq!(parsed.executor().thread_count(), 3);
        assert_eq!(args(&["1"]).k, Some(1));
        assert_eq!(args(&["64"]).k, Some(MAX_K));
    }

    #[test]
    fn flag_order_does_not_matter() {
        let a = args(&["--threads", "2", "4"]);
        let b = args(&["4", "--threads", "2"]);
        assert_eq!(a, b);
    }

    #[test]
    fn shard_out_smoke_stream_and_files_parse() {
        let parsed = args(&[
            "--shard",
            "2/3",
            "--out",
            "target/shards",
            "--smoke",
            "--stream",
            "--metrics",
            "a.json",
            "b.json",
        ]);
        let plan = parsed.shard.expect("--shard 2/3 parses");
        assert_eq!((plan.index(), plan.count()), (1, 3));
        assert_eq!(parsed.out.as_deref(), Some(std::path::Path::new("target/shards")));
        assert!(parsed.smoke);
        assert!(parsed.stream);
        assert_eq!(parsed.files, vec!["a.json".to_string(), "b.json".to_string()]);
        assert!(parsed.unknown.is_empty());
        assert!(parsed.metrics);
        assert!(!args(&[]).stream, "--stream must be off by default");
        assert!(!args(&[]).metrics, "--metrics must be off by default");
    }

    #[test]
    fn scenario_flag_takes_a_file() {
        let parsed = args(&["--scenario", "examples/scenarios/partition_heal.toml"]);
        assert_eq!(
            parsed.scenario.as_deref(),
            Some(std::path::Path::new("examples/scenarios/partition_heal.toml"))
        );
        assert!(parsed.unknown.is_empty());
        assert_eq!(args(&["--scenario"]).unknown.len(), 1);
        assert_eq!(args(&["--scenario", "--smoke"]).scenario, None);
    }

    #[test]
    fn bad_shard_specs_are_collected_not_fatal() {
        for bad in [&["--shard", "0/3"][..], &["--shard", "4/3"], &["--shard", "x"], &["--shard"]] {
            let parsed = args(bad);
            assert_eq!(parsed.shard, None, "{bad:?}");
            assert_eq!(parsed.unknown.len(), 1, "{bad:?}");
        }
        assert_eq!(args(&["--out"]).unknown.len(), 1);
    }

    #[test]
    fn a_flag_never_swallows_a_following_flag_as_its_value() {
        let parsed = args(&["--threads", "--smoke", "--out", "--no-verify"]);
        assert_eq!(parsed.threads, None);
        assert!(parsed.smoke, "--smoke must survive a missing --threads value");
        assert_eq!(parsed.out, None);
        assert!(!parsed.verify, "--no-verify must survive a missing --out value");
        assert_eq!(parsed.unknown.len(), 2, "{:?}", parsed.unknown);
        let parsed = args(&["--shard", "--smoke"]);
        assert_eq!(parsed.shard, None);
        assert!(parsed.smoke);
    }

    #[test]
    fn fuzz_flags_parse() {
        let parsed = args(&["--budget", "200", "--seed", "1", "--freeze"]);
        assert_eq!(parsed.budget, Some(200));
        assert_eq!(parsed.seed, Some(1));
        assert!(parsed.freeze);
        assert!(parsed.unknown.is_empty());
        let replay = args(&["--replay", "crates/core/tests/fuzz_regressions/x.toml"]);
        assert_eq!(
            replay.replay.as_deref(),
            Some(std::path::Path::new("crates/core/tests/fuzz_regressions/x.toml"))
        );
        let defaults = args(&[]);
        assert_eq!(defaults.budget, None);
        assert_eq!(defaults.seed, None);
        assert_eq!(defaults.replay, None);
        assert!(!defaults.freeze);
        // Seed 0 is a legal explicit value, budget 0 is not.
        assert_eq!(args(&["--seed", "0"]).seed, Some(0));
        assert_eq!(args(&["--budget", "0"]).unknown.len(), 1);
        // Missing values are collected, never stolen from a following flag.
        assert_eq!(args(&["--budget", "--freeze"]).budget, None);
        assert!(args(&["--budget", "--freeze"]).freeze);
        assert_eq!(args(&["--seed"]).unknown.len(), 1);
        assert_eq!(args(&["--replay", "--freeze"]).replay, None);
    }

    #[test]
    fn supervise_flags_parse() {
        let parsed = args(&[
            "--shards",
            "3",
            "--chaos",
            "2:1:torn7,3:1:early",
            "--max-attempts",
            "2",
            "--backoff-ms",
            "0",
            "--poll-ms",
            "25",
        ]);
        assert_eq!(parsed.shards, Some(3));
        let chaos = parsed.chaos.as_ref().expect("--chaos parses");
        assert_eq!(chaos.to_string(), "2:1:torn7,3:1:early");
        assert_eq!(parsed.max_attempts, Some(2));
        assert_eq!(parsed.backoff_ms, Some(0), "--backoff-ms 0 is legal (retry immediately)");
        assert_eq!(parsed.poll_ms, Some(25));
        assert!(parsed.unknown.is_empty());
        let defaults = args(&[]);
        assert_eq!(defaults.shards, None);
        assert_eq!(defaults.chaos, None);
        assert_eq!(defaults.max_attempts, None);
        assert_eq!(defaults.backoff_ms, None);
        assert_eq!(defaults.poll_ms, None);
        // Bad values are collected, never fatal, never stealing a following flag.
        assert_eq!(args(&["--shards", "0"]).unknown.len(), 1);
        assert_eq!(args(&["--chaos", "2:0:early"]).unknown.len(), 1);
        assert_eq!(args(&["--chaos", "nonsense"]).unknown.len(), 1);
        assert_eq!(args(&["--max-attempts", "0"]).unknown.len(), 1);
        assert_eq!(args(&["--poll-ms", "0"]).unknown.len(), 1);
        let starved = args(&["--shards", "--smoke"]);
        assert_eq!(starved.shards, None);
        assert!(starved.smoke);
    }

    #[cfg(unix)]
    #[test]
    fn non_utf8_arguments_are_unknown_and_never_values() {
        use std::os::unix::ffi::OsStringExt;
        let bad = || OsString::from_vec(b"/tmp/x\xff".to_vec());
        let argv = [OsString::from("--out"), bad(), "--smoke".into()];
        let parsed = BenchArgs::from_args(every_argument(), argv);
        assert_eq!(parsed.out, None);
        assert!(parsed.smoke);
        assert_eq!(
            parsed.unknown,
            ["--out (expects a directory)", "/tmp/x\u{FFFD} (not valid UTF-8)"],
        );
        let parsed = BenchArgs::from_args(every_argument(), [bad()]);
        assert!(parsed.files.is_empty());
        assert_eq!(parsed.unknown.len(), 1);
    }

    /// Each flag that takes a value, and whether `value` is well formed for it.
    const VALUE_FLAGS: [&str; 13] = [
        "--threads",
        "--seeds",
        "--shard",
        "--out",
        "--scenario",
        "--budget",
        "--seed",
        "--replay",
        "--shards",
        "--chaos",
        "--max-attempts",
        "--backoff-ms",
        "--poll-ms",
    ];

    fn well_formed(flag: &str, value: &str) -> bool {
        let positive = |v: &str| v.parse::<u64>().is_ok_and(|n| n > 0);
        let positive_u32 = |v: &str| v.parse::<u32>().is_ok_and(|n| n > 0);
        match flag {
            "--threads" | "--shards" => value.parse::<usize>().is_ok_and(|n| n > 0),
            "--seeds" | "--budget" | "--poll-ms" => positive(value),
            "--max-attempts" => positive_u32(value),
            "--seed" | "--backoff-ms" => value.parse::<u64>().is_ok(),
            "--shard" => value.parse::<ShardPlan>().is_ok(),
            "--chaos" => value.parse::<ChaosSpec>().is_ok(),
            "--out" | "--scenario" | "--replay" => !value.is_empty(),
            other => unreachable!("{other} takes no value"),
        }
    }

    /// Whether the field `flag` sets still holds its default.
    fn is_default(parsed: &BenchArgs, flag: &str) -> bool {
        match flag {
            "--threads" => parsed.threads.is_none(),
            "--seeds" => parsed.seeds == 1,
            "--shard" => parsed.shard.is_none(),
            "--out" => parsed.out.is_none(),
            "--scenario" => parsed.scenario.is_none(),
            "--budget" => parsed.budget.is_none(),
            "--seed" => parsed.seed.is_none(),
            "--replay" => parsed.replay.is_none(),
            "--shards" => parsed.shards.is_none(),
            "--chaos" => parsed.chaos.is_none(),
            "--max-attempts" => parsed.max_attempts.is_none(),
            "--backoff-ms" => parsed.backoff_ms.is_none(),
            "--poll-ms" => parsed.poll_ms.is_none(),
            other => unreachable!("{other} takes no value"),
        }
    }

    /// Seeded argv mutants: tokens of a well-formed invocation dropped, duplicated,
    /// swapped, or replaced by a hostile value. No mutant may panic, and every flag
    /// whose value is missing or malformed must land in `unknown` — once per
    /// occurrence — without setting its field.
    #[test]
    fn mutated_argv_never_panics_and_reports_every_malformed_value() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        const HOSTILE: [&str; 6] = ["0", "-1", "18446744073709551616", "1/0", "4/3", ""];
        let base: Vec<String> = [
            "5",
            "--threads",
            "2",
            "--seeds",
            "3",
            "--shard",
            "2/3",
            "--out",
            "target/x",
            "--smoke",
            "--scenario",
            "s.toml",
            "--stream",
            "--metrics",
            "--budget",
            "10",
            "--seed",
            "7",
            "--replay",
            "r.toml",
            "--freeze",
            "--shards",
            "2",
            "--chaos",
            "1:1:early",
            "--max-attempts",
            "2",
            "--backoff-ms",
            "0",
            "--poll-ms",
            "25",
            "--no-verify",
            "a.json",
        ]
        .map(String::from)
        .to_vec();
        assert!(args(&base.iter().map(String::as_str).collect::<Vec<_>>()).unknown.is_empty());

        let mut rng = StdRng::seed_from_u64(0xa76);
        let mut malformed_seen = 0;
        for _ in 0..3000 {
            let mut tokens = base.clone();
            for _ in 0..rng.random_range(1..=3u32) {
                let i = rng.random_range(0..tokens.len());
                match rng.random_range(0..4u32) {
                    0 if tokens.len() > 1 => {
                        tokens.remove(i);
                    }
                    1 => tokens.insert(i, tokens[i].clone()),
                    2 => {
                        let j = rng.random_range(0..tokens.len());
                        tokens.swap(i, j);
                    }
                    _ => tokens[i] = HOSTILE[rng.random_range(0..HOSTILE.len())].to_string(),
                }
            }
            let parsed =
                std::panic::catch_unwind(|| BenchArgs::from_args(every_argument(), tokens.clone()))
                    .unwrap_or_else(|_| panic!("from_args panicked on {tokens:?}"));
            for flag in VALUE_FLAGS {
                let (mut bad, mut good) = (0, 0);
                for (i, token) in tokens.iter().enumerate() {
                    if token != flag {
                        continue;
                    }
                    match tokens.get(i + 1).filter(|next| !next.starts_with("--")) {
                        Some(value) if well_formed(flag, value) => good += 1,
                        _ => bad += 1,
                    }
                }
                let reported =
                    parsed.unknown.iter().filter(|u| u.split(' ').next() == Some(flag)).count();
                assert_eq!(reported, bad, "{flag} in {tokens:?}: {:?}", parsed.unknown);
                if good == 0 {
                    assert!(is_default(&parsed, flag), "{flag} set from {tokens:?}");
                }
                malformed_seen += bad;
            }
        }
        assert!(malformed_seen > 1000, "the mutants must exercise malformed values");
    }

    #[test]
    fn bad_values_and_extras_are_collected() {
        let parsed = args(&["--threads", "zero", "--seeds", "0", "3", "7", "--wat"]);
        assert_eq!(parsed.k, Some(3));
        assert_eq!(parsed.threads, None);
        assert_eq!(parsed.seeds, 1);
        // second positional + bad --threads + bad --seeds + unknown flag
        assert_eq!(parsed.unknown.len(), 4);
        // An out-of-range market size is unrecognized and leaves the slot free.
        for bad in ["0", "65", "1000"] {
            let parsed = args(&[bad, "5"]);
            assert_eq!(parsed.k, Some(5), "{bad}");
            assert_eq!(parsed.unknown.len(), 1, "{bad}");
            assert!(parsed.files.is_empty(), "{bad}");
        }
        // warn_unknown only logs; parsing results are unchanged.
        let warned = parsed.clone().warn_unknown();
        assert_eq!(warned, parsed);
    }

    /// Every argument of the table, each run against every row: inside the row it
    /// parses cleanly; outside it is filed once under its own name with the row's
    /// usage, sets nothing, and its value is not taken as `k` or as a path.
    #[test]
    fn each_row_files_every_argument_outside_it_under_its_own_name() {
        let every = every_argument();
        let arguments: std::collections::BTreeSet<&str> = every
            .usage
            .split('[')
            .skip(1)
            .map(|entry| entry.trim_end_matches([']', ' ']))
            .collect();
        assert_eq!(arguments.len(), 2 + 18, "k, PATH... and 18 flags: {arguments:?}");
        for row in COMMANDS {
            assert_eq!(Row::of(row.command), Some(row));
            for argument in &arguments {
                // The flag, with a well-formed value if it takes one, or a sample
                // positional.
                let tokens: Vec<&str> = match argument.split_once(' ') {
                    Some((flag, "I/K")) => vec![flag, "2/3"],
                    Some((flag, "SPEC")) => vec![flag, "1:1:early"],
                    Some((flag, "FILE" | "DIR")) => vec![flag, "x"],
                    Some((flag, _)) => vec![flag, "2"],
                    None if *argument == K => vec!["5"],
                    None if *argument == PATHS => vec!["a.json"],
                    None => vec![argument],
                };
                let parsed = BenchArgs::from_args(row, tokens.clone());
                if row.takes(argument.split(' ').next().unwrap()) {
                    assert!(
                        parsed.unknown.is_empty(),
                        "{} {tokens:?}: {:?}",
                        row.command,
                        parsed.unknown
                    );
                } else {
                    let filed = format!("{} ({} takes {})", tokens[0], row.command, row.usage);
                    let expected = BenchArgs { unknown: vec![filed], ..BenchArgs::default() };
                    assert_eq!(parsed, expected, "{} {tokens:?}", row.command);
                }
            }
        }
    }
}
