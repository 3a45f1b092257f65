//! The `fuzz_search` workload: `run_fuzz` as `campaign_ctl fuzz --budget N --seed S`
//! runs it, then the publication of the `fuzz.log`.
//!
//! One repetition runs [`SEARCHES`] searches of [`BUDGET`] cases over the seeds
//! `s·SEARCHES..(s+1)·SEARCHES`, then publishes their logs as one `fuzz.log` and reads
//! it back. The cost of a case depends on the setting and actions its search draws, so
//! many short independent searches keep the mean cost steady from one `--seed` to the
//! next. A search is one sequential call, so a case's own time is not observable from
//! outside: a "cell" here is a case, and its time is the mean case time of one call.

use crate::metrics::Values;
use crate::stats::{median, median_by, quantile, summary, supports};
use crate::trace::{self, Label, Tracer};
use crate::{hex_digest, peak_rss_mb, probes, RunConfig, Tally};
use bsm_engine::{run_fuzz, AtomicFile, FuzzConfig, FuzzReport};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Searches per repetition, each over its own seed.
const SEARCHES: u64 = 200;
/// Cases per search.
const BUDGET: u64 = 10;
/// Largest market size and corruption total the fuzzer's settings pool draws.
const POOL_K: usize = 4;
const POOL_T: usize = 2;
/// Set-ups timed before each measured repetition, so that the `setup_s` samples spread
/// over the whole run as the repetitions do.
const SETUPS_PER_REP: usize = 4;

/// Deterministic counts of one repetition; every repetition of a run must match.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    digests: u64,
    verified: u64,
    cache_hits: u64,
    messages: u64,
    slots: u64,
    worst_slots: u64,
    worst_messages: u64,
    log_bytes: u64,
}

/// One repetition's measurements.
#[derive(Debug)]
struct Rep {
    setup: Duration,
    /// Host time of each search call.
    searches: Vec<Duration>,
    publish: Duration,
    counts: Counts,
    log_digest: String,
}

impl Rep {
    fn cases_per_s(&self) -> f64 {
        (SEARCHES * BUDGET) as f64 / self.searches.iter().sum::<Duration>().as_secs_f64()
    }

    fn artifact_cases_per_s(&self) -> f64 {
        (SEARCHES * BUDGET) as f64 / self.publish.as_secs_f64()
    }
}

/// Sums the `messages=` and `slots=` fields of the log's case lines.
fn log_totals(log: &str) -> (u64, u64) {
    let field = |line: &str, key: &str| -> u64 {
        line.split_whitespace()
            .find_map(|word| word.strip_prefix(key))
            .and_then(|value| value.parse().ok())
            .unwrap_or(0)
    };
    log.lines().filter(|line| line.starts_with("case ")).fold((0, 0), |(messages, slots), line| {
        (messages + field(line, "messages="), slots + field(line, "slots="))
    })
}

/// Checks a search report: no harness errors (counted as failed cases) and no property
/// violations, which an in-threshold setting must never show.
fn check(report: &FuzzReport, tally: &mut Tally) -> Result<(), String> {
    tally.attempted += report.cases;
    let errors = report.violations.iter().filter(|v| v.signature.starts_with("harness-error"));
    tally.failed += errors.count() as u64;
    match report.violations.first() {
        None => Ok(()),
        Some(found) => Err(format!(
            "{} fuzz finding(s), first at case {}: {}",
            report.violations.len(),
            found.case,
            found.signature
        )),
    }
}

/// Stages the repetition's `fuzz.log`.
fn stage_log(dir: &Path) -> Result<(PathBuf, AtomicFile), String> {
    let path = dir.join("fuzz.log");
    let file = AtomicFile::create(&path).map_err(|err| format!("{}: {err}", path.display()))?;
    Ok((path, file))
}

fn repetition(
    seed: u64,
    dir: &Path,
    tracer: &mut Tracer,
    index: usize,
    tally: &mut Tally,
) -> Result<Rep, String> {
    let root = tracer.open("rep", None, Label::Rep(index));
    let started = Instant::now();
    let span = tracer.open("setup", root, Label::None);
    let (path, mut file) = stage_log(dir)?;
    tracer.close(span);
    let setup = started.elapsed();

    let mut searches = Vec::with_capacity(SEARCHES as usize);
    let mut counts = Counts::default();
    let mut log = String::new();
    for search in seed * SEARCHES..(seed + 1) * SEARCHES {
        let span = tracer.open("engine.fuzz.run", root, Label::Search(search));
        let begin = Instant::now();
        let before = bsm_crypto::counters::thread_snapshot();
        let report = run_fuzz(&FuzzConfig { budget: BUDGET, seed: search });
        let crypto = bsm_crypto::counters::thread_snapshot() - before;
        searches.push(begin.elapsed());
        tracer.close(span);
        check(&report, tally)?;
        counts.digests += crypto.digests_computed;
        counts.verified += crypto.signatures_verified;
        counts.cache_hits += crypto.verify_cache_hits;
        counts.worst_slots = counts.worst_slots.max(report.worst_slots);
        counts.worst_messages = counts.worst_messages.max(report.worst_messages);
        log.push_str(&report.log);
    }

    // The artifact stage: publish the searches' logs, read the file back and total its
    // case lines.
    let io = |err: std::io::Error| format!("{}: {err}", path.display());
    let span = tracer.open("engine.export.write", root, Label::None);
    let begin = Instant::now();
    file.write_all(log.as_bytes()).map_err(io)?;
    file.persist().map_err(io)?;
    let written = std::fs::read_to_string(&path).map_err(io)?;
    (counts.messages, counts.slots) = log_totals(&written);
    let publish = begin.elapsed();
    tracer.close(span);
    tracer.close(root);

    if written != log {
        return Err(format!("{} differs from the search logs", path.display()));
    }
    counts.log_bytes = written.len() as u64;
    Ok(Rep { setup, searches, publish, counts, log_digest: hex_digest(written.as_bytes()) })
}

/// Repeats [`repetition`] until `budget` has passed (at least twice), timing extra
/// set-ups (staging the log, then dropping it) into `setups` before each one.
fn repeat(
    seed: u64,
    dir: &Path,
    tracer: &mut Tracer,
    budget: Duration,
    setups: &mut Vec<f64>,
    tally: &mut Tally,
) -> Result<Vec<Rep>, String> {
    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < 2 || started.elapsed() < budget {
        for _ in 0..SETUPS_PER_REP {
            let begin = Instant::now();
            drop(stage_log(dir)?);
            setups.push(begin.elapsed().as_secs_f64());
        }
        let rep = repetition(seed, dir, tracer, reps.len(), tally)?;
        setups.push(rep.setup.as_secs_f64());
        reps.push(rep);
    }
    Ok(reps)
}

/// Runs `fuzz_search`; returns the metric values and the run record.
pub fn run(config: &RunConfig, tally: &mut Tally) -> Result<(Values, String), String> {
    let dir = &config.dir;
    let seconds = Duration::from_secs_f64(config.seconds);
    let untraced_budget = if config.trace { seconds / 2 } else { seconds };
    let mut setups = Vec::new();
    let untraced =
        repeat(config.seed, dir, &mut Tracer::new(false), untraced_budget, &mut setups, tally)?;
    let mut tracer = Tracer::new(true);
    let traced = if config.trace {
        repeat(config.seed, dir, &mut tracer, seconds / 2, &mut Vec::new(), tally)?
    } else {
        Vec::new()
    };
    let reference = &untraced[0];
    for rep in untraced.iter().chain(&traced) {
        if rep.counts != reference.counts || rep.log_digest != reference.log_digest {
            return Err(format!(
                "repetitions of one seed differ: {:?} vs {:?}",
                rep.counts, reference.counts
            ));
        }
    }

    let case_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|rep| rep.searches.iter().map(|took| took.as_secs_f64() * 1e3 / BUDGET as f64))
        .collect();
    let mut values = Values::new();
    values.insert("setup_s", median(&setups));
    values.insert("cells_per_s", median_by(&untraced, Rep::cases_per_s));
    values.insert("cell_ms_p50", quantile(&case_ms, 0.5));
    values.insert("cell_ms_p90", quantile(&case_ms, 0.9));
    values.insert("artifact_cells_per_s", median_by(&untraced, Rep::artifact_cases_per_s));
    values.insert("peak_rss_mb", peak_rss_mb()?);
    let c = reference.counts;
    let mut record = format!(
        "\"searches\": {SEARCHES}, \"budget\": {BUDGET}, \"reps\": {}, \"setup_samples\": {}, \
         \"cell_samples\": {}, \"p50_supported\": {}, \"p90_supported\": {}, \"counts\": \
         {{\"digests\": {}, \"verified\": {}, \"cache_hits\": {}, \"messages\": {}, \
         \"slots\": {}, \"worst_slots\": {}, \"worst_messages\": {}}}, \"log_digest\": \"{}\"",
        untraced.len(),
        summary(&setups),
        case_ms.len(),
        supports(case_ms.len(), 0.5),
        supports(case_ms.len(), 0.9),
        c.digests,
        c.verified,
        c.cache_hits,
        c.messages,
        c.slots,
        c.worst_slots,
        c.worst_messages,
        reference.log_digest
    );
    if config.trace {
        record += &per_layer(&c, (&untraced, &traced), &tracer, &mut values);
        let path = dir.join("trace.jsonl");
        tracer.write_jsonl(&path).map_err(|err| format!("{}: {err}", path.display()))?;
    }
    Ok((values, record))
}

/// The traced run's per-layer metrics; returns the run record's additions.
fn per_layer(
    c: &Counts,
    (untraced, traced): (&[Rep], &[Rep]),
    tracer: &Tracer,
    values: &mut Values,
) -> String {
    let cases = (SEARCHES * BUDGET) as f64;
    let totals = trace::totals_per_root(tracer.spans(), "rep");
    // Layers `run_fuzz` does not expose to outside callers read 0.
    for name in [
        "engine.executor.busy_s",
        "engine.executor.utilization",
        "engine.import.footer_s",
        "engine.report.merge_s",
        "engine.export.merged_write_s",
        "engine.import.from_json_s",
        "engine.import.from_jsonl_s",
        "engine.import.bytes",
        "engine.diff.between_s",
        "core.solvability.characterize_s",
        "core.harness.build_s",
        "core.harness.run_s",
        "core.harness.run_ns_per_delivered",
        "core.properties.check_bsm_s",
        "matching.gale_shapley_s",
        "crypto.signatures_per_cell",
        "netsim.delivered_per_cell",
        "netsim.delivery_ratio",
    ] {
        values.insert(name, 0.0);
    }
    values.insert("engine.export.write_s", trace::median_s(&totals, "engine.export.write"));
    values.insert("engine.export.bytes", c.log_bytes as f64);
    values.insert("crypto.digests_per_cell", c.digests as f64 / cases);
    values.insert("crypto.verifications_per_cell", c.verified as f64 / cases);
    let lookups = c.verified + c.cache_hits;
    values.insert("crypto.verify_hit_ratio", c.cache_hits as f64 / lookups.max(1) as f64);
    values.insert("netsim.messages_per_cell", c.messages as f64 / cases);
    values.insert("netsim.slots_per_cell", c.slots as f64 / cases);
    values.insert("engine.fuzz.worst_slots", c.worst_slots as f64);
    values.insert("engine.fuzz.worst_messages", c.worst_messages as f64);
    values.insert("engine.fuzz.log_bytes", c.log_bytes as f64);
    let untraced_cps = median_by(untraced, Rep::cases_per_s);
    values.insert(
        "trace.overhead_share",
        (untraced_cps - median_by(traced, Rep::cases_per_s)) / untraced_cps,
    );
    values.insert("trace.unattributed_share", trace::unattributed_share(tracer.spans(), &[]));
    let mut record = format!(", \"traced_reps\": {}", traced.len());
    probes::run_all(POOL_K, POOL_T, c.worst_slots, values, &mut record);
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_totals_sum_the_case_lines() {
        let log = "fuzz seed=1 budget=2\n\
                   case 0000 k=3 fully-connected authenticated tL=1 tR=1 seed=5 actions=0 -> ok \
                   decided=true slots=7 messages=120 [worst-slots]\n\
                   case 0001 k=4 bipartite unauthenticated tL=0 tR=1 seed=9 actions=2 -> ok \
                   decided=true slots=11 messages=300\n\
                   done cases=2 violations=0 worst_slots=11 (case 0001) worst_messages=300 \
                   (case 0001)\n";
        assert_eq!(log_totals(log), (420, 18));
    }
}
