//! Declarative scenario files: campaign descriptions in the workspace's TOML subset.
//!
//! A scenario file names a whole campaign declaratively — party counts, topologies,
//! auth models, adversaries, seed count, and a schedule of network faults — so an
//! experiment is a reviewable artifact instead of a command line. `campaign_ctl run
//! --scenario FILE` loads one, and the format is specified key by key in
//! `docs/SCENARIOS.md` (whose worked examples are the literal files under
//! `examples/scenarios/`, parsed verbatim by `crates/engine/tests/scenario_file.rs`).
//!
//! The grammar, the line-positioned [`TextError`] and the canonical writer are
//! [`bsm_core::text`]'s; this module is the schema: the root `name` key, one `[grid]`
//! table for the campaign axes, and `[[faults]]` tables, one per fault plan on the
//! fault axis. Unknown keys, duplicate keys and semantically invalid fault plans
//! (e.g. overlapping partition windows) are rejected at the offending line.
//!
//! # Canonical form
//!
//! [`ScenarioFile::canonical`] renders the parsed file back as fully-explicit text:
//! every grid axis appears with its resolved, sorted, deduplicated values, and every
//! fault plan renders only its non-default keys. Canonicalization is a *fixpoint*
//! (`parse ∘ canonical ∘ parse = parse ∘ canonical ∘ parse ∘ canonical ∘ parse`) and
//! the canonical text is what report artifacts embed as their scenario tag — two
//! artifacts carry byte-equal tags exactly when they describe the same campaign, which
//! is how `campaign_ctl merge` and `diff` refuse to combine mixed-scenario artifacts.

use crate::campaign::{Campaign, CampaignBuilder};
use bsm_core::harness::AdversarySpec;
use bsm_core::problem::AuthMode;
use bsm_core::text::{self, Document, Table, TextError, Value, Writer};
use bsm_net::{CrashWindow, FaultSpec, PartitionWindow, Topology};
use std::path::Path;

/// The scenario format's name in errors and its table headers.
const FORMAT: &str = "scenario file";
const HEADERS: [&str; 2] = ["[grid]", "[[faults]]"];

/// A parsed scenario file: one declarative campaign description.
///
/// Axis vectors are resolved (defaults applied), sorted and deduplicated at parse
/// time, so two files describing the same campaign parse to equal values and render
/// the same [`canonical`](Self::canonical) text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioFile {
    /// The scenario's name (required; informational, carried into the canonical
    /// form but not into any grid coordinate).
    pub name: String,
    /// Market sizes to sweep (`[grid] sizes`; default `[3]`).
    pub sizes: Vec<usize>,
    /// Topologies to sweep (`[grid] topologies`; default: all).
    pub topologies: Vec<Topology>,
    /// Authentication modes to sweep (`[grid] auth`; default: all).
    pub auth: Vec<AuthMode>,
    /// Corruption pairs `(tL, tR)` to sweep (`[grid] corruptions`; default `[[0, 0]]`).
    pub corruptions: Vec<(usize, usize)>,
    /// Byzantine strategies to sweep (`[grid] adversaries`; default: all).
    pub adversaries: Vec<AdversarySpec>,
    /// Number of seeds to sweep — the campaign runs seeds `0..seeds`
    /// (`[grid] seeds`; default 1).
    pub seeds: u64,
    /// Fault plans to sweep, one per `[[faults]]` table; `[FaultSpec::NONE]` when
    /// the file declares none (a bare `[[faults]]` table *is* the fault-free plan).
    pub faults: Vec<FaultSpec>,
}

impl ScenarioFile {
    /// Parses a scenario file from its text.
    ///
    /// # Errors
    ///
    /// A line-positioned [`TextError`] for anything outside the format: syntax
    /// outside the TOML subset, unknown or duplicate keys, values of the wrong type,
    /// unknown axis names, and invalid fault plans (zero-duration or overlapping
    /// partitions, a crash recovery not after its start, a loss rate above 1000‰).
    ///
    /// # Examples
    ///
    /// ```rust
    /// use bsm_engine::ScenarioFile;
    ///
    /// let scenario = ScenarioFile::parse(
    ///     "name = \"partition demo\"\n\
    ///      \n\
    ///      [grid]\n\
    ///      sizes = [3]\n\
    ///      adversaries = [\"crash\"]\n\
    ///      seeds = 2\n\
    ///      \n\
    ///      [[faults]]\n\
    ///      partitions = [[2, 3]]  # slots 2..5 cut every cross-side link\n\
    ///      loss = 50              # plus 5% seeded message loss\n",
    /// )
    /// .unwrap();
    /// assert_eq!(scenario.name, "partition demo");
    /// assert_eq!(scenario.faults.len(), 1);
    /// // 1 size × 3 topologies × 2 auth modes × 1 corruption pair × 1 adversary
    /// // × 1 fault plan × 2 seeds:
    /// assert_eq!(scenario.campaign().len(), 12);
    /// // Canonicalization is a fixpoint: re-parsing the canonical text is identity.
    /// let canonical = scenario.canonical();
    /// assert_eq!(ScenarioFile::parse(&canonical).unwrap().canonical(), canonical);
    /// ```
    pub fn parse(text: &str) -> Result<Self, TextError> {
        let mut doc = Document::parse(text, FORMAT, &HEADERS)?;
        let name = doc.root.get("name", Value::string)?;
        doc.root.finish()?;
        let name = name.ok_or_else(|| doc.root.missing("name"))?;
        // An absent [grid] is an empty one: every axis takes its default.
        let mut grid = doc.table("[grid]").unwrap_or_default();
        let fault_tables = doc.tables("[[faults]]");
        if fault_tables.first().is_some_and(|first| grid.line() > first.line()) {
            // One [grid] table, before the fault plans: keeps the canonical
            // rendering's section order the only accepted order.
            return Err(grid.error("[grid] must come before any [[faults]] table"));
        }
        let scenario = ScenarioFile {
            name,
            sizes: axis(grid.get("sizes", |v| nonempty(v.list(Value::narrow)))?, vec![3]),
            topologies: axis(
                grid.get("topologies", |v| nonempty(v.list(Value::parse)))?,
                Topology::ALL.to_vec(),
            ),
            auth: axis(
                grid.get("auth", |v| nonempty(v.list(Value::parse)))?,
                AuthMode::ALL.to_vec(),
            ),
            corruptions: axis(
                grid.get("corruptions", |v| nonempty(v.list(|v| int_pair(v, "tL, tR"))))?,
                vec![(0, 0)],
            ),
            adversaries: axis(
                grid.get("adversaries", |v| nonempty(v.list(Value::parse)))?,
                AdversarySpec::ALL.to_vec(),
            ),
            seeds: grid
                .get("seeds", |v| match v.int()? {
                    0 => Err("must be at least 1".to_string()),
                    seeds => Ok(seeds),
                })?
                .unwrap_or(1),
            faults: {
                let faults =
                    fault_tables.into_iter().map(fault_plan).collect::<Result<Vec<_>, _>>()?;
                axis(Some(faults).filter(|faults| !faults.is_empty()), vec![FaultSpec::NONE])
            },
        };
        grid.finish()?;
        Ok(scenario)
    }

    /// Reads and parses a scenario file from disk.
    ///
    /// # Errors
    ///
    /// A [`TextError`] at line 0 when the file cannot be read; otherwise exactly
    /// the errors of [`parse`](Self::parse).
    pub fn load(path: &Path) -> Result<Self, TextError> {
        Self::parse(&text::read(path, FORMAT)?)
    }

    /// Renders the fully-explicit canonical form: every grid axis with its resolved,
    /// sorted values; every fault plan with only its non-default keys; no comments.
    ///
    /// This text is the scenario tag embedded in report artifacts (see
    /// [`crate::report::CampaignReport::with_scenario`]): byte-equal tags ⇔ same
    /// campaign.
    pub fn canonical(&self) -> String {
        let mut w = Writer::default();
        w.pair("name", self.name.as_str());
        w.header("[grid]");
        w.pair("sizes", self.sizes.iter().map(|&k| k as u64).collect::<Value>());
        w.pair("topologies", self.topologies.iter().map(Topology::name).collect::<Value>());
        w.pair("auth", self.auth.iter().map(AuthMode::name).collect::<Value>());
        let pairs = self.corruptions.iter().map(|&(l, r)| int_pair_value(l as u64, r as u64));
        w.pair("corruptions", pairs.collect::<Value>());
        w.pair("adversaries", self.adversaries.iter().map(AdversarySpec::name).collect::<Value>());
        w.pair("seeds", self.seeds);
        if self.faults != [FaultSpec::NONE] {
            for plan in &self.faults {
                w.header("[[faults]]");
                if plan.partition_windows().next().is_some() {
                    let windows = plan.partition_windows().map(|window| {
                        int_pair_value(u64::from(window.start), u64::from(window.duration))
                    });
                    w.pair("partitions", windows.collect::<Value>());
                }
                if let Some(crash) = plan.crash {
                    w.pair("crash_party", crash.party.to_string().as_str());
                    w.pair("crash_start", u64::from(crash.start));
                    if let Some(recovery) = crash.recovery {
                        w.pair("crash_recovery", u64::from(recovery));
                    }
                }
                if plan.loss_permille > 0 {
                    w.pair("loss", u64::from(plan.loss_permille));
                }
                if plan.jitter > 0 {
                    w.pair("jitter", u64::from(plan.jitter));
                }
            }
        }
        w.finish()
    }

    /// Expands the scenario into its [`Campaign`] — the same canonical-order work
    /// list a [`CampaignBuilder`] with these axes produces.
    pub fn campaign(&self) -> Campaign {
        CampaignBuilder::new()
            .sizes(self.sizes.iter().copied())
            .topologies(self.topologies.iter().copied())
            .auth_modes(self.auth.iter().copied())
            .corruptions(self.corruptions.iter().copied())
            .adversaries(self.adversaries.iter().copied())
            .fault_plans(self.faults.iter().copied())
            .seeds(0..self.seeds)
            .build()
    }
}

/// An axis as a set: the given values (or the default), sorted and deduplicated.
fn axis<T: Ord>(values: Option<Vec<T>>, default: Vec<T>) -> Vec<T> {
    let mut values = values.unwrap_or(default);
    values.sort_unstable();
    values.dedup();
    values
}

fn nonempty<T>(values: Result<Vec<T>, String>) -> Result<Vec<T>, String> {
    values.and_then(|v| if v.is_empty() { Err("must not be empty".into()) } else { Ok(v) })
}

fn int_pair_value(a: u64, b: u64) -> Value {
    Value::Array(vec![Value::Int(a), Value::Int(b)])
}

/// A `[a, b]` integer pair whose members fit `T`, or why the value is not one.
fn int_pair<T: TryFrom<u64>>(value: Value, names: &str) -> Result<(T, T), String> {
    let narrow = |n: u64| T::try_from(n).map_err(|_| format!("{n} is out of range"));
    match value.array().as_deref() {
        Ok([Value::Int(a), Value::Int(b)]) => Ok((narrow(*a)?, narrow(*b)?)),
        _ => Err(format!("each entry must be a [{names}] integer pair")),
    }
}

/// Builds and validates one `[[faults]]` table's [`FaultSpec`], positioning each
/// error at the key that caused it (the table header for cross-key problems).
fn fault_plan(mut t: Table) -> Result<FaultSpec, TextError> {
    let window = |v| {
        let (start, duration) = int_pair(v, "start, duration")?;
        Ok(PartitionWindow { start, duration })
    };
    let windows = t.get("partitions", |v| match v.list(window)? {
        windows if windows.len() > 2 => Err("at most 2 scheduled partitions per plan".into()),
        windows => Ok(windows),
    })?;
    let party = t.get("crash_party", Value::parse)?;
    let start = t.get("crash_start", Value::narrow)?;
    let recovery = t.get("crash_recovery", Value::narrow)?;
    let loss = t.get("loss", |v| match v.int()? {
        loss if loss > 1000 => Err(format!("loss rate {loss}\u{2030} exceeds 1000")),
        loss => Ok(loss as u16),
    })?;
    let jitter = t.get("jitter", |v| {
        let jitter = v.int()?;
        u8::try_from(jitter).map_err(|_| format!("jitter {jitter} exceeds 255 slots"))
    })?;
    t.finish()?;
    let mut spec = FaultSpec::NONE;
    if let Some(mut windows) = windows {
        windows.sort_unstable();
        for (slot, window) in windows.into_iter().enumerate() {
            spec.partitions[slot] = Some(window);
        }
        spec.validate().map_err(|message| t.key_error("partitions", message))?;
    }
    spec.crash = match (party, start) {
        (Some(party), Some(start)) => Some(CrashWindow { party, start, recovery }),
        (None, None) if recovery.is_some() => {
            return Err(
                t.key_error("crash_recovery", "crash_recovery without crash_party/crash_start")
            );
        }
        (None, None) => None,
        _ => return Err(t.error("crash_party and crash_start must be given together")),
    };
    spec.loss_permille = loss.unwrap_or(0);
    spec.jitter = jitter.unwrap_or(0);
    spec.validate().map_err(|message| t.key_error("crash_recovery", message))?;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = "\
# A kitchen-sink scenario exercising every key.
name = \"kitchen sink\"

[grid]
sizes = [4, 3, 3]
topologies = [\"fully-connected\", \"bipartite\"]
auth = [\"authenticated\"]
corruptions = [[1, 1], [0, 0]]
adversaries = [\"lying\", \"crash\"]
seeds = 2

[[faults]]
partitions = [[4, 2], [0, 1]]  # out of order on purpose; parsing sorts them
crash_party = \"L1\"
crash_start = 5
crash_recovery = 9
loss = 25
jitter = 2

[[faults]]
";

    #[test]
    fn full_scenario_parses_with_sorted_deduplicated_axes() {
        let scenario = ScenarioFile::parse(FULL).unwrap();
        assert_eq!(scenario.name, "kitchen sink");
        assert_eq!(scenario.sizes, [3, 4]);
        assert_eq!(scenario.topologies, [Topology::Bipartite, Topology::FullyConnected]);
        assert_eq!(scenario.auth, [AuthMode::Authenticated]);
        assert_eq!(scenario.corruptions, [(0, 0), (1, 1)]);
        assert_eq!(scenario.adversaries, [AdversarySpec::Crash, AdversarySpec::Lying]);
        assert_eq!(scenario.seeds, 2);
        // The bare [[faults]] table is the fault-free plan; it sorts first.
        assert_eq!(scenario.faults.len(), 2);
        assert_eq!(scenario.faults[0], FaultSpec::NONE);
        assert_eq!(
            scenario.faults[1].to_string(),
            "partition=0+1;partition=4+2;crash=L1@5..9;loss=25;jitter=2"
        );
    }

    #[test]
    fn defaults_match_the_campaign_builder() {
        let scenario = ScenarioFile::parse("name = \"defaults\"\n").unwrap();
        assert_eq!(scenario.sizes, [3]);
        assert_eq!(scenario.topologies, Topology::ALL);
        assert_eq!(scenario.auth, AuthMode::ALL);
        assert_eq!(scenario.corruptions, [(0, 0)]);
        assert_eq!(scenario.adversaries, AdversarySpec::ALL);
        assert_eq!(scenario.seeds, 1);
        assert_eq!(scenario.faults, [FaultSpec::NONE]);
        let built = CampaignBuilder::new().build();
        assert_eq!(scenario.campaign(), built);
    }

    #[test]
    fn canonicalization_is_a_fixpoint() {
        for text in [FULL, "name = \"defaults\"\n"] {
            let parsed = ScenarioFile::parse(text).unwrap();
            let canonical = parsed.canonical();
            let reparsed = ScenarioFile::parse(&canonical).unwrap();
            assert_eq!(reparsed, parsed, "canonical text must parse back to the same file");
            assert_eq!(reparsed.canonical(), canonical, "canonical must be a fixpoint");
        }
    }

    #[test]
    fn canonical_form_of_a_faultless_file_has_no_faults_section() {
        let canonical = ScenarioFile::parse("name = \"x\"\n").unwrap().canonical();
        assert!(!canonical.contains("[[faults]]"), "{canonical}");
        assert!(canonical.contains(
            "topologies = [\"bipartite\", \"one-sided\", \
                                    \"fully-connected\"]"
        ));
    }

    #[test]
    fn positioned_errors_name_line_and_problem() {
        for (text, line, needle) in [
            ("name = \"x\"\nbogus = 1\n", 2, "unknown key"),
            ("name = \"x\"\n[grid]\nplanets = [9]\n", 3, "unknown key \"planets\" in [grid]"),
            ("name = \"x\"\n[grid]\nsizes = \"three\"\n", 3, "expected array"),
            ("name = \"x\"\n[grid]\nsizes = []\n", 3, "must not be empty"),
            ("name = \"x\"\n[grid]\ntopologies = [\"ring\"]\n", 3, "unknown topology"),
            ("name = \"x\"\n[grid]\nseeds = 0\n", 3, "at least 1"),
            ("name = \"x\"\n[grid]\nseeds = 1\nseeds = 2\n", 4, "duplicate key"),
            ("name = \"x\"\n[[faults]]\nloss = 2000\n", 3, "exceeds 1000"),
            ("name = \"x\"\n[[faults]]\njitter = 999\n", 3, "exceeds 255"),
            ("name = \"x\"\n[[faults]]\npartitions = [[0, 0]]\n", 3, "zero duration"),
            (
                "name = \"x\"\n[[faults]]\npartitions = [[0, 5], [2, 2]]\n",
                3,
                "overlap or are unsorted",
            ),
            ("name = \"x\"\n[[faults]]\npartitions = [[0, 1], [2, 1], [4, 1]]\n", 3, "at most 2"),
            ("name = \"x\"\n[[faults]]\ncrash_start = 3\n", 2, "given together"),
            ("name = \"x\"\n[[faults]]\ncrash_recovery = 3\n", 3, "without crash_party"),
            (
                "name = \"x\"\n[[faults]]\ncrash_party = \"L0\"\ncrash_start = 5\n\
                 crash_recovery = 5\n",
                5,
                "must be after its start",
            ),
            ("name = \"x\"\n[[faults]]\ncrash_party = \"Q7\"\ncrash_start = 1\n", 3, "L or R"),
            ("name = \"x\"\n[weather]\n", 2, "unknown table"),
            ("name = \"x\"\njust words\n", 2, "expected key = value"),
            ("name = \"x\"\n[grid]\nseeds = 1 extra\n", 3, "trailing content"),
            ("name = \"x\"\n[grid]\nsizes = [3\n", 3, "expected ',' or ']'"),
            ("name = \"x\"\n[grid]\nsizes = [03]\n", 3, "leading zeros"),
            ("name = \"x\"\nname = \"y\"\n", 2, "duplicate key name"),
            ("name = \"unterminated\n", 1, "unterminated string"),
            ("name = \"bad\\q\"\n", 1, "unsupported string escape"),
            ("name = \"x\"\n[[faults]]\n[grid]\nseeds = 1\n", 3, "before any [[faults]]"),
        ] {
            let err = ScenarioFile::parse(text).unwrap_err();
            assert_eq!(err.line, line, "{text:?}: {err}");
            assert!(err.to_string().contains(needle), "{text:?}: {err}");
            assert!(err.to_string().contains(&format!("line {line}")), "{err}");
        }
        // The missing-name error is not tied to a line.
        let err = ScenarioFile::parse("[grid]\nseeds = 2\n").unwrap_err();
        assert_eq!(err.line, 0);
        assert!(err.to_string().contains("missing required key name"), "{err}");
    }

    #[test]
    fn name_escapes_round_trip_through_the_canonical_form() {
        let scenario = ScenarioFile::parse("name = \"quo\\\"te and back\\\\slash\"\n").unwrap();
        assert_eq!(scenario.name, "quo\"te and back\\slash");
        let canonical = scenario.canonical();
        assert_eq!(ScenarioFile::parse(&canonical).unwrap(), scenario);
    }

    #[test]
    fn comments_blank_lines_and_trailing_commas_are_tolerated() {
        let text = "# header\nname = \"x\"  # trailing\n\n[grid]\nsizes = [3, 4,]\n";
        let scenario = ScenarioFile::parse(text).unwrap();
        assert_eq!(scenario.sizes, [3, 4]);
    }

    #[test]
    fn fault_plans_reach_the_campaign_axis() {
        let text = "name = \"x\"\n\n[grid]\nadversaries = [\"crash\"]\nauth = \
                    [\"authenticated\"]\ntopologies = [\"fully-connected\"]\n\n[[faults]]\n\n\
                    [[faults]]\nloss = 100\n";
        let scenario = ScenarioFile::parse(text).unwrap();
        let campaign = scenario.campaign();
        assert_eq!(campaign.len(), 2, "one cell per fault plan");
        assert_eq!(campaign.specs()[0].faults, FaultSpec::NONE);
        assert_eq!(campaign.specs()[1].faults.loss_permille, 100);
    }

    #[test]
    fn load_reports_unreadable_files_at_line_zero() {
        let err = ScenarioFile::load(Path::new("/nonexistent/scenario.toml")).unwrap_err();
        assert_eq!(err.line, 0);
        assert!(err.to_string().contains("cannot read"), "{err}");
    }
}
