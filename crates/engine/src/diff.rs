//! Cell-level comparison of two campaign reports.
//!
//! [`CampaignDiff`] merge-joins two coordinate-ordered cell streams and keeps only
//! the cells whose outcomes differ — the tool for before/after comparisons when a
//! protocol, adversary or characterization change lands: run the same campaign on
//! both revisions, export, diff, and read exactly the cells that moved.
//! [`CampaignDiff::between`] feeds it two reports; `campaign_ctl diff` feeds it two
//! exports as they are read, `report.json` documents and `report.jsonl` streams alike.
//!
//! Each entry carries the left and right outcome, either of which may be absent when
//! the sides cover different grids, and entries come in coordinate order, so the same
//! pair of inputs always renders the same text.

use crate::grid::ScenarioSpec;
use crate::report::{CampaignReport, CellOutcome, CellRecord};
use std::borrow::Borrow;
use std::convert::Infallible;
use std::fmt;
use std::fmt::Write as _;

/// One differing cell: its coordinates and the outcome on each side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellDiff {
    /// The grid coordinates both sides were compared at.
    pub spec: ScenarioSpec,
    /// The outcome in the left report (`None`: the left report lacks this cell).
    pub left: Option<CellOutcome>,
    /// The outcome in the right report (`None`: the right report lacks this cell).
    pub right: Option<CellOutcome>,
}

/// The cell-level difference between two campaign reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignDiff {
    diffs: Vec<CellDiff>,
    cells_compared: usize,
}

impl CampaignDiff {
    /// Compares two reports cell by cell (see [`join`](Self::join)); the diff of a
    /// report against itself is empty.
    pub fn between(left: &CampaignReport, right: &CampaignReport) -> CampaignDiff {
        let (left, right) = (left.cells().iter(), right.cells().iter());
        let Ok(diff) = Self::join(left.map(Ok::<_, Infallible>), right.map(Ok));
        diff
    }

    /// Merge-joins two cell streams, each in coordinate order, keyed by grid
    /// coordinate.
    ///
    /// A cell differs when it appears on only one side, or on both with unequal
    /// outcomes; identical cells are dropped. Reports built by [`CampaignBuilder`]
    /// have unique coordinates, but a hand-assembled work list may repeat one — the
    /// n-th occurrence on the left is then compared against the n-th occurrence on
    /// the right, so no record is silently collapsed.
    ///
    /// # Errors
    ///
    /// The first error either stream yields.
    ///
    /// [`CampaignBuilder`]: crate::campaign::CampaignBuilder
    pub fn join<C: Borrow<CellRecord>, E>(
        left: impl IntoIterator<Item = Result<C, E>>,
        right: impl IntoIterator<Item = Result<C, E>>,
    ) -> Result<CampaignDiff, E> {
        /// The outcome of `cell` when it sits at `spec`.
        fn at<C: Borrow<CellRecord>>(cell: &Option<C>, spec: ScenarioSpec) -> Option<&CellOutcome> {
            cell.as_ref().map(Borrow::borrow).filter(|c| c.spec == spec).map(|c| &c.outcome)
        }
        let (mut left, mut right) = (left.into_iter(), right.into_iter());
        let (mut l, mut r) = (left.next().transpose()?, right.next().transpose()?);
        let mut diff = CampaignDiff { diffs: Vec::new(), cells_compared: 0 };
        loop {
            let spec = match (&l, &r) {
                (None, None) => return Ok(diff),
                (Some(cell), None) | (None, Some(cell)) => cell.borrow().spec,
                (Some(a), Some(b)) => a.borrow().spec.min(b.borrow().spec),
            };
            // The side(s) whose next cell sits at the smaller coordinates step.
            let (on_left, on_right) = (at(&l, spec), at(&r, spec));
            if on_left != on_right {
                let (left, right) = (on_left.cloned(), on_right.cloned());
                diff.diffs.push(CellDiff { spec, left, right });
            }
            diff.cells_compared += 1;
            if on_left.is_some() {
                l = left.next().transpose()?;
            }
            if on_right.is_some() {
                r = right.next().transpose()?;
            }
        }
    }

    /// The differing cells, ordered by grid coordinate.
    pub fn cells(&self) -> &[CellDiff] {
        &self.diffs
    }

    /// Number of differing cells.
    pub fn len(&self) -> usize {
        self.diffs.len()
    }

    /// `true` when the two reports agree on every cell.
    pub fn is_empty(&self) -> bool {
        self.diffs.is_empty()
    }

    /// Number of cells compared: each pair at equal coordinates counts once, each
    /// cell on one side only counts once.
    pub fn cells_compared(&self) -> usize {
        self.cells_compared
    }

    /// Renders the diff: a summary line, then one block per differing cell (and
    /// nothing else — identical cells never appear). An empty diff renders the
    /// summary line only.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} differing cell(s) of {} compared",
            self.diffs.len(),
            self.cells_compared
        );
        for diff in &self.diffs {
            let _ = writeln!(out, "~ {}", diff.spec);
            match &diff.left {
                Some(outcome) => {
                    let _ = writeln!(out, "  - {}", outcome_line(outcome));
                }
                None => {
                    let _ = writeln!(out, "  - <absent>");
                }
            }
            match &diff.right {
                Some(outcome) => {
                    let _ = writeln!(out, "  + {}", outcome_line(outcome));
                }
                None => {
                    let _ = writeln!(out, "  + <absent>");
                }
            }
        }
        out
    }
}

impl fmt::Display for CampaignDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// One-line rendering of a cell outcome for diff output.
fn outcome_line(outcome: &CellOutcome) -> String {
    match outcome {
        CellOutcome::Completed(stats) => format!(
            "completed plan=\"{}\" decided={} violations={} slots={} messages={} signatures={}",
            stats.plan,
            stats.all_honest_decided,
            stats.violations,
            stats.slots,
            stats.messages,
            stats.signatures
        ),
        CellOutcome::Unsolvable { theorem, reason } => {
            format!("unsolvable {theorem}: {reason}")
        }
        CellOutcome::Failed { message } => format!("failed: {message}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignBuilder;
    use crate::executor::Executor;
    use crate::report::{CellRecord, CellStats};
    use bsm_core::solvability::ProtocolPlan;

    fn run_default() -> CampaignReport {
        let campaign = CampaignBuilder::new().sizes([2, 3]).corruptions([(0, 0), (1, 1)]).build();
        Executor::new().threads(2).run(&campaign).0
    }

    #[test]
    fn a_report_diffed_against_itself_renders_zero_cells() {
        let report = run_default();
        let diff = CampaignDiff::between(&report, &report);
        assert!(diff.is_empty());
        assert_eq!(diff.len(), 0);
        assert_eq!(diff.cells_compared(), report.cells().len());
        let rendered = diff.render();
        assert!(rendered.starts_with("0 differing cell(s)"), "{rendered}");
        assert_eq!(rendered.lines().count(), 1, "identical cells must not render");
    }

    #[test]
    fn a_changed_outcome_renders_exactly_that_cell() {
        let before = run_default();
        let mut cells = before.cells().to_vec();
        let target = cells[3].spec;
        cells[3].outcome = CellOutcome::Failed { message: "injected".into() };
        let after = CampaignReport::new(cells);

        let diff = CampaignDiff::between(&before, &after);
        assert_eq!(diff.len(), 1);
        assert_eq!(diff.cells()[0].spec, target);
        assert_eq!(diff.cells()[0].left.as_ref(), Some(&before.cells()[3].outcome));
        assert!(matches!(diff.cells()[0].right, Some(CellOutcome::Failed { .. })));
        let rendered = diff.to_string();
        assert!(rendered.contains(&format!("~ {target}")), "{rendered}");
        assert!(rendered.contains("+ failed: injected"), "{rendered}");
        // Only the summary and the one 3-line block appear.
        assert_eq!(rendered.lines().count(), 4, "{rendered}");
    }

    #[test]
    fn cells_missing_on_either_side_render_as_absent() {
        let report = run_default();
        let mut left_cells = report.cells().to_vec();
        let mut right_cells = report.cells().to_vec();
        // left = cells minus the first (so the first cell is right-only), right =
        // cells minus the last (so the last cell is left-only).
        let right_only = left_cells.remove(0);
        let left_only = right_cells.remove(right_cells.len() - 1);
        let left = CampaignReport::new(left_cells);
        let right = CampaignReport::new(right_cells);
        let diff = CampaignDiff::between(&left, &right);
        assert_eq!(diff.len(), 2);
        let rendered = diff.render();
        assert!(rendered.contains("- <absent>"), "{rendered}");
        assert!(rendered.contains("+ <absent>"), "{rendered}");
        assert_eq!(diff.cells()[0].spec, right_only.spec);
        assert_eq!(diff.cells().last().unwrap().spec, left_only.spec);
    }

    #[test]
    fn duplicate_coordinates_are_compared_pairwise_not_collapsed() {
        let base = run_default();
        let spec = base.cells()[0].spec;
        let ok = base.cells()[0].outcome.clone();
        let bad = CellOutcome::Failed { message: "second occurrence".into() };
        // Both reports repeat the same coordinate; only the *second* occurrence
        // differs. A spec-keyed map would collapse the pair and miss it.
        let left = CampaignReport::new(vec![
            CellRecord { spec, outcome: ok.clone() },
            CellRecord { spec, outcome: ok.clone() },
        ]);
        let right = CampaignReport::new(vec![
            CellRecord { spec, outcome: ok.clone() },
            CellRecord { spec, outcome: bad },
        ]);
        let diff = CampaignDiff::between(&left, &right);
        assert_eq!(diff.len(), 1, "{}", diff.render());
        assert_eq!(diff.cells_compared(), 2);
        // And a missing duplicate shows up as absent, not as equality.
        let shorter = CampaignReport::new(vec![CellRecord { spec, outcome: ok }]);
        let diff = CampaignDiff::between(&left, &shorter);
        assert_eq!(diff.len(), 1);
        assert!(diff.cells()[0].right.is_none());
    }

    #[test]
    fn outcome_lines_cover_every_shape() {
        let completed = CellOutcome::Completed(CellStats {
            plan: ProtocolPlan::DolevStrongBsm,
            all_honest_decided: true,
            violations: 2,
            slots: 7,
            messages: 13,
            signatures: 5,
        });
        let line = outcome_line(&completed);
        for needle in ["completed", "Dolev-Strong", "decided=true", "violations=2", "slots=7"] {
            assert!(line.contains(needle), "missing {needle} in {line}");
        }
        let unsolvable =
            CellOutcome::Unsolvable { theorem: "Theorem 2".into(), reason: "t ≥ k/3".into() };
        assert_eq!(outcome_line(&unsolvable), "unsolvable Theorem 2: t ≥ k/3");
        let failed = CellOutcome::Failed { message: "boom".into() };
        assert_eq!(outcome_line(&failed), "failed: boom");
        // Coverage for the record type used by callers of the diff.
        let record = CellRecord { spec: run_default().cells()[0].spec, outcome: failed };
        assert_eq!(record.outcome.status(), "failed");
    }
}
