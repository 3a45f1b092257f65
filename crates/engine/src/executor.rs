//! The multi-threaded campaign executor.
//!
//! Every entry point runs on one worker core: scoped `std::thread` workers pull items
//! off a shared work queue and send each result, keyed by its input index, over a
//! bounded channel; a reorder buffer hands the results on **in input order** — for a
//! campaign, its canonical work list. So every export is **bit-identical regardless
//! of the thread count**. [`Executor::run_streaming_telemetry`] streams cells to a
//! sink, [`Executor::run`] collects that stream, and [`Executor::map`] runs arbitrary
//! jobs; shard or resume with [`Campaign::shard`] or [`Campaign::slice`].
//!
//! The thread count is [`Executor::threads`] when set, otherwise the machine's
//! available parallelism.

use crate::campaign::Campaign;
use crate::grid::{ScenarioSpec, ShardPlan};
use crate::report::{CampaignReport, CellOutcome, CellRecord, CellStats, ExecutionStats, Totals};
use crate::telemetry::CellTelemetry;
use bsm_core::solvability::{characterize, Solvability};
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::sync::{mpsc, Mutex};
use std::time::Instant;

/// Runs campaigns (and arbitrary order-preserving parallel maps) on a worker pool.
#[derive(Debug, Clone)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Self::new()
    }
}

impl Executor {
    /// Creates an executor with the default thread count: the machine's available
    /// parallelism.
    pub fn new() -> Self {
        Self { threads: std::thread::available_parallelism().map_or(1, |n| n.get()) }
    }

    /// Overrides the worker-thread count (clamped to at least 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured worker-thread count.
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// Runs every cell of `campaign` and collects the records, in canonical order,
    /// into a report (the stream of [`run_streaming_telemetry`](Self::run_streaming_telemetry)).
    ///
    /// Unsolvable cells are recorded (not errors); cells that fail to build or run are
    /// recorded as failed. The returned [`ExecutionStats`] carries the wall-clock side
    /// of the run and is intentionally not part of the deterministic report.
    pub fn run(&self, campaign: &Campaign) -> (CampaignReport, ExecutionStats) {
        let mut cells = Vec::with_capacity(campaign.len());
        let Ok((_, stats)) = self.run_streaming_telemetry(campaign, |cell, _| {
            cells.push(cell);
            Ok::<(), Infallible>(())
        });
        (CampaignReport::new(cells), stats)
    }

    /// Runs every cell of `campaign`, delivering each completed [`CellRecord`] and its
    /// [`CellTelemetry`] to `sink` **in canonical order** and then dropping them — the
    /// record vector is never materialized. Aggregate counters are folded into a
    /// rolling [`Totals`], returned alongside the [`ExecutionStats`].
    ///
    /// The sink — typically a [`StreamingExporter`] — sees exactly the cell sequence
    /// [`run`](Self::run) collects, so a streamed export is byte-identical to the
    /// in-memory one, and a sink slower than the workers throttles them. Telemetry is
    /// strictly a side channel: a sink that ignores it emits the same artifacts.
    ///
    /// [`StreamingExporter`]: crate::export::StreamingExporter
    ///
    /// # Errors
    ///
    /// The first error the sink returns aborts the run and is passed through;
    /// in-flight cells are finished and discarded.
    pub fn run_streaming_telemetry<E>(
        &self,
        campaign: &Campaign,
        mut sink: impl FnMut(CellRecord, CellTelemetry) -> Result<(), E>,
    ) -> Result<(Totals, ExecutionStats), E> {
        let mut totals = Totals::default();
        let stats = self.ordered(
            campaign.specs().iter().copied(),
            run_cell_instrumented,
            |(record, telemetry)| {
                totals.record(&record.outcome);
                sink(record, telemetry)
            },
        )?;
        Ok((totals, stats))
    }

    /// [`run_streaming_telemetry`](Self::run_streaming_telemetry) over one shard of
    /// `campaign` (see [`Campaign::shard`]).
    ///
    /// # Errors
    ///
    /// The first error the sink returns.
    pub fn run_shard_streaming_telemetry<E>(
        &self,
        campaign: &Campaign,
        plan: ShardPlan,
        sink: impl FnMut(CellRecord, CellTelemetry) -> Result<(), E>,
    ) -> Result<(Totals, ExecutionStats), E> {
        self.run_streaming_telemetry(&campaign.shard(plan), sink)
    }

    /// Applies `f` to every item on the worker pool, returning the results **in input
    /// order** (a deterministic parallel map).
    ///
    /// This is the engine's generic escape hatch: experiments whose jobs are not plain
    /// scenarios (e.g. the tailored impossibility attacks) get the same parallelism and
    /// ordering guarantee as campaigns.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let mut results = Vec::with_capacity(items.len());
        let Ok(_) = self.ordered(items.into_iter(), f, |result| {
            results.push(result);
            Ok::<(), Infallible>(())
        });
        results
    }

    /// The one worker core: runs `job` on every item across the worker pool and
    /// hands each result to `emit` **in input order**, never materializing the
    /// result vector.
    ///
    /// Workers finish items out of order; a reorder buffer holds results finished
    /// ahead of the emission frontier, and the bounded channel applies backpressure:
    /// when `emit` (e.g. a slow disk) falls behind, workers block instead of piling
    /// results into memory. (Only a pathologically slow *head* item can grow the
    /// buffer beyond a few results per worker: emission cannot pass it.)
    fn ordered<T: Send, R: Send, E>(
        &self,
        items: impl ExactSizeIterator<Item = T> + Send,
        job: impl Fn(T) -> R + Sync,
        mut emit: impl FnMut(R) -> Result<(), E>,
    ) -> Result<ExecutionStats, E> {
        let start = Instant::now();
        let total = items.len();
        let workers = self.threads.min(total);
        let queue = Mutex::new(items.enumerate());
        let mut failure: Option<E> = None;

        std::thread::scope(|scope| {
            // Two slots per worker keeps the pipeline full without letting completed
            // results accumulate toward O(items).
            let (tx, rx) = mpsc::sync_channel::<(usize, R)>(workers.max(1) * 2);
            let (queue, job) = (&queue, &job);
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let tx = tx.clone();
                    scope.spawn(move || loop {
                        // The guard drops with this statement: the job runs unlocked.
                        let next = queue.lock().expect("no worker panics holding the queue").next();
                        let Some((idx, item)) = next else { break };
                        // A send error means the receiver gave up (emit failure): stop.
                        if tx.send((idx, job(item))).is_err() {
                            break;
                        }
                    })
                })
                .collect();
            drop(tx);
            // `next` is the index the input order emits next.
            let mut pending: BTreeMap<usize, R> = BTreeMap::new();
            let mut next = 0usize;
            'receive: for (idx, result) in rx {
                pending.insert(idx, result);
                while let Some(result) = pending.remove(&next) {
                    if let Err(err) = emit(result) {
                        failure = Some(err);
                        break 'receive;
                    }
                    next += 1;
                }
            }
            // On failure the receiver is dropped here; workers exit on their next
            // send. Each worker is joined by hand because the scope's own join
            // returns once the workers' closures return, before their thread-local
            // destructors have run. Those free the harness's kept network buffers,
            // megabytes per worker, which would otherwise overlap the caller's next
            // step.
            for handle in handles {
                if let Err(panic) = handle.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
        if let Some(err) = failure {
            return Err(err);
        }
        Ok(ExecutionStats {
            threads: self.threads.min(total).max(1),
            scenarios: total,
            elapsed: start.elapsed(),
        })
    }
}

/// Runs one campaign cell — characterize, then execute the prescribed plan — and
/// attributes its cost: the crypto-counter delta is the *worker thread's*
/// thread-local delta around the cell — exact under any thread count, because each
/// cell runs start to finish on the one thread that claimed it (see
/// [`bsm_crypto::counters::thread_snapshot`]). The instrumentation only reads state
/// the run drops anyway, so it never changes the [`CellRecord`].
fn run_cell_instrumented(spec: ScenarioSpec) -> (CellRecord, CellTelemetry) {
    let before = bsm_crypto::counters::thread_snapshot();
    let start = Instant::now();
    let (outcome, telemetry) = match spec.setting() {
        Err(err) => (CellOutcome::Failed { message: err.to_string() }, None),
        Ok(setting) => match characterize(&setting) {
            Solvability::Unsolvable(imp) => (
                CellOutcome::Unsolvable { theorem: imp.theorem.to_string(), reason: imp.reason },
                None,
            ),
            Solvability::Solvable(plan) => {
                match spec.build_scenario().and_then(|s| s.run_with_plan(plan)) {
                    Ok(run) => {
                        let stats = CellStats {
                            plan: run.plan,
                            all_honest_decided: run.all_honest_decided,
                            violations: run.violations.len(),
                            slots: run.slots,
                            messages: run.metrics.total_messages(),
                            signatures: run.signatures,
                        };
                        let metrics = &run.metrics;
                        let telemetry = CellTelemetry {
                            spec,
                            status: "completed",
                            crypto: bsm_crypto::CounterSnapshot::default(), // filled below
                            messages: metrics.total_messages(),
                            delivered: metrics.delivered_messages,
                            dropped: metrics.dropped_by_faults,
                            delayed: metrics.delayed_by_faults,
                            rejected: metrics.rejected_by_topology,
                            slots: metrics.slots,
                            fanout: metrics.fanout_by_role(&run.corrupted),
                            wall_nanos: 0, // filled below
                        };
                        (CellOutcome::Completed(stats), Some(telemetry))
                    }
                    Err(err) => (CellOutcome::Failed { message: err.to_string() }, None),
                }
            }
        },
    };
    let crypto = bsm_crypto::counters::thread_snapshot() - before;
    let wall_nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let status = match &outcome {
        CellOutcome::Completed(_) => "completed",
        CellOutcome::Unsolvable { .. } => "unsolvable",
        CellOutcome::Failed { .. } => "failed",
    };
    let telemetry = match telemetry {
        Some(partial) => CellTelemetry { crypto, wall_nanos, ..partial },
        None => CellTelemetry::without_run(spec, status, crypto, wall_nanos),
    };
    (CellRecord { spec, outcome }, telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignBuilder;
    use bsm_core::harness::AdversarySpec;
    use bsm_core::problem::AuthMode;
    use bsm_net::Topology;

    #[test]
    fn map_preserves_input_order() {
        let executor = Executor::new().threads(4);
        let doubled = executor.map((0..100usize).collect(), |n| n * 2);
        assert_eq!(doubled, (0..100usize).map(|n| n * 2).collect::<Vec<_>>());
    }

    /// A run returns only after its workers have exited, thread-local destructors
    /// included: the harness keeps megabytes of network buffers in one.
    #[test]
    fn workers_have_exited_when_a_run_returns() {
        use std::cell::Cell;
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CREATED: AtomicUsize = AtomicUsize::new(0);
        static DROPPED: AtomicUsize = AtomicUsize::new(0);
        struct Tracked;
        impl Drop for Tracked {
            fn drop(&mut self) {
                // Slow, so that a run returning before its workers exit sees it undone.
                std::thread::sleep(std::time::Duration::from_millis(50));
                DROPPED.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local! {
            static KEPT: Cell<Option<Tracked>> = const { Cell::new(None) };
        }
        let executor = Executor::new().threads(2);
        executor.map((0..8).collect(), |_: usize| {
            CREATED.fetch_add(1, Ordering::SeqCst);
            KEPT.set(Some(Tracked));
        });
        assert_eq!(DROPPED.load(Ordering::SeqCst), CREATED.load(Ordering::SeqCst));
    }

    #[test]
    fn map_on_empty_input_spawns_nothing() {
        let executor = Executor::new().threads(8);
        let out: Vec<usize> = executor.map(Vec::new(), |n: usize| n);
        assert!(out.is_empty());
    }

    #[test]
    fn thread_count_is_clamped_and_reported() {
        assert_eq!(Executor::new().threads(0).thread_count(), 1);
        assert_eq!(Executor::new().threads(3).thread_count(), 3);
    }

    #[test]
    fn campaign_reports_are_identical_across_thread_counts() {
        let campaign =
            CampaignBuilder::new().sizes([2, 3]).corruptions([(0, 0), (1, 1)]).seeds(0..2).build();
        let (serial, _) = Executor::new().threads(1).run(&campaign);
        let (parallel, stats) = Executor::new().threads(4).run(&campaign);
        assert_eq!(serial, parallel);
        assert_eq!(stats.scenarios, campaign.len());
    }

    #[test]
    fn shard_runs_cover_exactly_the_shard_slice() {
        let campaign = CampaignBuilder::new().sizes([2, 3]).seeds(0..2).build();
        let executor = Executor::new().threads(2);
        let (whole, _) = executor.run(&campaign);
        let mut rejoined = Vec::new();
        for index in 0..3 {
            let plan = ShardPlan::new(index, 3).unwrap();
            let (report, stats) = executor.run(&campaign.shard(plan));
            assert_eq!(stats.scenarios, plan.range(campaign.len()).len());
            rejoined.extend_from_slice(report.cells());
        }
        assert_eq!(rejoined, whole.cells(), "shard runs diverge from the whole run");
    }

    #[test]
    fn streaming_run_emits_the_in_memory_cell_sequence_without_retaining_it() {
        let campaign =
            CampaignBuilder::new().sizes([2, 3]).corruptions([(0, 0), (1, 1)]).seeds(0..2).build();
        let (reference, _) = Executor::new().threads(1).run(&campaign);
        let mut streamed = Vec::new();
        let (totals, stats) = Executor::new()
            .threads(4)
            .run_streaming_telemetry(&campaign, |cell, _| {
                streamed.push(cell);
                Ok::<(), Infallible>(())
            })
            .unwrap();
        assert_eq!(streamed, reference.cells());
        assert_eq!(totals, reference.totals());
        assert_eq!(stats.scenarios, campaign.len());
    }

    #[test]
    fn streaming_shard_runs_cover_exactly_the_shard_slice() {
        let campaign = CampaignBuilder::new().sizes([2, 3]).seeds(0..2).build();
        let executor = Executor::new().threads(2);
        let (whole, _) = executor.run(&campaign);
        let mut rejoined = Vec::new();
        let mut summed = Totals::default();
        for index in 0..3 {
            let plan = ShardPlan::new(index, 3).unwrap();
            let (totals, stats) = executor
                .run_shard_streaming_telemetry(&campaign, plan, |cell, _| {
                    rejoined.push(cell);
                    Ok::<(), Infallible>(())
                })
                .unwrap();
            assert_eq!(stats.scenarios, plan.range(campaign.len()).len());
            summed += totals;
        }
        assert_eq!(rejoined, whole.cells());
        assert_eq!(summed, whole.totals());
    }

    #[test]
    fn range_runs_splice_into_the_uninterrupted_shard_sequence() {
        let campaign = CampaignBuilder::new().sizes([2, 3]).seeds(0..2).build();
        let executor = Executor::new().threads(2);
        let plan = ShardPlan::new(1, 3).unwrap();
        let mut uninterrupted = Vec::new();
        executor
            .run_shard_streaming_telemetry(&campaign, plan, |cell, _| {
                uninterrupted.push(cell);
                Ok::<(), Infallible>(())
            })
            .unwrap();
        // Pretend the first `done` cells survived a crash; re-run only the tail.
        for done in 0..=uninterrupted.len() {
            let remainder = plan.remainder(campaign.len(), done);
            let mut spliced = uninterrupted[..done].to_vec();
            let (totals, stats) = executor
                .run_streaming_telemetry(&campaign.slice(remainder), |cell, _| {
                    spliced.push(cell);
                    Ok::<(), Infallible>(())
                })
                .unwrap();
            assert_eq!(spliced, uninterrupted, "splice after {done} cells diverged");
            assert_eq!(stats.scenarios, uninterrupted.len() - done);
            let mut tail_totals = Totals::default();
            for cell in &uninterrupted[done..] {
                tail_totals.record(&cell.outcome);
            }
            assert_eq!(totals, tail_totals);
        }
    }

    #[test]
    fn streaming_run_aborts_on_the_first_sink_error() {
        let campaign = CampaignBuilder::new().sizes([3]).seeds(0..2).build();
        let mut emitted = 0usize;
        let err = Executor::new()
            .threads(2)
            .run_streaming_telemetry(&campaign, |_, _| {
                emitted += 1;
                if emitted == 3 {
                    Err("sink full")
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        assert_eq!(err, "sink full");
        assert_eq!(emitted, 3, "no cell may be emitted after the sink fails");
    }

    #[test]
    fn streaming_run_of_an_empty_campaign_is_empty() {
        let campaign = Campaign::from_specs(Vec::new());
        let (totals, stats) = Executor::new()
            .threads(4)
            .run_streaming_telemetry(&campaign, |_, _| Err("must not be called"))
            .unwrap();
        assert_eq!(totals, Totals::default());
        assert_eq!(stats.scenarios, 0);
    }

    #[test]
    fn run_cell_covers_all_three_outcomes() {
        let solvable = ScenarioSpec {
            k: 3,
            topology: Topology::FullyConnected,
            auth: AuthMode::Authenticated,
            t_l: 1,
            t_r: 1,
            adversary: AdversarySpec::Lying,
            faults: bsm_net::FaultSpec::NONE,
            seed: 4,
        };
        let run_cell = |spec| run_cell_instrumented(spec).0;
        let record = run_cell(solvable);
        let stats = record.outcome.stats().expect("solvable cell completes");
        assert!(stats.messages > 0);
        assert!(stats.signatures > 0);

        let unsolvable = ScenarioSpec { auth: AuthMode::Unauthenticated, ..solvable };
        assert!(matches!(
            run_cell(unsolvable).outcome,
            CellOutcome::Unsolvable { ref theorem, .. } if theorem == "Theorem 2"
        ));

        let invalid = ScenarioSpec { t_l: 99, ..solvable };
        assert!(matches!(run_cell(invalid).outcome, CellOutcome::Failed { .. }));
    }

    /// Attribution is exact: a cell's crypto delta is its own work, whichever worker
    /// ran it and whatever the other workers did meanwhile.
    #[test]
    fn cell_deltas_at_four_threads_equal_each_cell_run_alone() {
        let campaign = CampaignBuilder::new()
            .sizes([2, 3])
            .topologies(Topology::ALL)
            .auth_modes(AuthMode::ALL)
            .corruptions([(0, 0), (1, 1)])
            .adversaries(AdversarySpec::ALL)
            .seeds(0..2)
            .build();
        let mut cells = Vec::new();
        let Ok(_) = Executor::new().threads(4).run_streaming_telemetry(&campaign, |_, cell| {
            cells.push(cell);
            Ok::<(), Infallible>(())
        });
        assert_eq!(cells.len(), campaign.len());
        for cell in &cells {
            let (_, alone) = run_cell_instrumented(cell.spec);
            assert_eq!(cell.crypto, alone.crypto, "{}", cell.spec);
        }
        assert!(cells.iter().any(|cell| cell.crypto.signatures_verified > 0));
    }
}
