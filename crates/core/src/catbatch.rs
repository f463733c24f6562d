//! The CatBatch online scheduler (the paper's Algorithms 1–3).
//!
//! CatBatch groups revealed tasks into batches by category and processes
//! batches in strictly increasing category value. Inside a batch — whose
//! tasks are guaranteed independent and fully discovered (Corollary 2) —
//! it runs the greedy `ScheduleIndep` routine: at the start of the batch
//! and at every completion, start any remaining batch task that fits in
//! the free processors. A batch must **finish entirely** before the next
//! batch starts; tasks discovered meanwhile wait in their own category's
//! batch. This deliberate idling is what defeats the `Ω(P)` trap of ASAP
//! heuristics (paper Figure 1) and yields the `log₂(n) + 3` competitive
//! ratio (Theorem 1).
//!
//! The batches themselves live in [`BatchCore`]; `CatBatch` adds only
//! the retry budget for failed attempts.

use crate::batch::BatchCore;
use crate::category::Category;
use rigid_dag::{ReleasedTask, TaskId};
use rigid_sim::{FailureResponse, OnlineScheduler};
use rigid_time::Time;
use std::collections::BTreeMap;

pub use crate::batch::BatchRecord;

/// The CatBatch online scheduler.
///
/// Construct per run with [`CatBatch::new`]; inspect
/// [`batch_history`](CatBatch::batch_history) afterwards for the batch
/// decomposition the run produced.
#[derive(Default)]
pub struct CatBatch {
    core: BatchCore,
    /// Failed attempts per task so far.
    failures: BTreeMap<TaskId, u32>,
    /// How many failures per task CatBatch tolerates before abandoning.
    retry_budget: u32,
}

impl CatBatch {
    /// Creates a fresh CatBatch scheduler that abandons on the first
    /// task failure (faithful to the paper's fault-free model).
    pub fn new() -> Self {
        CatBatch::default()
    }

    /// Tolerate up to `budget` failed attempts per task: a failed task
    /// re-enters its batch's pool and is re-executed in full. The batch
    /// barrier is preserved — the batch simply does not close until the
    /// retry completes, so Lemma 5's release invariant still holds
    /// (releases during the batch keep strictly larger categories).
    pub fn with_retry_budget(mut self, budget: u32) -> Self {
        self.retry_budget = budget;
        self
    }

    /// Total failed attempts observed across all tasks.
    pub fn failures_observed(&self) -> u32 {
        self.failures.values().sum()
    }

    /// The completed batches in processing order.
    pub fn batch_history(&self) -> &[BatchRecord] {
        self.core.history()
    }

    /// The category a given released task was assigned (via its tracked
    /// criticality); `None` if unknown.
    pub fn category_of_task(&self, task: TaskId) -> Option<Category> {
        self.core.category_of(task)
    }
}

impl OnlineScheduler for CatBatch {
    fn name(&self) -> &'static str {
        "catbatch"
    }

    fn on_release(&mut self, task: &ReleasedTask, _now: Time) {
        self.core.release(task, task.spec.time);
    }

    fn on_complete(&mut self, task: TaskId, now: Time) {
        self.core.complete(task, now);
    }

    fn decide_into(&mut self, now: Time, mut free: u32, out: &mut Vec<TaskId>) {
        self.core.open_next(now);
        self.core.schedule_indep(&mut free, out, |_| true);
    }

    fn on_failure(&mut self, task: TaskId, _now: Time) -> FailureResponse {
        let count = self.failures.entry(task).or_insert(0);
        *count += 1;
        if *count > self.retry_budget {
            return FailureResponse::Abandon;
        }
        self.core.retry(task);
        FailureResponse::Retry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rigid_dag::paper::figure3;
    use rigid_dag::StaticSource;
    use rigid_sim::engine;

    /// Figure 6: CatBatch on the Figure 3 example with P = 4 finishes at
    /// 15.2 with batches in category order 1, 2, 3.5, 4, 5, 6.5.
    #[test]
    fn figure6_schedule() {
        let inst = figure3();
        let mut src = StaticSource::new(inst.clone());
        let mut cb = CatBatch::new();
        let result = engine::EngineConfig::new().run(&mut src, &mut cb);
        result.schedule.assert_valid(&inst);
        assert_eq!(result.makespan(), Time::from_millis(15, 200));

        let cats: Vec<Time> = cb
            .batch_history()
            .iter()
            .map(|b| b.category.value())
            .collect();
        assert_eq!(
            cats,
            vec![
                Time::from_int(1),
                Time::from_int(2),
                Time::from_ratio(7, 2),
                Time::from_int(4),
                Time::from_int(5),
                Time::from_ratio(13, 2),
            ]
        );

        // Batch membership: {B}, {C,D}, {F,G}, {A,E,I}, {H,K}, {J}.
        let g = inst.graph();
        let label_sets: Vec<Vec<&str>> = cb
            .batch_history()
            .iter()
            .map(|b| {
                let mut v: Vec<&str> =
                    b.tasks.iter().map(|&id| g.spec(id).label_str()).collect();
                v.sort();
                v
            })
            .collect();
        assert_eq!(
            label_sets,
            vec![
                vec!["B"],
                vec!["C", "D"],
                vec!["F", "G"],
                vec!["A", "E", "I"],
                vec!["H", "K"],
                vec!["J"],
            ]
        );

        // Batch boundaries: ζ=1 ends at 2; ζ=2 ends at 5; ζ=3.5 at 5.8;
        // ζ=4 at 11.8; ζ=5 at 14.4; ζ=6.5 at 15.2.
        let ends: Vec<Time> = cb.batch_history().iter().map(|b| b.finished_at).collect();
        assert_eq!(
            ends,
            vec![
                Time::from_int(2),
                Time::from_int(5),
                Time::from_millis(5, 800),
                Time::from_millis(11, 800),
                Time::from_millis(14, 400),
                Time::from_millis(15, 200),
            ]
        );
    }

    /// Batches never overlap in time and appear in strictly increasing
    /// category order.
    #[test]
    fn batches_are_sequential() {
        let inst = figure3();
        let mut src = StaticSource::new(inst);
        let mut cb = CatBatch::new();
        let _ = engine::EngineConfig::new().run(&mut src, &mut cb);
        let h = cb.batch_history();
        for w in h.windows(2) {
            assert!(w[0].finished_at <= w[1].started_at);
            assert!(w[0].category < w[1].category);
        }
    }

    /// Lemma 6 per batch: span ≤ 2·area/P + L_ζ.
    #[test]
    fn lemma6_per_batch() {
        use crate::lmatrix::category_length;
        let inst = figure3();
        let c = rigid_dag::analysis::critical_path(inst.graph());
        let p = inst.procs();
        let mut src = StaticSource::new(inst);
        let mut cb = CatBatch::new();
        let _ = engine::EngineConfig::new().run(&mut src, &mut cb);
        for b in cb.batch_history() {
            let bound = b.area.mul_int(2).div_int(p as i64) + category_length(b.category, c);
            assert!(
                b.span() <= bound,
                "batch {} span {} exceeds Lemma 6 bound {bound}",
                b.category,
                b.span()
            );
        }
    }

    /// A single task is trivially scheduled.
    #[test]
    fn single_task() {
        let inst = rigid_dag::DagBuilder::new()
            .task("only", Time::from_millis(2, 500), 3)
            .build(4);
        let mut src = StaticSource::new(inst.clone());
        let mut cb = CatBatch::new();
        let result = engine::EngineConfig::new().run(&mut src, &mut cb);
        result.schedule.assert_valid(&inst);
        assert_eq!(result.makespan(), Time::from_millis(2, 500));
        assert_eq!(cb.batch_history().len(), 1);
    }

    /// Tasks needing all P processors serialize correctly.
    #[test]
    fn full_width_tasks() {
        let inst = rigid_dag::DagBuilder::new()
            .task("x", Time::ONE, 4)
            .task("y", Time::ONE, 4)
            .build(4);
        let mut src = StaticSource::new(inst.clone());
        let mut cb = CatBatch::new();
        let result = engine::EngineConfig::new().run(&mut src, &mut cb);
        result.schedule.assert_valid(&inst);
        // Same category (both (0,1)); batch runs them one after another.
        assert_eq!(result.makespan(), Time::from_int(2));
        assert_eq!(cb.batch_history().len(), 1);
    }

    /// A failing task retries inside its batch; batch order, membership,
    /// and the barrier are all preserved.
    #[test]
    fn retry_keeps_batch_structure() {
        use rigid_sim::fault::{Attempt, FaultModel};
        use rigid_sim::EngineConfig;

        /// Fails the first attempt of every task at half its duration.
        struct FirstAttemptFails;
        impl FaultModel for FirstAttemptFails {
            fn on_start(
                &mut self,
                _task: TaskId,
                attempt: u32,
                _now: Time,
                nominal: Time,
                _procs: u32,
            ) -> Attempt {
                if attempt == 0 {
                    Attempt::Fail { after: nominal.div_int(2) }
                } else {
                    Attempt::Complete
                }
            }
        }

        let inst = figure3();
        let mut src = StaticSource::new(inst.clone());
        let mut cb = CatBatch::new().with_retry_budget(1);
        let result = EngineConfig::new()
            .faults(&mut FirstAttemptFails)
            .try_run(&mut src, &mut cb)
            .expect("retries within budget must succeed");

        // Every task still ran with its spec (t, p) on the successful
        // attempt; precedence and capacity hold.
        result.schedule.assert_valid(&inst);
        assert_eq!(result.faults.failures, inst.graph().len() as u64);
        assert_eq!(cb.failures_observed(), inst.graph().len() as u32);

        // Batch decomposition is unchanged in category order and
        // membership; only the spans stretch.
        let cats: Vec<Time> = cb
            .batch_history()
            .iter()
            .map(|b| b.category.value())
            .collect();
        assert_eq!(
            cats,
            vec![
                Time::from_int(1),
                Time::from_int(2),
                Time::from_ratio(7, 2),
                Time::from_int(4),
                Time::from_int(5),
                Time::from_ratio(13, 2),
            ]
        );
        for w in cb.batch_history().windows(2) {
            assert!(w[0].finished_at <= w[1].started_at, "batch barrier broken");
        }
        // Failures waste real time: the run is strictly longer than the
        // fault-free 15.2.
        assert!(result.makespan() > Time::from_millis(15, 200));
    }

    /// Exhausting the retry budget aborts the run with a typed
    /// abandonment error.
    #[test]
    fn budget_exhaustion_abandons() {
        use rigid_sim::fault::{Attempt, FaultModel};
        use rigid_sim::{EngineConfig, RunError};

        struct AlwaysFails;
        impl FaultModel for AlwaysFails {
            fn on_start(
                &mut self,
                _task: TaskId,
                _attempt: u32,
                _now: Time,
                nominal: Time,
                _procs: u32,
            ) -> Attempt {
                Attempt::Fail { after: nominal.div_int(2) }
            }
        }

        let inst = rigid_dag::DagBuilder::new()
            .task("doomed", Time::from_int(2), 1)
            .build(2);
        let mut src = StaticSource::new(inst);
        let mut cb = CatBatch::new().with_retry_budget(2);
        let err = EngineConfig::new().faults(&mut AlwaysFails).try_run(&mut src, &mut cb).unwrap_err();
        match err {
            RunError::TaskAbandoned { attempts, .. } => assert_eq!(attempts, 3),
            other => panic!("expected TaskAbandoned, got {other:?}"),
        }
    }

    /// With the default budget (0) CatBatch abandons on the first
    /// failure, matching the paper's fault-free model.
    #[test]
    fn default_budget_abandons_immediately() {
        use rigid_sim::fault::{Attempt, FaultModel};
        use rigid_sim::{EngineConfig, RunError};

        struct FailOnce;
        impl FaultModel for FailOnce {
            fn on_start(
                &mut self,
                _task: TaskId,
                attempt: u32,
                _now: Time,
                nominal: Time,
                _procs: u32,
            ) -> Attempt {
                if attempt == 0 {
                    Attempt::Fail { after: nominal.div_int(2) }
                } else {
                    Attempt::Complete
                }
            }
        }

        let inst = rigid_dag::DagBuilder::new()
            .task("t", Time::ONE, 1)
            .build(1);
        let mut src = StaticSource::new(inst);
        let mut cb = CatBatch::new();
        let err = EngineConfig::new().faults(&mut FailOnce).try_run(&mut src, &mut cb).unwrap_err();
        assert!(matches!(err, RunError::TaskAbandoned { attempts: 1, .. }));
    }

    /// category_of_task is consistent with direct computation.
    #[test]
    fn category_lookup() {
        let inst = figure3();
        let g = inst.graph();
        let mut src = StaticSource::new(inst.clone());
        let mut cb = CatBatch::new();
        let _ = engine::EngineConfig::new().run(&mut src, &mut cb);
        let b = g.find_by_label("B").unwrap();
        assert_eq!(
            cb.category_of_task(b).unwrap().value(),
            Time::from_int(1)
        );
        let j = g.find_by_label("J").unwrap();
        assert_eq!(
            cb.category_of_task(j).unwrap().value(),
            Time::from_ratio(13, 2)
        );
    }
}
