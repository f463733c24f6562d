//! The category-batch discipline (the paper's Algorithms 1–3), owned
//! once for CatBatch and every variant built on it.
//!
//! [`BatchCore`] computes each released task's criticality and category,
//! holds tasks in per-category batches, and runs the batches one at a
//! time in increasing `ζ`: a batch becomes current when the previous one
//! has drained (the barrier), and it closes into a [`BatchRecord`] once
//! every member has completed. Tasks released while a batch runs have a
//! strictly larger category (Lemma 5 / Corollary 2), so a batch's
//! membership is fixed when it opens; [`BatchCore::release`] checks it.
//!
//! A scheduler on the core keeps only its policy:
//!
//! * [`CatBatch`](crate::CatBatch) runs the greedy `ScheduleIndep` step
//!   ([`BatchCore::schedule_indep`]) and re-pools failed members
//!   ([`BatchCore::retry`]);
//! * [`CatBatchBackfill`](crate::CatBatchBackfill) also starts tasks of
//!   later batches beside the current one ([`BatchCore::take_pending`]);
//! * [`EstimatedCatBatch`](crate::EstimatedCatBatch) releases tasks with
//!   a believed length instead of the true one;
//! * CatBatch-Strip (`rigid-strip`) takes each batch's members
//!   ([`BatchCore::take_pool`]), packs them into NFDH shelves and starts
//!   one shelf at a time ([`BatchCore::start_held`]).

use crate::attributes::CriticalityTracker;
use crate::category::{compute_category, Category};
use rigid_dag::{ReleasedTask, TaskId};
use rigid_time::Time;
use std::collections::BTreeMap;

/// A released task as the batches hold it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchTask {
    /// The task.
    pub id: TaskId,
    /// Processors it needs.
    pub procs: u32,
    /// Its true execution time `t` (also when its category came from a
    /// believed length).
    pub time: Time,
}

/// A completed batch, for reporting and bound-checking (Figure 6 shows
/// these intervals; Lemma 6 bounds each batch's span).
#[derive(Clone, Debug)]
pub struct BatchRecord {
    /// The batch's category.
    pub category: Category,
    /// Tasks processed in this batch.
    pub tasks: Vec<TaskId>,
    /// Instant the batch became current (= previous batch's finish).
    pub started_at: Time,
    /// Instant the last task of the batch completed.
    pub finished_at: Time,
    /// Total area `Σ t·p` of the batch's tasks.
    pub area: Time,
}

impl BatchRecord {
    /// The batch's execution span `T(B_ζ)`.
    pub fn span(&self) -> Time {
        self.finished_at - self.started_at
    }
}

struct CurrentBatch {
    category: Category,
    /// Every member, in release order.
    members: Vec<BatchTask>,
    /// Members not yet started, in release order, as `(index in
    /// members, procs)`: the greedy scan reads only these 8 bytes per
    /// task.
    pool: Vec<(u32, u32)>,
    /// Members the policy took out of the pool and has not started yet.
    held: usize,
    /// Members currently running.
    running: usize,
    started_at: Time,
    area: Time,
}

/// Criticality tracking, pending batches, the current batch and the
/// batch history of one run.
#[derive(Default)]
pub struct BatchCore {
    tracker: CriticalityTracker,
    /// Released tasks not yet in the current batch, by category.
    pending: BTreeMap<Category, Vec<BatchTask>>,
    current: Option<CurrentBatch>,
    history: Vec<BatchRecord>,
    /// Position of each current member in `CurrentBatch::members`,
    /// indexed by task (to re-pool a failed task).
    slot: Vec<u32>,
}

impl BatchCore {
    /// An empty core: nothing released, no batch current.
    pub fn new() -> Self {
        BatchCore::default()
    }

    /// Registers a released task in its category's batch. The category
    /// comes from the task's criticality with `length` as its execution
    /// time: the true `t` for CatBatch, a believed one for estimates.
    ///
    /// # Panics
    /// Panics if the category is not above the current batch's (Lemma 5).
    pub fn release(&mut self, task: &ReleasedTask, length: Time) {
        let crit = self.tracker.on_release_with_length(task, length);
        let cat = compute_category(crit.start, crit.finish);
        if let Some(cur) = &self.current {
            // Lemma 5 / Corollary 2: tasks discovered while batch ζ runs
            // have category strictly greater than ζ.
            assert!(
                cat > cur.category,
                "release of {} with category {cat} ≤ current batch {}",
                task.id,
                cur.category
            );
        }
        self.pending.entry(cat).or_default().push(BatchTask {
            id: task.id,
            procs: task.spec.procs,
            time: task.spec.time,
        });
    }

    /// Makes the pending batch of smallest category current if no batch
    /// is (Algorithm 3, line 10: find `B_ζmin`). It must run at the
    /// instant the previous batch closed, so the record's `started_at`
    /// is right. Returns whether it opened a batch.
    pub fn open_next(&mut self, now: Time) -> bool {
        if self.current.is_some() {
            return false;
        }
        let Some((category, members)) = self.pending.pop_first() else {
            return false;
        };
        let area = members.iter().map(|t| t.time.mul_int(t.procs as i64)).sum();
        let mut pool = Vec::with_capacity(members.len());
        for (i, t) in members.iter().enumerate() {
            let idx = t.id.index();
            if self.slot.len() <= idx {
                self.slot.resize(idx + 1, 0);
            }
            self.slot[idx] = i as u32;
            pool.push((i as u32, t.procs));
        }
        self.current = Some(CurrentBatch {
            category,
            members,
            pool,
            held: 0,
            running: 0,
            started_at: now,
            area,
        });
        true
    }

    /// The greedy `ScheduleIndep` step (Algorithm 2, lines 9–15): starts
    /// every unstarted member of the current batch that fits in `free`
    /// and that `admit` accepts, scanning the pool in order, and appends
    /// it to `out`.
    pub fn schedule_indep(
        &mut self,
        free: &mut u32,
        out: &mut Vec<TaskId>,
        mut admit: impl FnMut(&BatchTask) -> bool,
    ) {
        let Some(cur) = self.current.as_mut() else {
            return;
        };
        // Every task needs ≥ 1 processor: a saturated machine starts
        // nothing.
        if *free == 0 {
            return;
        }
        let members = &cur.members;
        let before = out.len();
        cur.pool.retain(|&(i, procs)| {
            if procs > *free {
                return true;
            }
            let t = &members[i as usize];
            if !admit(t) {
                return true;
            }
            *free -= procs;
            out.push(t.id);
            false
        });
        cur.running += out.len() - before;
    }

    /// Hands the current batch's unstarted members to a policy that
    /// orders and starts them itself (NFDH shelves), reporting each start
    /// through [`start_held`](Self::start_held); the batch stays open
    /// until every one of them has started and completed.
    pub fn take_pool(&mut self) -> Vec<BatchTask> {
        let Some(cur) = self.current.as_mut() else {
            return Vec::new();
        };
        cur.held += cur.pool.len();
        let members = &cur.members;
        cur.pool.drain(..).map(|(i, _)| members[i as usize]).collect()
    }

    /// `count` members taken with [`take_pool`](Self::take_pool) started.
    ///
    /// # Panics
    /// Panics if no batch is current or fewer members are held.
    pub fn start_held(&mut self, count: usize) {
        let cur = self.current.as_mut().expect("start outside any batch");
        assert!(count <= cur.held, "started more members than were held");
        cur.held -= count;
        cur.running += count;
    }

    /// Starts tasks of *pending* batches beside the current one:
    /// scanning categories in increasing order and each batch in release
    /// order, starts every task that fits in `free` and that `admit`
    /// accepts, removes it from its batch and appends it to `out`. The
    /// tasks started never join the current batch.
    pub fn take_pending(
        &mut self,
        free: &mut u32,
        out: &mut Vec<TaskId>,
        mut admit: impl FnMut(&BatchTask) -> bool,
    ) {
        for pool in self.pending.values_mut() {
            if *free == 0 {
                break;
            }
            pool.retain(|t| {
                if t.procs <= *free && admit(t) {
                    *free -= t.procs;
                    out.push(t.id);
                    false
                } else {
                    true
                }
            });
        }
        self.pending.retain(|_, pool| !pool.is_empty());
    }

    /// A member of the current batch completed; the batch closes once it
    /// drains (Algorithm 2, line 17: wait until all tasks in B complete).
    pub fn complete(&mut self, task: TaskId, now: Time) {
        self.finish(task);
        self.close_if_drained(now);
    }

    /// A member of the current batch completed, without closing the
    /// batch: for a policy that holds the barrier for tasks of its own.
    ///
    /// # Panics
    /// Panics if no batch is current or none of its members runs.
    pub fn finish(&mut self, task: TaskId) {
        let cur = self
            .current
            .as_mut()
            .expect("completion outside any batch");
        debug_assert!(
            cur.members.iter().any(|t| t.id == task),
            "completed {task} not in batch"
        );
        assert!(cur.running > 0, "completion underflow");
        cur.running -= 1;
    }

    /// Closes the current batch into its record if every member has
    /// completed. Returns whether it closed one.
    pub fn close_if_drained(&mut self, now: Time) -> bool {
        match &self.current {
            Some(cur) if cur.running == 0 && cur.held == 0 && cur.pool.is_empty() => {}
            _ => return false,
        }
        let cur = self.current.take().expect("checked above");
        self.history.push(BatchRecord {
            category: cur.category,
            tasks: cur.members.iter().map(|t| t.id).collect(),
            started_at: cur.started_at,
            finished_at: now,
            area: cur.area,
        });
        true
    }

    /// Re-pools a failed member of the current batch: it starts again
    /// from a later decision, and the batch cannot close before it
    /// completes. The failed task belongs to the batch that started it,
    /// which cannot have closed while the attempt ran.
    ///
    /// # Panics
    /// Panics if no batch is current or none of its members runs.
    pub fn retry(&mut self, task: TaskId) {
        let cur = self
            .current
            .as_mut()
            .expect("failure outside any batch");
        assert!(cur.running > 0, "failure underflow");
        let i = self.slot[task.index()];
        let member = &cur.members[i as usize];
        debug_assert_eq!(member.id, task, "failed {task} not in batch");
        cur.running -= 1;
        cur.pool.push((i, member.procs));
    }

    /// Members of the current batch that are running.
    pub fn running(&self) -> usize {
        self.current.as_ref().map_or(0, |cur| cur.running)
    }

    /// Members of the current batch left in its pool.
    pub fn unstarted(&self) -> usize {
        self.current.as_ref().map_or(0, |cur| cur.pool.len())
    }

    /// The closed batches in processing order.
    pub fn history(&self) -> &[BatchRecord] {
        &self.history
    }

    /// The category of the batch holding `task` (closed, current or
    /// pending); `None` if the task was never released or was started
    /// outside its batch.
    pub fn category_of(&self, task: TaskId) -> Option<Category> {
        let closed = self.history.iter().find(|rec| rec.tasks.contains(&task));
        if let Some(rec) = closed {
            return Some(rec.category);
        }
        if let Some(cur) = &self.current {
            if cur.members.iter().any(|t| t.id == task) {
                return Some(cur.category);
            }
        }
        self.pending
            .iter()
            .find(|(_, pool)| pool.iter().any(|t| t.id == task))
            .map(|(cat, _)| *cat)
    }
}
