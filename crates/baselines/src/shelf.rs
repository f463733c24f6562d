//! Shelf algorithms for *independent* rigid tasks: Next-Fit Decreasing
//! Height (NFDH) and First-Fit Decreasing Height (FFDH), after Coffman,
//! Garey, Johnson and Tarjan \[8\].
//!
//! Tasks are sorted by decreasing execution time ("height") and packed
//! onto shelves: a shelf is a time slab whose height equals its first
//! (tallest) task; a task joins a shelf if the processor widths still fit.
//! NFDH only ever tries the current shelf (3-approximation); FFDH tries
//! every open shelf (2.7-approximation). Shelves are stacked in time.
//!
//! These are offline algorithms for the precedence-free relaxation
//! (Section 2.3 of the paper). The shelves come from the one shelf
//! packer, [`rigid_strip::shelf_pack::shelves`], which also places
//! CatBatch-Strip's per-batch NFDH packings (the paper's Remark 1).

use rigid_dag::{Instance, TaskId};
use rigid_sim::{OfflineScheduler, Schedule};
use rigid_strip::shelf_pack::{shelves, Rect};
use rigid_time::Time;

pub use rigid_strip::shelf_pack::ShelfRule;

/// A shelf-based scheduler for independent rigid tasks.
///
/// # Panics
/// `schedule` panics if the instance has any precedence edge — shelf
/// algorithms are only defined for independent tasks.
pub struct ShelfScheduler {
    rule: ShelfRule,
}

impl ShelfScheduler {
    /// NFDH (3-approximation).
    pub fn nfdh() -> Self {
        ShelfScheduler {
            rule: ShelfRule::NextFit,
        }
    }

    /// FFDH (2.7-approximation).
    pub fn ffdh() -> Self {
        ShelfScheduler {
            rule: ShelfRule::FirstFit,
        }
    }

    /// Packs a set of `(id, time, procs)` triples into shelves and returns
    /// `(assignments, total_height)`, where each assignment is
    /// `(id, shelf_start_time)` relative to the packing's base, in
    /// packing order.
    pub fn pack(
        &self,
        items: Vec<(TaskId, Time, u32)>,
        procs: u32,
    ) -> (Vec<(TaskId, Time)>, Time) {
        let rects: Vec<Rect> = items
            .into_iter()
            .map(|(id, height, width)| Rect { id, width, height })
            .collect();
        let packed = shelves(&rects, procs, self.rule);
        let assign = packed
            .items
            .iter()
            .map(|&(r, shelf, _)| (r.id, packed.bottoms[shelf]))
            .collect();
        (assign, packed.height)
    }
}

impl OfflineScheduler for ShelfScheduler {
    fn name(&self) -> &'static str {
        match self.rule {
            ShelfRule::NextFit => "nfdh",
            ShelfRule::FirstFit => "ffdh",
        }
    }

    fn schedule(&mut self, instance: &Instance) -> Schedule {
        assert_eq!(
            instance.graph().edge_count(),
            0,
            "shelf algorithms require independent tasks"
        );
        let items: Vec<(TaskId, Time, u32)> = instance
            .graph()
            .tasks()
            .map(|(id, s)| (id, s.time, s.procs))
            .collect();
        let (assign, _) = self.pack(items, instance.procs());
        let mut sched = Schedule::new(instance.procs());
        for (id, start) in assign {
            let spec = instance.graph().spec(id);
            sched.place(id, start, start + spec.time, spec.procs);
        }
        sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rigid_dag::gen::{independent, TaskSampler};
    use rigid_dag::analysis;
    use rigid_sim::offline::run_offline;

    #[test]
    fn nfdh_packs_identical_tasks_tightly() {
        // 8 tasks of (t=1, p=2) on P=8: one shelf of 4 + one shelf of 4.
        let mut g = rigid_dag::TaskGraph::new();
        for _ in 0..8 {
            g.add_task(rigid_dag::TaskSpec::new(Time::ONE, 2));
        }
        let inst = Instance::new(g, 8);
        let s = run_offline(&mut ShelfScheduler::nfdh(), &inst);
        assert_eq!(s.makespan(), Time::from_int(2));
    }

    #[test]
    fn ffdh_no_worse_than_nfdh_here() {
        let inst = independent(11, 40, &TaskSampler::default_mix(), 16);
        let n = run_offline(&mut ShelfScheduler::nfdh(), &inst).makespan();
        let f = run_offline(&mut ShelfScheduler::ffdh(), &inst).makespan();
        assert!(f <= n, "FFDH {f} worse than NFDH {n}");
    }

    #[test]
    fn shelf_bounds_hold_on_random_instances() {
        // NFDH ≤ 2·A/P + max height (the bound used in Remark 1 / Lemma 6
        // analog); check across seeds.
        for seed in 0..20u64 {
            let inst = independent(seed, 30, &TaskSampler::default_mix(), 8);
            let s = run_offline(&mut ShelfScheduler::nfdh(), &inst);
            let st = analysis::stats(&inst);
            let bound = st.area.mul_int(2).div_int(8) + st.max_len;
            assert!(
                s.makespan() <= bound,
                "seed {seed}: NFDH {} > bound {bound}",
                s.makespan()
            );
        }
    }

    #[test]
    #[should_panic(expected = "independent")]
    fn rejects_precedence() {
        let inst = rigid_dag::DagBuilder::new()
            .task("a", Time::ONE, 1)
            .task("b", Time::ONE, 1)
            .edge("a", "b")
            .build(2);
        let _ = ShelfScheduler::nfdh().schedule(&inst);
    }

    #[test]
    fn pack_reports_height() {
        let items = vec![
            (TaskId(0), Time::from_int(3), 2),
            (TaskId(1), Time::from_int(2), 2),
            (TaskId(2), Time::from_int(1), 2),
        ];
        let (assign, height) = ShelfScheduler::nfdh().pack(items, 4);
        // Shelf 1: tasks 0 and 1 (height 3); shelf 2: task 2 (height 1).
        assert_eq!(height, Time::from_int(4));
        assert_eq!(assign.len(), 3);
    }
}
