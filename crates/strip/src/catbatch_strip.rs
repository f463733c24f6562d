//! CatBatch-Strip: the online strip-packing variant of CatBatch
//! (the paper's Remark 1).
//!
//! Identical category batching (the batches live in
//! [`catbatch::BatchCore`]), but inside each batch the greedy
//! `ScheduleIndep` is replaced by NFDH so every task receives a
//! **contiguous** processor interval `[x, x+w)`. Shelves of a batch run
//! one after another (shelf `k+1` starts when shelf `k`'s tallest — and
//! therefore last — task completes), which realizes the NFDH geometry in
//! time. Remark 1's analysis carries over: per batch the height is at
//! most `2·area/P + L_ζ`, so the Theorem 1/2 competitive ratios hold for
//! online strip packing with precedence constraints too.

use crate::packing::{PlacedRect, StripPacking};
use crate::shelf_pack::{shelves, Rect, ShelfRule};
use catbatch::BatchCore;
use rigid_dag::{ReleasedTask, TaskId};
use rigid_sim::OnlineScheduler;
use rigid_time::Time;
use std::collections::VecDeque;

/// The online CatBatch-Strip scheduler.
///
/// After a run, [`packing`](CatBatchStrip::packing) returns the committed
/// contiguous packing (y-coordinates are the actual start instants).
pub struct CatBatchStrip {
    procs: u32,
    core: BatchCore,
    /// The current batch's NFDH shelves not yet started: each task with
    /// its left edge `x`.
    shelves: VecDeque<Vec<(Rect, u32)>>,
    packing: StripPacking,
}

impl CatBatchStrip {
    /// Creates a CatBatch-Strip scheduler for a strip of width `procs`.
    pub fn new(procs: u32) -> Self {
        CatBatchStrip {
            procs,
            core: BatchCore::new(),
            shelves: VecDeque::new(),
            packing: StripPacking::new(procs),
        }
    }

    /// The contiguous packing committed so far (complete after the run).
    pub fn packing(&self) -> &StripPacking {
        &self.packing
    }

    /// Packs the batch that just opened into NFDH shelves.
    fn pack_batch(&mut self) {
        let rects: Vec<Rect> = self
            .core
            .take_pool()
            .into_iter()
            .map(|t| Rect {
                id: t.id,
                width: t.procs,
                height: t.time,
            })
            .collect();
        for (r, shelf, x) in shelves(&rects, self.procs, ShelfRule::NextFit).items {
            if shelf == self.shelves.len() {
                self.shelves.push_back(Vec::new());
            }
            self.shelves.back_mut().expect("just ensured").push((r, x));
        }
    }
}

impl OnlineScheduler for CatBatchStrip {
    fn name(&self) -> &'static str {
        "catbatch-strip"
    }

    fn on_release(&mut self, task: &ReleasedTask, _now: Time) {
        self.core.release(task, task.spec.time);
    }

    fn on_complete(&mut self, task: TaskId, now: Time) {
        self.core.complete(task, now);
    }

    fn decide_into(&mut self, now: Time, free: u32, out: &mut Vec<TaskId>) {
        if self.core.open_next(now) {
            self.pack_batch();
        }
        // A shelf starts only on an empty machine (shelf barrier). With
        // the machine idle, `free < P` can still happen under an engine
        // capacity dip — wait for recovery instead of asserting.
        if self.core.running() > 0 || free < self.procs {
            return;
        }
        let Some(shelf) = self.shelves.pop_front() else {
            return;
        };
        self.core.start_held(shelf.len());
        for (r, x) in shelf {
            self.packing.place(PlacedRect {
                id: r.id,
                x,
                width: r.width,
                y: now,
                height: r.height,
            });
            out.push(r.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rigid_dag::gen::{erdos_dag, TaskSampler};
    use rigid_dag::paper::figure3;
    use rigid_dag::{analysis, StaticSource};
    use rigid_sim::engine;

    #[test]
    fn figure3_strip_run_is_contiguous_and_feasible() {
        let inst = figure3();
        let mut cbs = CatBatchStrip::new(inst.procs());
        let result = engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut cbs);
        result.schedule.assert_valid(&inst);
        cbs.packing().assert_valid();
        assert_eq!(cbs.packing().len(), inst.len());
        // The strip height equals the schedule makespan.
        assert_eq!(cbs.packing().height(), result.makespan());
    }

    #[test]
    fn strip_respects_lemma7_with_nfdh_constant() {
        // Remark 1: NFDH per batch gives height ≤ 2·area + max height per
        // batch, so the total is ≤ 2A/P + Σ L_ζ, same as Lemma 7.
        let inst = figure3();
        let bound = catbatch::analysis::lemma7_bound(&inst);
        let mut cbs = CatBatchStrip::new(inst.procs());
        let result = engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut cbs);
        assert!(result.makespan() <= bound);
    }

    #[test]
    fn random_dags_strip_valid() {
        for seed in 0..10u64 {
            let inst = erdos_dag(seed, 25, 0.15, &TaskSampler::default_mix(), 8);
            let mut cbs = CatBatchStrip::new(8);
            let result = engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut cbs);
            result.schedule.assert_valid(&inst);
            cbs.packing().assert_valid();
            // Theorem 1 ratio bound holds for the strip variant too.
            let ratio = result
                .makespan()
                .ratio(analysis::lower_bound(&inst))
                .to_f64();
            assert!(ratio <= (25f64).log2() + 3.0 + 1e-9, "seed {seed}: {ratio}");
        }
    }

    #[test]
    fn single_wide_task() {
        let inst = rigid_dag::DagBuilder::new()
            .task("w", Time::from_int(2), 4)
            .build(4);
        let mut cbs = CatBatchStrip::new(4);
        let result = engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut cbs);
        assert_eq!(result.makespan(), Time::from_int(2));
        let r = &cbs.packing().rects()[0];
        assert_eq!((r.x, r.width), (0, 4));
    }
}
