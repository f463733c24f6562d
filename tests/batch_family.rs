//! Golden schedules of the category-batch family: CatBatch (fault-free,
//! and under a fixed fault model with and without a retry budget),
//! CatBatchBackfill, EstimatedCatBatch at three noise levels and
//! CatBatch-Strip, over every `gen::family` shape at fixed seeds plus the
//! paper's Figure 3 example.
//!
//! Each run is rendered to text: makespan, decision count, every
//! placement in recorded order, and the scheduler's own record (batch
//! history, batch ends and backfill count, or the strip packing). The
//! Figure 3 runs are pinned in full; the generated runs are pinned by a
//! 64-bit FNV-1a digest of their rendering. Any change to a placement, a
//! batch boundary or a packed rectangle changes the golden file.

use catbatch::{CatBatch, CatBatchBackfill, EstimatedCatBatch};
use rigid_dag::gen::{family, TaskSampler};
use rigid_dag::{paper, Instance, StaticSource, TaskId};
use rigid_sim::fault::{Attempt, FaultModel};
use rigid_sim::{EngineConfig, OnlineScheduler, RunError, RunResult};
use rigid_strip::CatBatchStrip;
use rigid_time::Time;
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/batch_family.txt");

/// Fails the first attempt of every third task at half its length, and
/// the second attempt of every sixth at a third of it.
struct FixedFaults;

impl FaultModel for FixedFaults {
    fn on_start(&mut self, task: TaskId, attempt: u32, _now: Time, nominal: Time, _procs: u32) -> Attempt {
        match attempt {
            0 if task.0 % 3 == 1 => Attempt::Fail { after: nominal.div_int(2) },
            1 if task.0 % 6 == 1 => Attempt::Fail { after: nominal.div_int(3) },
            _ => Attempt::Complete,
        }
    }
}

fn run<S: OnlineScheduler>(inst: &Instance, sched: &mut S, faulty: bool) -> Result<RunResult, RunError> {
    let mut src = StaticSource::new(inst.clone());
    let mut faults = FixedFaults;
    let config = EngineConfig::new();
    let config = if faulty { config.faults(&mut faults) } else { config };
    config.try_run(&mut src, sched)
}

fn render_result(out: &mut String, result: &Result<RunResult, RunError>) {
    match result {
        Ok(r) => {
            writeln!(out, "  makespan {} decisions {} failures {}", r.makespan(), r.decisions, r.faults.failures).unwrap();
            for p in r.schedule.placements() {
                writeln!(out, "  place {} {} {} {}", p.task.0, p.start, p.finish, p.procs).unwrap();
            }
        }
        Err(e) => writeln!(out, "  error {e:?}").unwrap(),
    }
}

fn render_catbatch(out: &mut String, cb: &CatBatch) {
    for b in cb.batch_history() {
        let tasks: Vec<u32> = b.tasks.iter().map(|t| t.0).collect();
        writeln!(out, "  batch {} [{}, {}] area {} tasks {tasks:?}", b.category, b.started_at, b.finished_at, b.area).unwrap();
    }
    writeln!(out, "  failures_observed {}", cb.failures_observed()).unwrap();
}

/// Renders every scheduler of the family on one instance, one block per
/// scheduler.
fn render_instance(inst: &Instance) -> Vec<(&'static str, String)> {
    let mut blocks = Vec::new();

    for (name, budget, faulty) in [("catbatch", None, false), ("catbatch-retry2-faults", Some(2), true), ("catbatch-noretry-faults", None, true)] {
        let mut cb = match budget {
            Some(b) => CatBatch::new().with_retry_budget(b),
            None => CatBatch::new(),
        };
        let mut out = String::new();
        render_result(&mut out, &run(inst, &mut cb, faulty));
        render_catbatch(&mut out, &cb);
        blocks.push((name, out));
    }

    let mut bf = CatBatchBackfill::new();
    let mut out = String::new();
    render_result(&mut out, &run(inst, &mut bf, false));
    for (cat, end) in bf.batch_ends() {
        writeln!(out, "  batch_end {cat} {end}").unwrap();
    }
    writeln!(out, "  backfill_count {}", bf.backfill_count()).unwrap();
    blocks.push(("backfill", out));

    for (name, noise) in [("estimated-0", 0), ("estimated-20", 20), ("estimated-80", 80)] {
        let mut est = EstimatedCatBatch::new(noise, 7);
        let mut out = String::new();
        render_result(&mut out, &run(inst, &mut est, false));
        blocks.push((name, out));
    }

    let mut strip = CatBatchStrip::new(inst.procs());
    let mut out = String::new();
    render_result(&mut out, &run(inst, &mut strip, false));
    for r in strip.packing().rects() {
        writeln!(out, "  rect {} x {} w {} y {} h {}", r.id.0, r.x, r.width, r.y, r.height).unwrap();
    }
    blocks.push(("strip", out));

    blocks
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

fn render_all() -> String {
    let mut out = String::new();
    for (sched, block) in render_instance(&paper::figure3()) {
        writeln!(out, "figure3 {sched}").unwrap();
        out.push_str(&block);
    }
    let sampler = TaskSampler::default_mix();
    for (seed, procs) in [(3u64, 4u32), (3, 16), (11, 4), (11, 16)] {
        for (shape, inst) in family(seed, 30, &sampler, procs) {
            for (sched, block) in render_instance(&inst) {
                writeln!(out, "{shape} seed {seed} P {procs} {sched} {:016x}", fnv1a(&block)).unwrap();
            }
        }
    }
    out
}

#[test]
fn batch_family_schedules_are_pinned() {
    let actual = render_all();
    for (i, (want, got)) in GOLDEN.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "golden line {} differs", i + 1);
    }
    assert_eq!(actual.lines().count(), GOLDEN.lines().count(), "golden line count differs");
    assert_eq!(actual, GOLDEN);
}
