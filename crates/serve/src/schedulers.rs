//! The online schedulers selectable by name: the values of a job's
//! `scheduler` field and of the CLI's `--scheduler` flag.

use catbatch::{CatBatch, CatBatchBackfill, CatPrio};
use rigid_baselines::{ListScheduler, Priority};
use rigid_sim::OnlineScheduler;
use rigid_strip::CatBatchStrip;

/// Builds a scheduler for a platform of the given processor count.
pub type BuildScheduler = fn(u32) -> Box<dyn OnlineScheduler>;

/// Every scheduler selectable by name, in the order usage and error
/// text list them.
pub const SCHEDULERS: [(&str, BuildScheduler); 6] = [
    ("catbatch", |_| Box::new(CatBatch::new())),
    ("backfill", |_| Box::new(CatBatchBackfill::new())),
    ("catprio", |_| Box::new(CatPrio::new())),
    ("strip", |procs| Box::new(CatBatchStrip::new(procs))),
    ("list-fifo", |_| Box::new(ListScheduler::new(Priority::Fifo))),
    ("list-longest", |_| Box::new(ListScheduler::new(Priority::LongestFirst))),
];

/// The table's own `'static` spelling of `name`, if it names a
/// scheduler.
pub fn scheduler_name(name: &str) -> Option<&'static str> {
    SCHEDULERS.iter().map(|&(known, _)| known).find(|&known| known == name)
}

/// Builds the scheduler called `name` for `procs` processors; `None` for
/// an unknown name.
pub fn scheduler_by_name(name: &str, procs: u32) -> Option<Box<dyn OnlineScheduler>> {
    SCHEDULERS
        .iter()
        .find(|&&(known, _)| known == name)
        .map(|(_, build)| build(procs))
}
