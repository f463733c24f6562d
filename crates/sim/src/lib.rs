//! # rigid-sim — the online scheduling platform
//!
//! A discrete-event simulation engine for rigid task graphs: the
//! "platform" of the SPAA'25 CatBatch paper's model. The engine owns the
//! clock and the `P`-processor pool, reveals tasks through an
//! [`InstanceSource`](rigid_dag::InstanceSource) exactly when they become
//! ready, consults an [`OnlineScheduler`] at every decision point, and
//! records a validated [`Schedule`].
//!
//! The engine deliberately supports *idling*: a scheduler may decline to
//! start ready tasks (the paper's central insight is that near-optimal
//! online scheduling **requires** strategic waiting — see its Figure 1).
//!
//! ```
//! use rigid_dag::{DagBuilder, StaticSource, ReleasedTask, TaskId};
//! use rigid_sim::{engine, OnlineScheduler};
//! use rigid_time::Time;
//!
//! // A minimal greedy scheduler.
//! struct Asap(Vec<(TaskId, u32)>);
//! impl OnlineScheduler for Asap {
//!     fn name(&self) -> &'static str { "asap" }
//!     fn on_release(&mut self, t: &ReleasedTask, _: Time) {
//!         self.0.push((t.id, t.spec.procs));
//!     }
//!     fn on_complete(&mut self, _: TaskId, _: Time) {}
//!     fn decide(&mut self, _: Time, mut free: u32) -> Vec<TaskId> {
//!         let mut out = Vec::new();
//!         self.0.retain(|&(id, p)| {
//!             if p <= free { free -= p; out.push(id); false } else { true }
//!         });
//!         out
//!     }
//! }
//!
//! let inst = DagBuilder::new()
//!     .task("a", Time::from_int(2), 1)
//!     .task("b", Time::from_int(1), 2)
//!     .edge("a", "b")
//!     .build(2);
//! let result = engine::EngineConfig::new()
//!     .run(&mut StaticSource::new(inst.clone()), &mut Asap(vec![]));
//! result.schedule.assert_valid(&inst);
//! assert_eq!(result.makespan(), Time::from_int(3));
//! ```
//!
//! Fault models, run budgets, and reusable scratch buffers are opted
//! into through the same [`engine::EngineConfig`] builder.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assign;
pub mod calendar;
pub mod engine;
pub mod error;
pub mod fault;
pub mod gantt;
pub mod metrics;
pub mod offline;
pub mod reference;
pub mod schedule;
pub mod svg;
pub mod trace;
pub mod scheduler;

pub use engine::{EngineConfig, EngineScratch, EngineStats, RunBudget, RunResult};
pub use error::{BudgetKind, RunError, SchedulerViolation, SourceViolation};
pub use fault::{Attempt, AttemptOutcome, AttemptRecord, FaultLog, FaultModel, NoFaults};
pub use offline::OfflineScheduler;
pub use schedule::{Placement, Schedule, Violation};
pub use scheduler::{FailureResponse, OnlineScheduler};
