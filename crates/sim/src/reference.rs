//! The pre-refactor *stepping* engine, kept verbatim as a frozen
//! reference implementation.
//!
//! [`crate::engine`] was rewritten to be event-driven (a `BinaryHeap`
//! completion queue over dense per-task state); this module preserves
//! the original map-based stepping loop byte for byte so that
//!
//! * the differential proptests in `crates/sim/tests/` can assert the
//!   two engines produce **identical** `RunResult`s (schedules, release
//!   times, decision counts, and fault logs) on random instances, and
//! * the `rigid-bench` perf pipeline can measure the speedup of the
//!   event-driven hot path against the exact code it replaced.
//!
//! Do not modify this file for performance or style: its value is that
//! it does not change. Bug fixes that alter observable behavior must be
//! applied to **both** engines, with a differential test witnessing the
//! agreement.

use crate::engine::{EngineStats, RunResult};
use crate::error::{RunError, SchedulerViolation, SourceViolation};
use crate::fault::{Attempt, AttemptOutcome, AttemptRecord, FaultLog, FaultModel, NoFaults};
use crate::schedule::Schedule;
use crate::scheduler::{FailureResponse, OnlineScheduler};
use rigid_dag::{InstanceSource, ReleasedTask, TaskGraph, TaskId};
use rigid_time::Time;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Internal record of a released task.
struct Known {
    spec_procs: u32,
    spec_time: Time,
    started: bool,
    attempts: u32,
}

/// Why a running entry will leave the running set.
enum RunningOutcome {
    /// Completes at the keyed instant.
    Completes,
    /// Fails at the keyed instant (fail-stop).
    Fails,
}

struct Running {
    id: TaskId,
    procs: u32,
    outcome: RunningOutcome,
}

/// Stepping-engine counterpart of [`EngineConfig::run`](crate::EngineConfig::run).
///
/// # Panics
/// Panics on any contract violation, exactly like the main entry point.
pub fn run(source: &mut dyn InstanceSource, scheduler: &mut dyn OnlineScheduler) -> RunResult {
    match try_run(source, scheduler) {
        Ok(result) => result,
        Err(err) => panic!("{err}"),
    }
}

/// Stepping-engine counterpart of
/// [`EngineConfig::try_run`](crate::EngineConfig::try_run).
pub fn try_run(
    source: &mut dyn InstanceSource,
    scheduler: &mut dyn OnlineScheduler,
) -> Result<RunResult, RunError> {
    try_run_faulty(source, scheduler, &mut NoFaults)
}

/// Stepping-engine counterpart of
/// [`EngineConfig::try_run`](crate::EngineConfig::try_run) under a
/// [`FaultModel`]: the original per-step loop over `HashMap`/`BTreeMap`
/// state.
pub fn try_run_faulty(
    source: &mut dyn InstanceSource,
    scheduler: &mut dyn OnlineScheduler,
    faults: &mut dyn FaultModel,
) -> Result<RunResult, RunError> {
    let procs = source.procs();
    assert!(procs >= 1);

    let mut schedule = Schedule::new(procs);
    let mut revealed = TaskGraph::new();
    // The source allocates dense ids; map them to the rebuilt graph (ids
    // must arrive in order for the rebuild to preserve them).
    let mut id_map: HashMap<TaskId, TaskId> = HashMap::new();
    let mut release_times: BTreeMap<TaskId, Time> = BTreeMap::new();

    let mut known: HashMap<TaskId, Known> = HashMap::new();
    let mut completed: HashSet<TaskId> = HashSet::new();
    let mut running: BTreeMap<(Time, u64), Running> = BTreeMap::new();
    let mut start_seq: u64 = 0;
    let mut completion_index: u64 = 0;
    let mut used: u32 = 0;
    let mut decisions: u64 = 0;
    let mut log = FaultLog::new(procs);

    let mut now = Time::ZERO;

    let mut pending_releases: Vec<ReleasedTask> = source.initial();

    loop {
        // Ingest releases, validating the source contract first.
        for rel in pending_releases.drain(..) {
            if known.contains_key(&rel.id) {
                return Err(SourceViolation::DuplicateRelease { task: rel.id }.into());
            }
            if rel.spec.procs > procs {
                return Err(SourceViolation::Oversubscription {
                    task: rel.id,
                    needed: rel.spec.procs,
                    platform: procs,
                }
                .into());
            }
            for &p in &rel.preds {
                if !id_map.contains_key(&p) {
                    return Err(
                        SourceViolation::UnknownPredecessor { task: rel.id, pred: p }.into()
                    );
                }
                if !completed.contains(&p) {
                    return Err(
                        SourceViolation::PrematureRelease { task: rel.id, pred: p }.into()
                    );
                }
            }
            let new_id = revealed.add_task(rel.spec.clone());
            id_map.insert(rel.id, new_id);
            for &p in &rel.preds {
                let mapped = id_map[&p];
                revealed.add_edge(mapped, new_id);
            }
            release_times.insert(rel.id, now);
            known.insert(
                rel.id,
                Known {
                    spec_procs: rel.spec.procs,
                    spec_time: rel.spec.time,
                    started: false,
                    attempts: 0,
                },
            );
            scheduler.on_release(&rel, now);
        }

        // Ask the scheduler what to start now. Repeat until it passes,
        // since starting a task may change what it wants (some schedulers
        // return one task per call). Capacity dips restrict *new* starts
        // only; running tasks keep their processors.
        let capacity = faults.capacity(now, procs).min(procs);
        log.min_capacity = log.min_capacity.min(capacity);
        let mut avail = capacity.saturating_sub(used);
        loop {
            decisions += 1;
            let to_start = scheduler.decide(now, avail);
            if to_start.is_empty() {
                break;
            }
            let mut seen = HashSet::new();
            for id in to_start {
                if !seen.insert(id) {
                    return Err(SchedulerViolation::DuplicateDecision { task: id }.into());
                }
                let k = match known.get_mut(&id) {
                    Some(k) => k,
                    None => return Err(SchedulerViolation::UnknownTask { task: id }.into()),
                };
                if k.started || completed.contains(&id) {
                    return Err(SchedulerViolation::DoubleStart { task: id }.into());
                }
                if k.spec_procs > avail {
                    return Err(SchedulerViolation::Oversubscribed {
                        task: id,
                        needed: k.spec_procs,
                        free: avail,
                    }
                    .into());
                }
                k.started = true;
                let attempt = k.attempts;
                k.attempts += 1;
                avail -= k.spec_procs;
                used += k.spec_procs;

                let fate = faults.on_start(id, attempt, now, k.spec_time, k.spec_procs);
                let (leaves_at, outcome) = match fate {
                    Attempt::Complete => {
                        let finish = now + k.spec_time;
                        schedule.place(id, now, finish, k.spec_procs);
                        if attempt > 0 {
                            log.attempts.push(AttemptRecord {
                                task: id,
                                attempt,
                                start: now,
                                end: finish,
                                procs: k.spec_procs,
                                outcome: AttemptOutcome::Completed,
                            });
                        }
                        (finish, RunningOutcome::Completes)
                    }
                    Attempt::Inflated { actual } => {
                        assert!(
                            actual >= k.spec_time,
                            "fault model shrank task {id}: {actual} < nominal {}",
                            k.spec_time
                        );
                        let finish = now + actual;
                        schedule.place(id, now, finish, k.spec_procs);
                        log.inflated_area +=
                            (actual - k.spec_time).mul_int(k.spec_procs as i64);
                        log.attempts.push(AttemptRecord {
                            task: id,
                            attempt,
                            start: now,
                            end: finish,
                            procs: k.spec_procs,
                            outcome: AttemptOutcome::Inflated {
                                nominal: k.spec_time,
                                actual,
                            },
                        });
                        (finish, RunningOutcome::Completes)
                    }
                    Attempt::Fail { after } => {
                        assert!(
                            after.is_positive() && after <= k.spec_time,
                            "fault model failed task {id} outside (0, t]: {after}"
                        );
                        let dies_at = now + after;
                        log.failures += 1;
                        log.wasted_area += after.mul_int(k.spec_procs as i64);
                        log.attempts.push(AttemptRecord {
                            task: id,
                            attempt,
                            start: now,
                            end: dies_at,
                            procs: k.spec_procs,
                            outcome: AttemptOutcome::Failed {
                                nominal: k.spec_time,
                                ran: after,
                            },
                        });
                        (dies_at, RunningOutcome::Fails)
                    }
                };
                running.insert(
                    (leaves_at, start_seq),
                    Running { id, procs: k.spec_procs, outcome },
                );
                start_seq += 1;
            }
        }

        let next_event = running.keys().next().map(|&(t, _)| t);
        let next_arrival = source.next_timed_release(now);
        let next_capacity = faults.next_capacity_event(now);

        // The clock advances to the earliest of the three.
        let tick = [next_event, next_arrival, next_capacity]
            .into_iter()
            .flatten()
            .min();

        let Some(tick) = tick else {
            // Nothing runs, nothing will arrive, capacity never changes
            // again. If tasks remain unstarted the scheduler is stuck; if
            // the source still holds completion-driven tasks it will
            // never release them.
            let mut unstarted: Vec<TaskId> = known
                .iter()
                .filter(|(_, k)| !k.started)
                .map(|(id, _)| *id)
                .collect();
            if !unstarted.is_empty() {
                unstarted.sort();
                return Err(SchedulerViolation::Deadlock { unstarted, capacity }.into());
            }
            if source.expects_more() {
                return Err(SourceViolation::WithheldTasks.into());
            }
            break;
        };

        now = tick;
        if next_event == Some(tick) {
            // Process every completion/failure at this instant before
            // deciding again.
            while let Some((&(t, seq), entry)) = running.iter().next() {
                if t != now {
                    break;
                }
                let (id, p) = (entry.id, entry.procs);
                let fails = matches!(entry.outcome, RunningOutcome::Fails);
                running.remove(&(t, seq));
                used -= p;
                if fails {
                    let k = known.get_mut(&id).expect("running task is known");
                    k.started = false;
                    match scheduler.on_failure(id, now) {
                        FailureResponse::Retry => {}
                        FailureResponse::Abandon => {
                            return Err(RunError::TaskAbandoned {
                                task: id,
                                attempts: k.attempts,
                                at: now,
                            });
                        }
                    }
                } else {
                    completed.insert(id);
                    scheduler.on_complete(id, now);
                    let newly = source.on_complete(id, completion_index);
                    completion_index += 1;
                    pending_releases.extend(newly);
                }
            }
            // Clock arrivals landing exactly at this instant join the
            // same decision round.
            pending_releases.extend(source.timed_releases(now));
        } else if next_arrival == Some(tick) {
            pending_releases.extend(source.timed_releases(now));
        }
        // A pure capacity event needs no bookkeeping: the next loop
        // iteration re-reads the capacity and re-consults the scheduler.
    }

    Ok(RunResult {
        schedule,
        revealed,
        revealed_ids: id_map,
        procs,
        release_times,
        decisions,
        faults: log,
        stats: EngineStats::default(),
    })
}
