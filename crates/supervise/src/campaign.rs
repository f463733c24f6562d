//! The resumable campaign loop: supervised trials + journaled
//! checkpoints + graceful interrupt points.

use crate::journal::{open_campaign_journal, JournalError, JournalWriter, ShardInfo};
use crate::shard::ShardSpec;
use crate::supervisor::{run_supervised, SharedQuarantine, Supervisor, SupervisorPolicy};
use rigid_dag::{instance_fingerprint, Instance, StableHasher, StaticSource};
use rigid_exec::{ReorderBuffer, ReorderWait, ScratchPool};
use rigid_faults::{run_trial, run_trial_reusing, CampaignStats, FaultConfig, TrialError, TrialStats};
use rigid_sim::{EngineConfig, EngineScratch, OnlineScheduler, RunBudget, RunError};
use rigid_time::Time;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

/// How a campaign should be supervised, journaled, and budgeted.
#[derive(Clone, Debug, Default)]
pub struct CampaignOptions {
    /// Watchdog / retry / quarantine policy for each trial.
    pub policy: SupervisorPolicy,
    /// Hard per-trial engine budget (events, wall clock).
    pub budget: RunBudget,
    /// Journal path. `None` runs without checkpoints.
    pub journal: Option<PathBuf>,
    /// With a journal: replay existing records instead of truncating.
    /// A missing journal file resumes into a fresh one.
    pub resume: bool,
    /// Worker threads for trial execution. `0` and `1` both run the
    /// serial in-line loop (with its per-trial fsync durability); `>= 2`
    /// fans trials out over a work-stealing pool whose results are
    /// reordered into canonical seed order and journaled with group
    /// commit — journals and aggregates stay **byte-identical** to
    /// serial execution for any value.
    pub jobs: usize,
    /// Run only shard `i/N` of the deduplicated seed space (see
    /// [`ShardSpec::plan`]). The journal (required for sharding to be
    /// useful, though not enforced here) gets a
    /// [`SHARD_SCHEMA`](crate::journal::SHARD_SCHEMA) header pinning the
    /// shard coordinates; `merge` later reconstitutes the single-process
    /// journal byte-for-byte from a full set of shard files.
    pub shard: Option<ShardSpec>,
}

/// What a campaign invocation did, beyond the aggregate stats.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignOutcome {
    /// The aggregate stats — byte-identical between an uninterrupted
    /// run and any interrupted-then-resumed sequence over the same
    /// seeds.
    pub stats: CampaignStats,
    /// Trials actually executed by this invocation.
    pub executed: usize,
    /// Trials replayed from the journal without re-execution.
    pub replayed: usize,
    /// Whether the stop condition (e.g. SIGINT) ended the run early;
    /// `stats` then covers only the seeds processed so far.
    pub interrupted: bool,
    /// Whether the journal had a torn trailing line (crash artifact,
    /// discarded; that trial re-executes).
    pub torn_tail: bool,
}

/// Why a campaign could not run at all (per-trial failures never land
/// here — they are recorded in the trial stats).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CampaignError {
    /// The journal could not be written, read, or matched.
    Journal(JournalError),
    /// The fault-free baseline run failed — the scheduler cannot even
    /// schedule the unperturbed instance.
    Baseline(RunError),
    /// The fault-free baseline run panicked.
    BaselinePanicked {
        /// The panic payload, stringified.
        message: String,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Journal(e) => e.fmt(f),
            CampaignError::Baseline(e) => write!(f, "fault-free baseline failed: {e}"),
            CampaignError::BaselinePanicked { message } => {
                write!(f, "fault-free baseline panicked: {message}")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<JournalError> for CampaignError {
    fn from(e: JournalError) -> Self {
        CampaignError::Journal(e)
    }
}

/// The stable scenario fingerprint a journal is keyed on: instance,
/// fault config, scheduler name, and the deterministic part of the
/// budget (`max_events`). The wall-clock deadline is deliberately
/// excluded — it cannot be reproduced anyway.
pub fn campaign_fingerprint(
    instance: &Instance,
    config: &FaultConfig,
    scheduler: &str,
    budget: RunBudget,
) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(instance_fingerprint(instance));
    h.write_u32(config.fail_permille);
    h.write_u32(config.max_failures_per_task);
    h.write_u32(config.straggle_permille);
    h.write_u32(config.straggle_factor_permille.0);
    h.write_u32(config.straggle_factor_permille.1);
    h.write_u64(config.dips.len() as u64);
    for dip in &config.dips {
        h.write_str(&dip.from.to_string());
        h.write_str(&dip.until.to_string());
        h.write_u32(dip.capacity);
    }
    h.write_str(scheduler);
    h.write_u64(budget.max_events.map_or(u64::MAX, |e| e));
    h.finish()
}

/// How often the parallel coordinator wakes while waiting for an
/// out-of-order result, to honor the group-commit deadline.
const COORDINATOR_POLL: Duration = Duration::from_millis(5);

/// The `TrialStats` recorded when the supervision envelope — not the
/// engine — rejected the trial (panicked, timed out, quarantined).
fn enveloped_failure(instance: &Instance, seed: u64, err: TrialError) -> TrialStats {
    TrialStats {
        seed,
        outcome: Err(err),
        failures: 0,
        wasted_area: Time::ZERO,
        inflated_area: Time::ZERO,
        min_capacity: instance.procs(),
    }
}

/// Runs a supervised, journaled, resumable fault campaign.
///
/// Per seed, in order: if `stop()` returns true the campaign winds down
/// (journal flushed — every recorded trial is fsynced); if the
/// journal holds the seed's record it is replayed **byte-for-byte**;
/// otherwise the trial runs under the supervision envelope (panic
/// capture, watchdog, retries, quarantine) and its record is appended
/// in canonical seed order.
///
/// With `options.jobs >= 2`, trials fan out over a work-stealing worker
/// pool; a single coordinator reorders results into seed order before
/// journaling, batching appends with group commit. Journals, aggregates,
/// and `TrialStats` are byte-identical to serial execution for any
/// thread count, and kill-and-resume replays exactly the same records.
///
/// Resuming a journal written for a different scenario (instance,
/// config, scheduler, or event budget) fails with
/// [`JournalError::FingerprintMismatch`]; resuming a *complete* journal
/// executes zero trials and reproduces the aggregates exactly.
pub fn run_campaign<S, F>(
    instance: &Instance,
    config: &FaultConfig,
    seeds: &[u64],
    options: &CampaignOptions,
    stop: impl Fn() -> bool + Sync,
    make_scheduler: F,
) -> Result<CampaignOutcome, CampaignError>
where
    S: OnlineScheduler + 'static,
    F: Fn() -> S + Clone + Send + Sync + 'static,
{
    let scheduler_name = make_scheduler().name().to_string();
    let fingerprint = campaign_fingerprint(instance, config, &scheduler_name, options.budget);
    let fingerprint_hex = format!("{fingerprint:016x}");

    // Sharding: restrict the run to this process's slice of the
    // deduplicated seed space. The plan is a pure function of the full
    // seed list, so every `--shard i/N` process computes the same
    // partition independently.
    let assigned: Vec<u64>;
    let seeds: &[u64] = match &options.shard {
        Some(spec) => {
            assigned = spec.plan(seeds);
            &assigned
        }
        None => seeds,
    };
    let shard_info: Option<ShardInfo> = options.shard.map(|spec| spec.info(seeds));

    // The baseline: reused from the journal header on resume, computed
    // (with panic capture — nothing may kill the campaign) otherwise.
    let baseline = || -> Result<Time, CampaignError> {
        let run = catch_unwind(AssertUnwindSafe(|| {
            let mut sched = make_scheduler();
            EngineConfig::new().try_run(&mut StaticSource::new(instance.clone()), &mut sched)
        }))
        .map_err(|p| CampaignError::BaselinePanicked { message: rigid_faults::panic_message(p) })?;
        Ok(run.map_err(CampaignError::Baseline)?.makespan())
    };

    // Open the journal (resuming it when asked) and index its records
    // by seed.
    let mut replay: BTreeMap<u64, TrialStats> = BTreeMap::new();
    let (mut writer, fault_free_makespan, torn_tail) = match &options.journal {
        Some(path) => {
            let (writer, contents) = open_campaign_journal(
                path,
                options.resume,
                &fingerprint_hex,
                &scheduler_name,
                shard_info.as_ref(),
                baseline,
            )?;
            for t in contents.trials {
                replay.entry(t.seed).or_insert(t);
            }
            (Some(writer), contents.header.fault_free_makespan, contents.torn_tail)
        }
        None => (None, baseline()?, false),
    };

    let mut trials = Vec::with_capacity(seeds.len());
    let mut executed = 0;
    let mut replayed = 0;
    let mut interrupted = false;
    let jobs = options.jobs.max(1);

    if jobs <= 1 {
        let mut supervisor = Supervisor::new(options.policy);
        for &seed in seeds {
            if stop() {
                interrupted = true;
                break;
            }
            if let Some(t) = replay.get(&seed) {
                trials.push(t.clone());
                replayed += 1;
                continue;
            }
            let budget = options.budget;
            let inst = instance.clone();
            let cfg = config.clone();
            let mk = make_scheduler.clone();
            let trial = supervisor
                .run_trial(seed, fingerprint, move || {
                    let inst = inst.clone();
                    let cfg = cfg.clone();
                    let mk = mk.clone();
                    move || {
                        let mut sched = mk();
                        run_trial(&inst, &cfg, seed, budget, &mut sched)
                    }
                })
                .unwrap_or_else(|err| enveloped_failure(instance, seed, err));
            if let Some(w) = writer.as_mut() {
                w.record(&trial)?;
            }
            executed += 1;
            // Duplicate seeds later in the list replay this result
            // instead of re-running.
            replay.insert(seed, trial.clone());
            trials.push(trial);
        }
    } else {
        // Work list: the first occurrence of each seed that is not
        // already in the journal. Duplicates and replayed seeds are
        // resolved by the coordinator from `replay`, exactly like the
        // serial loop.
        let mut desc_index: BTreeMap<u64, usize> = BTreeMap::new();
        let mut descs: Vec<u64> = Vec::new();
        for &seed in seeds {
            if !replay.contains_key(&seed) && !desc_index.contains_key(&seed) {
                desc_index.insert(seed, descs.len());
                descs.push(seed);
            }
        }
        let total = descs.len();
        let quarantine = SharedQuarantine::new();
        let scratch: Arc<ScratchPool<EngineScratch>> = Arc::new(ScratchPool::new());
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, TrialStats)>();
        let mut journal_error: Option<JournalError> = None;
        let policy = options.policy;
        let budget = options.budget;
        let descs = &descs;
        let quarantine = &quarantine;
        let cursor = &cursor;
        let stop = &stop;
        thread::scope(|scope| {
            for _ in 0..jobs.min(total) {
                let tx = tx.clone();
                let scratch = Arc::clone(&scratch);
                let mk = make_scheduler.clone();
                scope.spawn(move || loop {
                    if stop() {
                        break;
                    }
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let seed = descs[i];
                    let trial = run_supervised(&policy, quarantine, seed, fingerprint, || {
                        let inst = instance.clone();
                        let cfg = config.clone();
                        let mk = mk.clone();
                        let scratch = Arc::clone(&scratch);
                        move || {
                            scratch.with(EngineScratch::new, |s| {
                                let mut sched = mk();
                                run_trial_reusing(&inst, &cfg, seed, budget, &mut sched, s)
                            })
                        }
                    })
                    .unwrap_or_else(|err| enveloped_failure(instance, seed, err));
                    if tx.send((i, trial)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            // Owned by the scope body: dropping it on an early break
            // closes the result channel, so workers notice on their next
            // send and stop claiming descriptors.
            let mut reorder = ReorderBuffer::new(rx);

            // Coordinator: walk the seed list in canonical order,
            // journaling each result as soon as its turn comes up. The
            // descriptor indices are assigned in first-occurrence order,
            // so the requests below are monotonic and the reorder buffer
            // holds at most what the workers have run ahead by.
            'seeds: for &seed in seeds {
                if stop() {
                    interrupted = true;
                    break 'seeds;
                }
                if let Some(t) = replay.get(&seed) {
                    trials.push(t.clone());
                    replayed += 1;
                    continue;
                }
                let idx = desc_index[&seed];
                let trial = loop {
                    match reorder.recv_index(idx, COORDINATOR_POLL) {
                        Ok(t) => break t,
                        Err(ReorderWait::Tick) => {
                            let due = writer.as_mut().map_or(Ok(()), JournalWriter::commit_if_due);
                            if let Err(e) = due {
                                journal_error = Some(e);
                                break 'seeds;
                            }
                        }
                        Err(ReorderWait::Disconnected) => {
                            // Every worker exited without producing this
                            // result: the stop condition interrupted the
                            // fan-out. In-flight results past this point
                            // are discarded so the journal stays a
                            // contiguous, in-order prefix.
                            interrupted = true;
                            break 'seeds;
                        }
                    }
                };
                let journaled = writer.as_mut().map_or(Ok(()), |w| {
                    w.record_buffered(&trial).and_then(|()| w.commit_if_due())
                });
                if let Err(e) = journaled {
                    journal_error = Some(e);
                    break 'seeds;
                }
                executed += 1;
                replay.insert(seed, trial.clone());
                trials.push(trial);
            }
        });
        // Flush on interrupt and at completion alike: every journaled
        // record is durable before the campaign returns.
        let flushed = writer.as_mut().map_or(Ok(()), JournalWriter::sync);
        if let Some(e) = journal_error {
            return Err(e.into());
        }
        flushed?;
    }

    Ok(CampaignOutcome {
        stats: CampaignStats { fault_free_makespan, trials },
        executed,
        replayed,
        interrupted,
        torn_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_distinguishes_scenarios() {
        let inst = rigid_dag::paper::figure3();
        let cfg = FaultConfig::fail_stop(300, 2);
        let base = campaign_fingerprint(&inst, &cfg, "catbatch", RunBudget::UNLIMITED);
        assert_eq!(
            base,
            campaign_fingerprint(&inst, &cfg, "catbatch", RunBudget::UNLIMITED),
            "fingerprint must be stable"
        );
        assert_ne!(
            base,
            campaign_fingerprint(&inst, &FaultConfig::fail_stop(301, 2), "catbatch", RunBudget::UNLIMITED)
        );
        assert_ne!(
            base,
            campaign_fingerprint(&inst, &cfg, "list", RunBudget::UNLIMITED)
        );
        assert_ne!(
            base,
            campaign_fingerprint(&inst, &cfg, "catbatch", RunBudget::max_events(10_000))
        );
        let other = rigid_dag::paper::intro_example(8, rigid_time::Time::from_ratio(1, 100));
        assert_ne!(base, campaign_fingerprint(&other, &cfg, "catbatch", RunBudget::UNLIMITED));
    }
}
