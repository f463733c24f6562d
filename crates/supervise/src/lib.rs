//! # rigid-supervise — crash-safe campaign orchestration
//!
//! The paper's hardest experiments (the adaptive `Z^Alg_P(K)` gadget of
//! Section 6, large seeded fault sweeps) run thousands of trials; this
//! crate makes a campaign survive anything a trial can throw at it:
//!
//! * [`Supervisor`] — runs each trial in an isolated worker with
//!   `catch_unwind` panic capture, a per-trial wall-clock watchdog,
//!   bounded retries with deterministic exponential backoff, and
//!   quarantine of poison `(seed, scenario)` pairs. Every failure mode
//!   becomes a typed [`TrialError`](rigid_faults::TrialError) instead
//!   of process death.
//! * [`journal`] — the workspace's one append-only JSONL record log
//!   (header pin, torn-tail repair, group commit), and the campaign
//!   journal built on it (`catbatch-journal/v1`, plus the `/v2` shard
//!   header): one record per finished trial.
//! * [`run_campaign`] — the resumable campaign loop: replays journaled
//!   trials byte-for-byte (the seed's record *is* the result), executes
//!   only what is missing, and stops gracefully at interrupt points.
//! * [`shard`] — the deterministic planner behind `--shard i/N`: each
//!   process runs one balanced contiguous slice of the deduplicated
//!   seed space and writes its own journal shard.
//! * [`merge`] — fingerprint-validated shard merge: proves a set of
//!   shard journals belongs together and reconstitutes the
//!   single-process v1 journal byte-for-byte.
//! * [`interrupt`] — SIGINT/SIGTERM → an atomic flag the campaign loop
//!   polls between trials, so `^C` flushes the journal and reports
//!   partial stats instead of killing the process mid-write.
//!
//! See `docs/resilience.md` for the journal schema, resume semantics,
//! and the sharded-campaign workflow.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod interrupt;
pub mod journal;
pub mod merge;
pub mod shard;
pub mod supervisor;

pub use campaign::{
    campaign_fingerprint, run_campaign, CampaignError, CampaignOptions, CampaignOutcome,
};
pub use interrupt::InterruptToken;
pub use journal::{
    open_campaign_journal, read_journal, JournalContents, JournalError, JournalHeader,
    JournalWriter, ShardInfo, JOURNAL_SCHEMA, SHARD_SCHEMA,
};
pub use merge::{merge_shards, MergeError, MergeReport};
pub use shard::ShardSpec;
pub use supervisor::{Supervisor, SupervisorPolicy};
