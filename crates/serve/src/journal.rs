//! The serve journal: crash-recoverable record of accepted jobs.
//!
//! The daemon appends two kinds of records to a JSONL journal: a
//! `Submitted` record once a job has passed validation (so the job is
//! *accepted* — it parses and names a real scheduler), and a terminal
//! `Completed`/`Failed` record once it has run. A daemon that restarts
//! over the same journal re-executes every accepted job with no
//! terminal record — jobs are pure functions of their spec, so the
//! replay produces the same `Completed` record the crashed daemon
//! would have written.
//!
//! The file is a `rigid_supervise::journal` record log: this module
//! only defines its header and record types and the fold that replays
//! them. A dedicated writer thread appends the records and
//! group-commits them under the log's policy, so one `fdatasync` is
//! amortized over a burst of jobs instead of paid per job. A torn tail
//! from a crash is dropped on reopen and truncated before the first
//! append.

use crate::protocol::JobSpec;
use rigid_supervise::journal::{read_log, JournalError, JournalWriter};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

/// Schema tag on the journal's header line.
pub const SERVE_SCHEMA: &str = "catbatch-serve-journal/v1";

/// The journal header line.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct ServeHeader {
    schema: String,
}

/// One journal record.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum JobRecord {
    /// A job passed validation and was accepted for execution. Carries
    /// the full instance text so a restarted daemon can re-execute the
    /// job without the (gone) client.
    Submitted {
        /// The client-chosen job id (the dedup key).
        id: u64,
        /// Scheduler name.
        scheduler: String,
        /// Instance fingerprint at submission time, recorded so audit
        /// tooling can cross-check the instance text without parsing.
        fingerprint: u64,
        /// The instance, in `.rigid` text format.
        instance: String,
        /// The client's idempotency key, if the submission carried one.
        /// `None` on records written before PR 9 (schema is still v1 —
        /// absent fields deserialize as `None`). Per-request deadlines
        /// are deliberately *not* journaled: a deadline bounds one live
        /// execution attempt, and a crash-replay runs without it rather
        /// than inheriting a stale wall-clock bound.
        idem: Option<u64>,
    },
    /// The job ran to completion.
    Completed {
        /// The job id.
        id: u64,
        /// Scheduler name.
        scheduler: String,
        /// Exact makespan (display form).
        makespan: String,
        /// Engine events processed.
        events: u64,
        /// Makespan / lower bound.
        ratio_to_lb: f64,
        /// Task count (`None` on pre-PR-9 records). These optional
        /// fields let a restarted daemon answer a resubmitted
        /// idempotency key with a faithful `JobResult` instead of
        /// re-executing; they do not participate in [`aggregate`].
        tasks: Option<u64>,
        /// Processor count (`None` on pre-PR-9 records).
        procs: Option<u32>,
        /// Lower bound, display form (`None` on pre-PR-9 records).
        lower_bound: Option<String>,
        /// Peak ready-set size (`None` on pre-PR-9 records).
        peak_ready: Option<u64>,
    },
    /// The job terminated without a schedule (typed engine error,
    /// panic, watchdog timeout, or quarantine). Terminal: the job is
    /// not re-executed on restart.
    Failed {
        /// The job id.
        id: u64,
        /// Scheduler name.
        scheduler: String,
        /// The [`crate::protocol::kind`] constant.
        kind: String,
    },
}

impl JobRecord {
    fn id(&self) -> u64 {
        match self {
            JobRecord::Submitted { id, .. }
            | JobRecord::Completed { id, .. }
            | JobRecord::Failed { id, .. } => *id,
        }
    }
}

/// Everything a replay recovers from an existing journal.
#[derive(Debug, Default)]
pub struct JournalState {
    /// Accepted jobs with no terminal record, in first-submission
    /// order: the restart backlog.
    pub pending: Vec<JobSpec>,
    /// Terminal records (`Completed`/`Failed`), deduplicated by id
    /// (replays after an untimely crash write identical duplicates;
    /// first wins).
    pub terminal: Vec<JobRecord>,
    /// Idempotency key per job id, for every submission that carried
    /// one (first submission wins). The daemon joins this against
    /// `terminal` at startup to seed its dedup table, so a client that
    /// resubmits across a daemon restart still gets the journaled
    /// outcome instead of a re-execution.
    pub idem_by_id: BTreeMap<u64, u64>,
    /// Whether a torn tail was truncated.
    pub torn_tail: bool,
}

/// Order-independent digest of a journal's terminal records. Two
/// daemons that completed the same job set — no matter how execution
/// interleaved or how many crash/restart cycles it took — produce equal
/// aggregates, byte for byte once serialized.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Aggregates {
    /// Jobs with a `Completed` record.
    pub completed: u64,
    /// Jobs with a `Failed` record.
    pub failed: u64,
    /// Total engine events across completed jobs.
    pub events: u64,
    /// FNV-1a over `(id, scheduler, makespan, events)` of every
    /// completed job in id order.
    pub fingerprint: u64,
}

/// Folds terminal records (as returned by [`JournalState`]) into their
/// aggregate digest.
pub fn aggregate(terminal: &[JobRecord]) -> Aggregates {
    let mut by_id: BTreeMap<u64, &JobRecord> = BTreeMap::new();
    for rec in terminal {
        by_id.entry(rec.id()).or_insert(rec);
    }
    let mut agg = Aggregates { completed: 0, failed: 0, events: 0, fingerprint: 0xcbf2_9ce4_8422_2325 };
    for rec in by_id.values() {
        match rec {
            JobRecord::Completed { id, scheduler, makespan, events, .. } => {
                agg.completed += 1;
                agg.events += events;
                for bytes in [
                    &id.to_le_bytes()[..],
                    scheduler.as_bytes(),
                    makespan.as_bytes(),
                    &events.to_le_bytes()[..],
                ] {
                    for &b in bytes {
                        agg.fingerprint ^= b as u64;
                        agg.fingerprint = agg.fingerprint.wrapping_mul(0x100_0000_01b3);
                    }
                }
            }
            JobRecord::Failed { .. } => agg.failed += 1,
            JobRecord::Submitted { .. } => unreachable!("terminal records only"),
        }
    }
    agg
}

/// Folds a journal's records into the restart backlog and the
/// terminal set.
fn replay(records: Vec<JobRecord>, torn_tail: bool) -> JournalState {
    let mut submitted: BTreeMap<u64, JobSpec> = BTreeMap::new();
    let mut submit_order: Vec<u64> = Vec::new();
    let mut idem_by_id: BTreeMap<u64, u64> = BTreeMap::new();
    let mut terminal_ids: BTreeSet<u64> = BTreeSet::new();
    let mut terminal: Vec<JobRecord> = Vec::new();
    for rec in records {
        match rec {
            JobRecord::Submitted { id, scheduler, instance, idem, .. } => {
                if let std::collections::btree_map::Entry::Vacant(slot) = submitted.entry(id) {
                    submit_order.push(id);
                    if let Some(key) = idem {
                        idem_by_id.insert(id, key);
                    }
                    slot.insert(JobSpec {
                        id,
                        scheduler,
                        instance,
                        gantt: false,
                        trace: false,
                        idem,
                        // Deadlines bound live attempts only; replays
                        // run unbounded (see the record's field docs).
                        deadline_ms: None,
                    });
                }
            }
            other => {
                if terminal_ids.insert(other.id()) {
                    terminal.push(other);
                }
            }
        }
    }
    let pending = submit_order
        .into_iter()
        .filter(|id| !terminal_ids.contains(id))
        .map(|id| submitted.remove(&id).expect("ordered id is in the map"))
        .collect();
    JournalState { pending, terminal, idem_by_id, torn_tail }
}

enum Msg {
    Record(Box<JobRecord>),
    Flush(Sender<()>),
    Close,
}

/// Cloneable append handle; records are enqueued to the writer thread.
#[derive(Clone)]
pub struct JournalTx {
    tx: Sender<Msg>,
}

impl JournalTx {
    /// Enqueues one record for group-committed append.
    pub fn record(&self, rec: JobRecord) {
        // A send can only fail after close(); records raced against
        // shutdown are intentionally dropped (their jobs will replay).
        let _ = self.tx.send(Msg::Record(Box::new(rec)));
    }

    /// Blocks until everything enqueued before this call is on disk.
    pub fn flush(&self) {
        let (ack, done) = mpsc::channel();
        if self.tx.send(Msg::Flush(ack)).is_ok() {
            let _ = done.recv();
        }
    }
}

/// The open journal: background writer thread plus its file.
pub struct ServeJournal {
    tx: Option<Sender<Msg>>,
    handle: Option<JoinHandle<()>>,
    path: PathBuf,
}

impl ServeJournal {
    /// Opens (or creates) the journal at `path`. Returns the handle and
    /// the recovered state: for a fresh journal the state is empty.
    /// Errors are strings: the daemon refuses to start over a journal
    /// it cannot make sense of rather than silently dropping jobs.
    pub fn open(path: &Path) -> Result<(ServeJournal, JournalState), String> {
        let opened = if path.exists() {
            read_log::<ServeHeader, JobRecord>(path, &[SERVE_SCHEMA]).and_then(|log| {
                let writer = JournalWriter::append_validated(path, &log)?;
                Ok((writer, replay(log.records, log.torn_tail)))
            })
        } else {
            let header = ServeHeader { schema: SERVE_SCHEMA.to_string() };
            JournalWriter::create(path, &header).map(|writer| (writer, JournalState::default()))
        };
        let (writer, state) =
            opened.map_err(|e| format!("cannot open journal {}: {e}", path.display()))?;
        let (tx, rx) = mpsc::channel::<Msg>();
        let handle = std::thread::Builder::new()
            .name("serve-journal".into())
            .spawn(move || writer_loop(writer, rx))
            .map_err(|e| format!("cannot spawn journal thread: {e}"))?;
        let journal =
            ServeJournal { tx: Some(tx), handle: Some(handle), path: path.to_path_buf() };
        Ok((journal, state))
    }

    /// A cloneable append handle for workers and sessions.
    pub fn sender(&self) -> JournalTx {
        JournalTx { tx: self.tx.clone().expect("journal is open") }
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Flushes outstanding records and stops the writer thread.
    pub fn close(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        // An explicit close message, not just dropping the sender:
        // outstanding `JournalTx` clones (a worker mid-job) must not be
        // able to stall the final flush.
        if let Some(tx) = self.tx.take() {
            let _ = tx.send(Msg::Close);
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServeJournal {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn writer_loop(mut writer: JournalWriter, rx: mpsc::Receiver<Msg>) {
    // A failed append is unrecoverable mid-run; the affected jobs simply
    // replay on restart, so log and carry on.
    let report = |result: Result<(), JournalError>| {
        if let Err(e) = result {
            eprintln!("serve journal append failed: {e}");
        }
    };
    loop {
        match rx.recv_timeout(Duration::from_millis(5)) {
            Ok(Msg::Record(rec)) => report(writer.record_buffered(&*rec)),
            Ok(Msg::Flush(ack)) => {
                report(writer.sync());
                let _ = ack.send(());
            }
            Ok(Msg::Close) | Err(RecvTimeoutError::Disconnected) => {
                report(writer.sync());
                return;
            }
            Err(RecvTimeoutError::Timeout) => {}
        }
        report(writer.commit_if_due());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "serve-journal-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&dir);
        dir
    }

    fn completed(id: u64) -> JobRecord {
        JobRecord::Completed {
            id,
            scheduler: "catbatch".into(),
            makespan: "5".into(),
            events: 10 + id,
            ratio_to_lb: 1.25,
            tasks: Some(4),
            procs: Some(2),
            lower_bound: Some("4".into()),
            peak_ready: Some(3),
        }
    }

    fn submitted(id: u64) -> JobRecord {
        JobRecord::Submitted {
            id,
            scheduler: "catbatch".into(),
            fingerprint: 99,
            instance: "procs 2\n".into(),
            idem: Some(0x1000 + id),
        }
    }

    #[test]
    fn roundtrip_and_pending_extraction() {
        let path = tmp("roundtrip");
        let (journal, state) = ServeJournal::open(&path).expect("create");
        assert!(state.pending.is_empty());
        let tx = journal.sender();
        tx.record(submitted(1));
        tx.record(submitted(2));
        tx.record(completed(1));
        tx.record(submitted(3));
        tx.record(JobRecord::Failed { id: 3, scheduler: "catbatch".into(), kind: "run".into() });
        journal.close();

        let (reopened, state) = ServeJournal::open(&path).expect("reopen");
        assert_eq!(state.pending.len(), 1, "only job 2 lacks a terminal record");
        assert_eq!(state.pending[0].id, 2);
        assert_eq!(state.terminal.len(), 2);
        reopened.close();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let path = tmp("torn");
        let (journal, _) = ServeJournal::open(&path).expect("create");
        let tx = journal.sender();
        tx.record(submitted(1));
        tx.flush();
        journal.close();
        // Simulate a crash mid-append.
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).expect("open");
        f.write_all(b"{\"Completed\":{\"id\":1,").expect("torn write");
        drop(f);

        let (journal, state) = ServeJournal::open(&path).expect("reopen over torn tail");
        assert!(state.torn_tail);
        assert_eq!(state.pending.len(), 1);
        let tx = journal.sender();
        tx.record(completed(1));
        journal.close();

        let (journal, state) = ServeJournal::open(&path).expect("third open");
        assert!(state.pending.is_empty());
        assert_eq!(state.terminal, vec![completed(1)]);
        journal.close();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn idem_keys_are_recovered_per_job_id() {
        let path = tmp("idem");
        let (journal, _) = ServeJournal::open(&path).expect("create");
        let tx = journal.sender();
        tx.record(submitted(1)); // idem 0x1001
        tx.record(JobRecord::Submitted {
            id: 2,
            scheduler: "catbatch".into(),
            fingerprint: 99,
            instance: "procs 2\n".into(),
            idem: None, // a client that opted out
        });
        tx.record(completed(1));
        journal.close();

        let (journal, state) = ServeJournal::open(&path).expect("reopen");
        assert_eq!(state.idem_by_id.get(&1), Some(&0x1001));
        assert_eq!(state.idem_by_id.get(&2), None);
        journal.close();
        let _ = std::fs::remove_file(&path);
    }

    /// Pre-PR-9 journals lack `idem` on `Submitted` and the result
    /// detail fields on `Completed`; they must keep parsing (the schema
    /// tag is still v1 — evolution is additive `Option` fields only).
    #[test]
    fn pre_idempotency_records_still_parse() {
        let old_submitted = r#"{"Submitted":{"id":7,"scheduler":"catbatch","fingerprint":3,"instance":"procs 2\n"}}"#;
        let rec: JobRecord = serde_json::from_str(old_submitted).expect("old Submitted parses");
        match rec {
            JobRecord::Submitted { id, idem, .. } => {
                assert_eq!(id, 7);
                assert_eq!(idem, None);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        let old_completed = r#"{"Completed":{"id":7,"scheduler":"catbatch","makespan":"5","events":12,"ratio_to_lb":1.5}}"#;
        let rec: JobRecord = serde_json::from_str(old_completed).expect("old Completed parses");
        match rec {
            JobRecord::Completed { id, tasks, procs, lower_bound, peak_ready, .. } => {
                assert_eq!(id, 7);
                assert_eq!((tasks, procs, lower_bound, peak_ready), (None, None, None, None));
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn aggregates_are_order_independent_and_dedup_replays() {
        let a = [completed(1), completed(2)];
        let b = [completed(2), completed(1), completed(1)];
        assert_eq!(aggregate(&a), aggregate(&b));
        let c = [completed(1), completed(3)];
        assert_ne!(aggregate(&a).fingerprint, aggregate(&c).fingerprint);
    }
}
