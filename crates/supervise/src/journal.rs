//! The workspace's one append-only record log, and the campaign journal
//! (`catbatch-journal/v1`, shard `/v2`) built on it.
//!
//! A record log is a JSONL file: one header line carrying a `schema`
//! field, then one record per line. [`JournalWriter`] is its only
//! writer and [`read_log`] its only reader. The campaign journal (this
//! module), the serve journal (`rigid_serve::journal`) and the bench
//! scenario journal (`rigid_bench::perf`) are each a header type, a
//! record type and the fold that replays the records; this module alone
//! decides how they reach the disk:
//!
//! * **Header.** Written and fsynced before any record. On read, its
//!   `schema` must be one the caller accepts
//!   ([`JournalError::SchemaMismatch`] otherwise).
//! * **Torn tail.** A crash can leave an unterminated fragment, or a
//!   final line that does not parse. Both are dropped on read and cut
//!   off by [`JournalWriter::append_validated`] before the first append,
//!   so a new record starts on its own line. Damage anywhere earlier is
//!   [`JournalError::Corrupt`].
//! * **One `write` per record**, so a record survives a process kill as
//!   soon as the call returns.
//! * **Group commit.** [`JournalWriter::record`] fsyncs every record.
//!   [`JournalWriter::record_buffered`] leaves the fsync to
//!   [`commit_if_due`](JournalWriter::commit_if_due) (once
//!   [`GROUP_COMMIT_RECORDS`] records are pending or the oldest has
//!   waited [`GROUP_COMMIT_DEADLINE`]) or to
//!   [`sync`](JournalWriter::sync). A power loss costs at most the
//!   unsynced suffix, which the torn-tail rule and resume absorb.
//!
//! Campaign records are [`TrialStats`] serialized verbatim: replaying a
//! record *is* re-obtaining the trial's result, which is what makes
//! resumed aggregates byte-identical. The campaign header pins the
//! schema version and a stable fingerprint of `(instance, fault config,
//! scheduler, budget)`, so resuming against a journal written for a
//! different scenario is a typed error, not a silently mixed data set.

use rigid_faults::TrialStats;
use rigid_time::Time;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The journal schema this crate writes and reads.
pub const JOURNAL_SCHEMA: &str = "catbatch-journal/v1";

/// The schema of a **shard** journal: a v1 header plus the shard
/// coordinates (`shard_index`/`shard_count`/seed range) pinned so
/// `merge` can validate that a set of shard files belongs together.
/// Plain (unsharded) journals keep the v1 schema byte-for-byte.
pub const SHARD_SCHEMA: &str = "catbatch-journal/v2";

/// The schemas [`read_journal`] accepts.
const CAMPAIGN_SCHEMAS: &[&str] = &[JOURNAL_SCHEMA, SHARD_SCHEMA];

/// Group commit: buffered records are fsynced once this many are
/// pending…
pub const GROUP_COMMIT_RECORDS: usize = 64;

/// …or once the oldest pending record has waited this long, whichever
/// comes first.
pub const GROUP_COMMIT_DEADLINE: Duration = Duration::from_millis(25);

/// The first line of every journal.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// [`JOURNAL_SCHEMA`] for plain journals, [`SHARD_SCHEMA`] for
    /// shard journals.
    pub schema: String,
    /// Stable hex fingerprint of the campaign scenario (see
    /// [`campaign_fingerprint`](crate::campaign_fingerprint)).
    pub fingerprint: String,
    /// Name of the scheduler under test.
    pub scheduler: String,
    /// Makespan of the fault-free baseline run, stored so a resumed
    /// campaign does not recompute it.
    pub fault_free_makespan: Time,
}

/// The shard coordinates a [`SHARD_SCHEMA`] header pins: which slice of
/// the deduplicated seed space this file covers, out of how many.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardInfo {
    /// 1-based shard index.
    pub index: usize,
    /// Total number of shards in the plan.
    pub count: usize,
    /// First seed assigned to this shard (`0` when the slice is empty).
    pub seed_first: u64,
    /// Last seed assigned to this shard (`0` when the slice is empty).
    pub seed_last: u64,
    /// How many seeds the shard covers.
    pub seed_count: usize,
    /// Stable hex fingerprint of the assigned seed sequence — pins the
    /// exact slice without storing every seed in the header.
    pub seeds_fp: String,
}

impl fmt::Display for ShardInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard {}/{} ({} seed(s), fp {})",
            self.index, self.count, self.seed_count, self.seeds_fp
        )
    }
}

/// The on-disk shape of a [`SHARD_SCHEMA`] header line: every v1 field
/// followed by the shard coordinates, as one flat object. Kept separate
/// from [`JournalHeader`] so plain v1 headers serialize without any
/// shard fields (the vendored serde stub cannot skip `None`s).
#[derive(Serialize, Deserialize)]
struct ShardHeaderLine {
    schema: String,
    fingerprint: String,
    scheduler: String,
    fault_free_makespan: Time,
    shard_index: usize,
    shard_count: usize,
    seed_first: u64,
    seed_last: u64,
    seed_count: usize,
    seeds_fp: String,
}

/// The one field every header line shares, read before the header's
/// own type.
#[derive(Deserialize)]
struct SchemaTag {
    schema: String,
}

/// Why a journal could not be written or read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalError {
    /// An I/O failure (path and OS message).
    Io {
        /// The offending path.
        path: String,
        /// The OS error message.
        message: String,
    },
    /// The file has no header line.
    MissingHeader,
    /// The header names a schema the reader does not speak.
    SchemaMismatch {
        /// The schema string found in the file.
        found: String,
        /// The schemas the reader accepts.
        expected: &'static [&'static str],
    },
    /// The journal was written for a different scenario.
    FingerprintMismatch {
        /// Fingerprint in the journal header.
        journal: String,
        /// Fingerprint of the campaign trying to resume.
        campaign: String,
    },
    /// A non-final line failed to parse — the file is damaged beyond
    /// the torn-tail tolerance.
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// The parse error.
        message: String,
    },
    /// The journal's shard header does not match the shard this
    /// campaign was asked to run (or one side is sharded and the other
    /// is not).
    ShardMismatch {
        /// Shard coordinates pinned in the journal ("unsharded" if none).
        journal: String,
        /// Shard coordinates of the resuming campaign.
        campaign: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, message } => write!(f, "journal {path}: {message}"),
            JournalError::MissingHeader => write!(f, "journal has no header line"),
            JournalError::SchemaMismatch { found, expected } => write!(
                f,
                "journal schema {found:?} is not {} — written by an incompatible version \
                 or another tool",
                expected
                    .iter()
                    .map(|s| format!("{s:?}"))
                    .collect::<Vec<_>>()
                    .join(" or ")
            ),
            JournalError::FingerprintMismatch { journal, campaign } => write!(
                f,
                "journal was written for scenario {journal} but this campaign is {campaign} \
                 (instance, fault config, scheduler, or budget differ)"
            ),
            JournalError::Corrupt { line, message } => {
                write!(f, "journal line {line} is corrupt: {message}")
            }
            JournalError::ShardMismatch { journal, campaign } => write!(
                f,
                "journal was written as {journal} but this campaign runs {campaign} — \
                 each shard must resume its own journal file"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

fn io_err(path: &Path, e: impl fmt::Display) -> JournalError {
    JournalError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// Appends records to a journal: one `write` per record, fsynced per
/// record ([`record`](Self::record)) or by group commit.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    path: PathBuf,
    /// Records written since the last fsync.
    pending: usize,
    /// When the oldest of them was written.
    oldest: Option<Instant>,
}

impl JournalWriter {
    fn over(file: File, path: &Path) -> Self {
        JournalWriter {
            file,
            path: path.to_path_buf(),
            pending: 0,
            oldest: None,
        }
    }

    /// Creates (truncating) a log at `path` whose first line is
    /// `header`, fsynced before this returns.
    pub fn create<H: Serialize>(path: &Path, header: &H) -> Result<Self, JournalError> {
        let file = File::create(path).map_err(|e| io_err(path, e))?;
        let mut w = JournalWriter::over(file, path);
        w.record(header)?;
        Ok(w)
    }

    /// Creates (truncating) a fresh **shard** journal: a
    /// [`SHARD_SCHEMA`] header carrying the v1 fields plus the shard
    /// coordinates. `header.schema` is ignored — shard files always get
    /// [`SHARD_SCHEMA`].
    pub fn create_shard(
        path: &Path,
        header: &JournalHeader,
        shard: &ShardInfo,
    ) -> Result<Self, JournalError> {
        let line = ShardHeaderLine {
            schema: SHARD_SCHEMA.to_string(),
            fingerprint: header.fingerprint.clone(),
            scheduler: header.scheduler.clone(),
            fault_free_makespan: header.fault_free_makespan,
            shard_index: shard.index,
            shard_count: shard.count,
            seed_first: shard.seed_first,
            seed_last: shard.seed_last,
            seed_count: shard.seed_count,
            seeds_fp: shard.seeds_fp.clone(),
        };
        Self::create(path, &line)
    }

    /// Opens a log that [`read_log`] validated, for appending: first
    /// truncates the torn tail the read found, so the next record starts
    /// on its own line instead of merging into the crash artifact.
    pub fn append_validated<H, R>(
        path: &Path,
        log: &RecordLog<H, R>,
    ) -> Result<Self, JournalError> {
        let open = || -> std::io::Result<File> {
            if log.torn_tail {
                let file = OpenOptions::new().write(true).open(path)?;
                file.set_len(log.valid_len)?;
                file.sync_data()?;
            }
            OpenOptions::new().append(true).open(path)
        };
        Ok(JournalWriter::over(
            open().map_err(|e| io_err(path, e))?,
            path,
        ))
    }

    /// Appends one record and fsyncs it before returning — after this
    /// call the record survives a crash.
    pub fn record<R: Serialize>(&mut self, record: &R) -> Result<(), JournalError> {
        self.record_buffered(record)?;
        self.sync()
    }

    /// Appends one record **without** fsyncing: the bytes reach the
    /// kernel (surviving a process kill) but not necessarily the disk.
    /// [`commit_if_due`](Self::commit_if_due) or [`sync`](Self::sync)
    /// makes them durable.
    pub fn record_buffered<R: Serialize>(&mut self, record: &R) -> Result<(), JournalError> {
        let mut line = serde_json::to_string(record).map_err(|e| io_err(&self.path, e))?;
        line.push('\n');
        self.file
            .write_all(line.as_bytes())
            .map_err(|e| io_err(&self.path, e))?;
        self.pending += 1;
        self.oldest.get_or_insert_with(Instant::now);
        Ok(())
    }

    /// Fsyncs the pending records if the group-commit policy says so:
    /// [`GROUP_COMMIT_RECORDS`] are pending, or the oldest has waited
    /// [`GROUP_COMMIT_DEADLINE`].
    pub fn commit_if_due(&mut self) -> Result<(), JournalError> {
        let due = self.pending >= GROUP_COMMIT_RECORDS
            || self
                .oldest
                .is_some_and(|t| t.elapsed() >= GROUP_COMMIT_DEADLINE);
        if due {
            self.sync()
        } else {
            Ok(())
        }
    }

    /// Fsyncs every pending record. A no-op when nothing is pending.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        if self.pending > 0 {
            self.file.sync_data().map_err(|e| io_err(&self.path, e))?;
            self.pending = 0;
            self.oldest = None;
        }
        Ok(())
    }
}

/// A record log as [`read_log`] found it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordLog<H, R> {
    /// The header line.
    pub header: H,
    /// Every intact record, in file order.
    pub records: Vec<R>,
    /// Whether trailing crash damage (an unterminated fragment or a
    /// garbled final line) was dropped.
    pub torn_tail: bool,
    /// Length in bytes of the intact prefix; everything past it is the
    /// torn tail [`JournalWriter::append_validated`] truncates.
    valid_len: u64,
}

/// Reads a record log whose header `schema` is one of `schemas`.
///
/// Tolerates exactly the damage a kill can cause — a final line without
/// its newline, or a final line that does not parse — and rejects
/// everything else as typed [`JournalError`]s.
pub fn read_log<H: Deserialize, R: Deserialize>(
    path: &Path,
    schemas: &'static [&'static str],
) -> Result<RecordLog<H, R>, JournalError> {
    read_with(path, schemas, |_, line| parse_header(line))
}

/// Parses a header line whose schema is already checked; a missing
/// field is damage to line 1.
fn parse_header<H: Deserialize>(line: &str) -> Result<H, JournalError> {
    serde_json::from_str(line).map_err(|e| JournalError::Corrupt {
        line: 1,
        message: format!("header: {e}"),
    })
}

/// [`read_log`] with a caller-parsed header: `header` gets the checked
/// schema and the header line's text.
fn read_with<H, R: Deserialize>(
    path: &Path,
    schemas: &'static [&'static str],
    header: impl FnOnce(&str, &str) -> Result<H, JournalError>,
) -> Result<RecordLog<H, R>, JournalError> {
    let text = std::fs::read_to_string(path).map_err(|e| io_err(path, e))?;
    // The complete (newline-terminated, non-blank) lines: 1-based line
    // number, trimmed text, and the byte offset just past the newline.
    // An unterminated trailing fragment is never parsed.
    let mut lines = Vec::new();
    let mut end = 0;
    for (i, l) in text.split_inclusive('\n').enumerate() {
        end += l.len();
        if l.ends_with('\n') && !l.trim().is_empty() {
            lines.push((i + 1, l.trim(), end as u64));
        }
    }
    let Some(&(_, first, header_end)) = lines.first() else {
        return Err(JournalError::MissingHeader);
    };
    let tag: SchemaTag = serde_json::from_str(first).map_err(|_| JournalError::MissingHeader)?;
    if !schemas.contains(&tag.schema.as_str()) {
        return Err(JournalError::SchemaMismatch {
            found: tag.schema,
            expected: schemas,
        });
    }
    let mut log = RecordLog {
        header: header(&tag.schema, first)?,
        records: Vec::new(),
        torn_tail: !text.is_empty() && !text.ends_with('\n'),
        valid_len: header_end,
    };
    // A record that fails to parse is a tolerated crash artifact iff it
    // is the final complete line (a torn write that happened to end in
    // '\n'); any earlier failure is real damage.
    let body = &lines[1..];
    for (pos, &(lineno, line, end)) in body.iter().enumerate() {
        match serde_json::from_str(line) {
            Ok(record) => {
                log.records.push(record);
                log.valid_len = end;
            }
            Err(_) if pos + 1 == body.len() => log.torn_tail = true,
            Err(e) => {
                return Err(JournalError::Corrupt {
                    line: lineno,
                    message: e.to_string(),
                })
            }
        }
    }
    Ok(log)
}

/// A parsed campaign journal: the header, every intact trial record in
/// file order, and whether a torn trailing line was discarded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalContents {
    /// The header line.
    pub header: JournalHeader,
    /// Shard coordinates when the header is a [`SHARD_SCHEMA`] one;
    /// `None` for plain v1 journals.
    pub shard: Option<ShardInfo>,
    /// Trial records, in the order they were written (duplicate seeds
    /// possible if a campaign was resumed with overlapping seed lists;
    /// the campaign layer keeps the first).
    pub trials: Vec<TrialStats>,
    /// Whether a torn trailing line (crash artifact) was discarded.
    pub torn_tail: bool,
}

type CampaignLog = RecordLog<(JournalHeader, Option<ShardInfo>), TrialStats>;

fn read_campaign(path: &Path) -> Result<CampaignLog, JournalError> {
    read_with(path, CAMPAIGN_SCHEMAS, |schema, line| {
        let header: JournalHeader = parse_header(line)?;
        if schema == JOURNAL_SCHEMA {
            return Ok((header, None));
        }
        let line: ShardHeaderLine = parse_header(line)?;
        let shard = ShardInfo {
            index: line.shard_index,
            count: line.shard_count,
            seed_first: line.seed_first,
            seed_last: line.seed_last,
            seed_count: line.seed_count,
            seeds_fp: line.seeds_fp,
        };
        Ok((header, Some(shard)))
    })
}

impl From<CampaignLog> for JournalContents {
    fn from(log: CampaignLog) -> Self {
        let (header, shard) = log.header;
        JournalContents {
            header,
            shard,
            trials: log.records,
            torn_tail: log.torn_tail,
        }
    }
}

/// Reads and validates a campaign journal (plain v1 or shard v2), with
/// the torn-tail tolerance of [`read_log`].
pub fn read_journal(path: &Path) -> Result<JournalContents, JournalError> {
    read_campaign(path).map(JournalContents::from)
}

/// Opens the journal of a campaign-shaped run (a fault campaign, a
/// worst-case hunt) for appending — the one resume path both share.
///
/// With `resume` and an existing file: reads it, checks its fingerprint
/// and shard coordinates against the run's, and appends after its
/// intact prefix; the contents carry the records to replay. Otherwise
/// creates a fresh v1 journal, or a v2 one with `shard`, whose header
/// takes the fault-free makespan from `baseline` (called only then),
/// and returns empty contents.
pub fn open_campaign_journal<E: From<JournalError>>(
    path: &Path,
    resume: bool,
    fingerprint: &str,
    scheduler: &str,
    shard: Option<&ShardInfo>,
    baseline: impl FnOnce() -> Result<Time, E>,
) -> Result<(JournalWriter, JournalContents), E> {
    if resume && path.exists() {
        let log = read_campaign(path)?;
        let (header, journal_shard) = &log.header;
        if header.fingerprint != fingerprint {
            return Err(JournalError::FingerprintMismatch {
                journal: header.fingerprint.clone(),
                campaign: fingerprint.to_string(),
            }
            .into());
        }
        if journal_shard.as_ref() != shard {
            let describe =
                |s: Option<&ShardInfo>| s.map_or("unsharded".to_string(), ToString::to_string);
            return Err(JournalError::ShardMismatch {
                journal: describe(journal_shard.as_ref()),
                campaign: describe(shard),
            }
            .into());
        }
        let writer = JournalWriter::append_validated(path, &log)?;
        return Ok((writer, log.into()));
    }
    let header = JournalHeader {
        schema: if shard.is_some() {
            SHARD_SCHEMA
        } else {
            JOURNAL_SCHEMA
        }
        .to_string(),
        fingerprint: fingerprint.to_string(),
        scheduler: scheduler.to_string(),
        fault_free_makespan: baseline()?,
    };
    let writer = match shard {
        Some(info) => JournalWriter::create_shard(path, &header, info)?,
        None => JournalWriter::create(path, &header)?,
    };
    let contents = JournalContents {
        header,
        shard: shard.cloned(),
        trials: Vec::new(),
        torn_tail: false,
    };
    Ok((writer, contents))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rigid_faults::TrialError;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique temp path per call; removed by [`TempFile::drop`].
    pub(crate) struct TempFile(pub PathBuf);

    impl TempFile {
        pub(crate) fn new(tag: &str) -> Self {
            static N: AtomicU64 = AtomicU64::new(0);
            let n = N.fetch_add(1, Ordering::SeqCst);
            let path = std::env::temp_dir().join(format!(
                "catbatch-journal-test-{}-{tag}-{n}.jsonl",
                std::process::id()
            ));
            TempFile(path)
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn header() -> JournalHeader {
        JournalHeader {
            schema: JOURNAL_SCHEMA.to_string(),
            fingerprint: "deadbeefdeadbeef".to_string(),
            scheduler: "catbatch".to_string(),
            fault_free_makespan: Time::from_int(15),
        }
    }

    fn trial(seed: u64) -> TrialStats {
        TrialStats {
            seed,
            outcome: if seed.is_multiple_of(2) {
                Ok(Time::from_int(seed as i64 + 20))
            } else {
                Err(TrialError::Panicked {
                    message: format!("boom {seed}"),
                })
            },
            failures: seed,
            wasted_area: Time::from_int(seed as i64),
            inflated_area: Time::ZERO,
            min_capacity: 8,
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let tmp = TempFile::new("roundtrip");
        let mut w = JournalWriter::create(&tmp.0, &header()).unwrap();
        for seed in 0..5 {
            w.record(&trial(seed)).unwrap();
        }
        let j = read_journal(&tmp.0).unwrap();
        assert_eq!(j.header, header());
        assert_eq!(j.shard, None, "a plain journal carries no shard info");
        assert_eq!(j.trials, (0..5).map(trial).collect::<Vec<_>>());
        assert!(!j.torn_tail);
    }

    fn shard_info() -> ShardInfo {
        ShardInfo {
            index: 2,
            count: 3,
            seed_first: 10,
            seed_last: 12,
            seed_count: 3,
            seeds_fp: "00ffee1122334455".to_string(),
        }
    }

    #[test]
    fn shard_header_roundtrips() {
        let tmp = TempFile::new("shard");
        let mut w = JournalWriter::create_shard(&tmp.0, &header(), &shard_info()).unwrap();
        w.record(&trial(10)).unwrap();
        let j = read_journal(&tmp.0).unwrap();
        assert_eq!(j.header.schema, SHARD_SCHEMA);
        assert_eq!(j.header.fingerprint, header().fingerprint);
        assert_eq!(j.header.fault_free_makespan, header().fault_free_makespan);
        assert_eq!(j.shard, Some(shard_info()));
        assert_eq!(j.trials, vec![trial(10)]);
    }

    #[test]
    fn shard_header_without_shard_fields_is_corrupt() {
        // A v2 schema string on a line with no shard coordinates is
        // damage, not a tolerable variant.
        let tmp = TempFile::new("shard-incomplete");
        JournalWriter::create(&tmp.0, &header()).unwrap();
        let text = std::fs::read_to_string(&tmp.0)
            .unwrap()
            .replace(JOURNAL_SCHEMA, SHARD_SCHEMA);
        std::fs::write(&tmp.0, text).unwrap();
        assert!(matches!(
            read_journal(&tmp.0),
            Err(JournalError::Corrupt { line: 1, .. })
        ));
    }

    #[test]
    fn shard_journal_tolerates_torn_tail_like_v1() {
        let tmp = TempFile::new("shard-torn");
        let mut w = JournalWriter::create_shard(&tmp.0, &header(), &shard_info()).unwrap();
        w.record(&trial(10)).unwrap();
        drop(w);
        let mut text = std::fs::read_to_string(&tmp.0).unwrap();
        text.push_str("{\"seed\":11,\"outco");
        std::fs::write(&tmp.0, text).unwrap();
        let j = read_journal(&tmp.0).unwrap();
        assert_eq!(j.trials.len(), 1);
        assert!(j.torn_tail);
        assert_eq!(j.shard, Some(shard_info()));
    }

    #[test]
    fn append_resumes_the_same_file() {
        let tmp = TempFile::new("append");
        let mut w = JournalWriter::create(&tmp.0, &header()).unwrap();
        w.record(&trial(1)).unwrap();
        drop(w);
        let log = read_campaign(&tmp.0).unwrap();
        let mut w = JournalWriter::append_validated(&tmp.0, &log).unwrap();
        w.record(&trial(2)).unwrap();
        let j = read_journal(&tmp.0).unwrap();
        assert_eq!(j.trials.len(), 2);
    }

    #[test]
    fn buffered_batch_plus_sync_equals_per_record_fsync_bytes() {
        // Group commit changes durability timing, never file contents.
        let synced = TempFile::new("gc-synced");
        let mut w = JournalWriter::create(&synced.0, &header()).unwrap();
        for seed in 0..10 {
            w.record(&trial(seed)).unwrap();
        }
        drop(w);

        let batched = TempFile::new("gc-batched");
        let mut w = JournalWriter::create(&batched.0, &header()).unwrap();
        for seed in 0..10 {
            w.record_buffered(&trial(seed)).unwrap();
            if seed % 4 == 3 {
                w.sync().unwrap();
            }
        }
        w.sync().unwrap();
        drop(w);

        assert_eq!(
            std::fs::read(&synced.0).unwrap(),
            std::fs::read(&batched.0).unwrap(),
            "group-committed journal must be byte-identical"
        );
    }

    #[test]
    fn torn_batch_tail_discards_only_the_torn_suffix() {
        // A crash mid-batch: some buffered records made it to disk whole,
        // the last one only partially. Reading back keeps every intact
        // record — including unsynced-but-complete ones — and discards
        // exactly the torn suffix, so resume re-executes only that trial.
        let tmp = TempFile::new("gc-torn-batch");
        let mut w = JournalWriter::create(&tmp.0, &header()).unwrap();
        w.record_buffered(&trial(1)).unwrap();
        w.sync().unwrap();
        // An unsynced batch of two whole records...
        w.record_buffered(&trial(2)).unwrap();
        w.record_buffered(&trial(3)).unwrap();
        drop(w);
        // ...followed by a torn half-record from the crash instant.
        let mut text = std::fs::read_to_string(&tmp.0).unwrap();
        text.push_str("{\"seed\":4,\"outcome\":{\"O");
        std::fs::write(&tmp.0, text).unwrap();

        let j = read_journal(&tmp.0).unwrap();
        assert_eq!(j.trials, vec![trial(1), trial(2), trial(3)]);
        assert!(j.torn_tail, "the torn suffix is a tolerated crash artifact");

        // The journal is resumable: append_validated truncates the torn
        // fragment, so the re-executed trial's record starts on its own
        // line and the next read sees a fully intact journal.
        let log = read_campaign(&tmp.0).unwrap();
        let mut w = JournalWriter::append_validated(&tmp.0, &log).unwrap();
        w.record(&trial(4)).unwrap();
        drop(w);
        let j = read_journal(&tmp.0).unwrap();
        assert_eq!(j.trials, vec![trial(1), trial(2), trial(3), trial(4)]);
        assert!(!j.torn_tail, "truncation removed the crash artifact");
    }

    #[test]
    fn torn_tail_without_newline_is_discarded() {
        let tmp = TempFile::new("torn");
        let mut w = JournalWriter::create(&tmp.0, &header()).unwrap();
        w.record(&trial(1)).unwrap();
        drop(w);
        // Simulate a crash mid-write: half a record, no newline.
        let mut text = std::fs::read_to_string(&tmp.0).unwrap();
        text.push_str("{\"seed\":2,\"outco");
        std::fs::write(&tmp.0, text).unwrap();
        let j = read_journal(&tmp.0).unwrap();
        assert_eq!(j.trials.len(), 1);
        assert!(j.torn_tail);
    }

    #[test]
    fn garbled_final_line_is_torn_not_corrupt() {
        let tmp = TempFile::new("garbled");
        let mut w = JournalWriter::create(&tmp.0, &header()).unwrap();
        w.record(&trial(1)).unwrap();
        drop(w);
        let mut text = std::fs::read_to_string(&tmp.0).unwrap();
        text.push_str("{\"seed\":2}\n");
        std::fs::write(&tmp.0, text).unwrap();
        let j = read_journal(&tmp.0).unwrap();
        assert_eq!(j.trials.len(), 1);
        assert!(j.torn_tail);
    }

    #[test]
    fn garbled_middle_line_is_corrupt() {
        let tmp = TempFile::new("corrupt");
        let mut w = JournalWriter::create(&tmp.0, &header()).unwrap();
        w.record(&trial(1)).unwrap();
        drop(w);
        let mut text = std::fs::read_to_string(&tmp.0).unwrap();
        text.push_str("not json at all\n");
        text.push_str(&serde_json::to_string(&trial(3)).unwrap());
        text.push('\n');
        std::fs::write(&tmp.0, text).unwrap();
        assert!(matches!(
            read_journal(&tmp.0),
            Err(JournalError::Corrupt { line: 3, .. })
        ));
    }

    #[test]
    fn wrong_schema_is_typed() {
        let tmp = TempFile::new("schema");
        let mut h = header();
        h.schema = "catbatch-journal/v999".to_string();
        JournalWriter::create(&tmp.0, &h).unwrap();
        assert_eq!(
            read_journal(&tmp.0),
            Err(JournalError::SchemaMismatch {
                found: "catbatch-journal/v999".to_string(),
                expected: CAMPAIGN_SCHEMAS,
            })
        );
    }

    #[test]
    fn read_log_checks_the_schema_of_any_header_type() {
        #[derive(Debug, PartialEq, Serialize, Deserialize)]
        struct Header {
            schema: String,
            quick: bool,
        }
        const SCHEMAS: &[&str] = &["test-log/v1"];
        let tmp = TempFile::new("generic");
        let header = Header {
            schema: "test-log/v1".to_string(),
            quick: true,
        };
        let mut w = JournalWriter::create(&tmp.0, &header).unwrap();
        w.record(&7u64).unwrap();
        w.record(&8u64).unwrap();
        drop(w);
        let log: RecordLog<Header, u64> = read_log(&tmp.0, SCHEMAS).unwrap();
        assert_eq!(
            (log.header, log.records, log.torn_tail),
            (header, vec![7, 8], false)
        );
        assert_eq!(
            read_log::<Header, u64>(&tmp.0, CAMPAIGN_SCHEMAS),
            Err(JournalError::SchemaMismatch {
                found: "test-log/v1".to_string(),
                expected: CAMPAIGN_SCHEMAS,
            })
        );
    }

    #[test]
    fn commit_if_due_follows_the_group_commit_policy() {
        let tmp = TempFile::new("gc-policy");
        let mut w = JournalWriter::create(&tmp.0, &header()).unwrap();
        assert_eq!(w.pending, 0, "the header is synced on create");
        for seed in 0..GROUP_COMMIT_RECORDS as u64 - 1 {
            w.record_buffered(&trial(seed)).unwrap();
            w.commit_if_due().unwrap();
        }
        assert_eq!(
            w.pending,
            GROUP_COMMIT_RECORDS - 1,
            "below the batch size, not due yet"
        );
        w.record_buffered(&trial(99)).unwrap();
        w.commit_if_due().unwrap();
        assert_eq!(w.pending, 0, "a full batch commits");

        w.record_buffered(&trial(100)).unwrap();
        w.commit_if_due().unwrap();
        assert_eq!(w.pending, 1);
        w.oldest = Some(Instant::now() - GROUP_COMMIT_DEADLINE);
        w.commit_if_due().unwrap();
        assert_eq!(
            (w.pending, w.oldest),
            (0, None),
            "a stale record commits alone"
        );
    }

    #[test]
    fn resume_checks_fingerprint_and_shard_before_repairing_the_tail() {
        let tmp = TempFile::new("resume-checks");
        let mut w = JournalWriter::create(&tmp.0, &header()).unwrap();
        w.record(&trial(1)).unwrap();
        drop(w);
        let mut text = std::fs::read_to_string(&tmp.0).unwrap();
        text.push_str("{\"seed\":2,");
        std::fs::write(&tmp.0, &text).unwrap();
        let no_baseline = || -> Result<Time, JournalError> { panic!("a resume needs no baseline") };

        let foreign = open_campaign_journal(&tmp.0, true, "0000", "catbatch", None, no_baseline);
        assert!(matches!(
            foreign,
            Err(JournalError::FingerprintMismatch { .. })
        ));
        let sharded = open_campaign_journal(
            &tmp.0,
            true,
            &header().fingerprint,
            "catbatch",
            Some(&shard_info()),
            no_baseline,
        );
        assert!(matches!(sharded, Err(JournalError::ShardMismatch { .. })));
        assert_eq!(
            std::fs::read_to_string(&tmp.0).unwrap(),
            text,
            "a refused resume writes nothing"
        );

        let (mut w, contents) = open_campaign_journal(
            &tmp.0,
            true,
            &header().fingerprint,
            "catbatch",
            None,
            no_baseline,
        )
        .unwrap();
        assert_eq!(
            (contents.trials, contents.torn_tail),
            (vec![trial(1)], true)
        );
        w.record(&trial(2)).unwrap();
        assert_eq!(
            read_journal(&tmp.0).unwrap().trials,
            vec![trial(1), trial(2)]
        );
    }

    #[test]
    fn empty_file_is_missing_header() {
        let tmp = TempFile::new("empty");
        std::fs::write(&tmp.0, "").unwrap();
        assert_eq!(read_journal(&tmp.0), Err(JournalError::MissingHeader));
    }

    #[test]
    fn missing_file_is_io_error() {
        let tmp = TempFile::new("missing");
        assert!(matches!(read_journal(&tmp.0), Err(JournalError::Io { .. })));
    }
}
