//! Golden bytes of the campaign journal formats.
//!
//! Each test writes a journal from fixed inputs and compares the file
//! against the exact bytes a `catbatch-journal/v1` (plain) or
//! `catbatch-journal/v2` (shard) file must hold. Journals outlive the
//! binary that wrote them — resume, `merge` and audit tooling read old
//! files — so any change to these bytes is a format change, not a
//! refactor.

use rigid_faults::{TrialError, TrialStats};
use rigid_sim::{BudgetKind, RunError};
use rigid_supervise::{JournalHeader, JournalWriter, ShardInfo, JOURNAL_SCHEMA};
use rigid_time::Time;
use std::path::PathBuf;

fn temp(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "catbatch-golden-{}-{tag}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn header() -> JournalHeader {
    JournalHeader {
        schema: JOURNAL_SCHEMA.to_string(),
        fingerprint: "0123456789abcdef".to_string(),
        scheduler: "CatBatch".to_string(),
        fault_free_makespan: Time::from_ratio(31, 2),
    }
}

/// One record per outcome shape a campaign journals.
fn trials() -> Vec<TrialStats> {
    let stats = |seed, outcome| TrialStats {
        seed,
        outcome,
        failures: seed % 3,
        wasted_area: Time::from_ratio(seed as i64, 4),
        inflated_area: Time::ZERO,
        min_capacity: 8,
    };
    vec![
        stats(1, Ok(Time::from_int(17))),
        stats(2, Err(TrialError::Panicked { message: "boom \"2\"".to_string() })),
        stats(3, Err(TrialError::TimedOut { limit_ms: 250 })),
        stats(4, Err(TrialError::Quarantined { attempts: 3 })),
        stats(
            5,
            Err(TrialError::Run(RunError::BudgetExceeded {
                exceeded: BudgetKind::Events { limit: 40 },
                events: 41,
                at: Time::from_ratio(9, 8),
            })),
        ),
    ]
}

const TRIAL_LINES: &str = concat!(
    r#"{"seed":1,"outcome":{"Ok":{"num":17,"den":1}},"failures":1,"wasted_area":{"num":1,"den":4},"inflated_area":{"num":0,"den":1},"min_capacity":8}"#,
    "\n",
    r#"{"seed":2,"outcome":{"Err":{"Panicked":{"message":"boom \"2\""}}},"failures":2,"wasted_area":{"num":1,"den":2},"inflated_area":{"num":0,"den":1},"min_capacity":8}"#,
    "\n",
    r#"{"seed":3,"outcome":{"Err":{"TimedOut":{"limit_ms":250}}},"failures":0,"wasted_area":{"num":3,"den":4},"inflated_area":{"num":0,"den":1},"min_capacity":8}"#,
    "\n",
    r#"{"seed":4,"outcome":{"Err":{"Quarantined":{"attempts":3}}},"failures":1,"wasted_area":{"num":1,"den":1},"inflated_area":{"num":0,"den":1},"min_capacity":8}"#,
    "\n",
    r#"{"seed":5,"outcome":{"Err":{"Run":{"BudgetExceeded":{"exceeded":{"Events":{"limit":40}},"events":41,"at":{"num":9,"den":8}}}}},"failures":2,"wasted_area":{"num":5,"den":4},"inflated_area":{"num":0,"den":1},"min_capacity":8}"#,
    "\n",
);

#[test]
fn campaign_v1_journal_bytes_are_pinned() {
    let path = temp("v1");
    let mut w = JournalWriter::create(&path, &header()).expect("create");
    for t in &trials() {
        w.record(t).expect("record");
    }
    drop(w);
    let expected = format!(
        "{}\n{TRIAL_LINES}",
        r#"{"schema":"catbatch-journal/v1","fingerprint":"0123456789abcdef","scheduler":"CatBatch","fault_free_makespan":{"num":31,"den":2}}"#
    );
    assert_eq!(std::fs::read_to_string(&path).expect("read back"), expected);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn shard_v2_journal_bytes_are_pinned() {
    let path = temp("v2");
    let shard = ShardInfo {
        index: 2,
        count: 3,
        seed_first: 1,
        seed_last: 5,
        seed_count: 5,
        seeds_fp: "fedcba9876543210".to_string(),
    };
    let mut w = JournalWriter::create_shard(&path, &header(), &shard).expect("create shard");
    for t in &trials() {
        w.record_buffered(t).expect("record");
    }
    w.sync().expect("sync");
    drop(w);
    let expected = format!(
        "{}\n{TRIAL_LINES}",
        concat!(
            r#"{"schema":"catbatch-journal/v2","fingerprint":"0123456789abcdef","scheduler":"CatBatch","fault_free_makespan":{"num":31,"den":2},"#,
            r#""shard_index":2,"shard_count":3,"seed_first":1,"seed_last":5,"seed_count":5,"seeds_fp":"fedcba9876543210"}"#
        )
    );
    assert_eq!(std::fs::read_to_string(&path).expect("read back"), expected);
    let _ = std::fs::remove_file(&path);
}
