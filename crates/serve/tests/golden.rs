//! Golden bytes of the serve journal (`catbatch-serve-journal/v1`).
//!
//! A daemon restarted by a newer binary replays the journal an older
//! one wrote, so the file format is pinned byte for byte: the header
//! line, every record variant, and `Option` fields both present and
//! absent (absent ones are written as `null`).

use rigid_serve::journal::JobRecord;
use rigid_serve::ServeJournal;
use std::io::Write;
use std::path::PathBuf;

fn temp(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "catbatch-serve-golden-{}-{tag}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn records() -> Vec<JobRecord> {
    vec![
        JobRecord::Submitted {
            id: 1,
            scheduler: "catbatch".into(),
            fingerprint: 0xdead_beef,
            instance: "procs 2\ntask a 1 2\n".into(),
            idem: Some(77),
        },
        JobRecord::Submitted {
            id: 2,
            scheduler: "list-fifo".into(),
            fingerprint: 5,
            instance: "procs 1\n".into(),
            idem: None,
        },
        JobRecord::Completed {
            id: 1,
            scheduler: "catbatch".into(),
            makespan: "5/2".into(),
            events: 12,
            ratio_to_lb: 1.25,
            tasks: Some(4),
            procs: Some(2),
            lower_bound: Some("2".into()),
            peak_ready: Some(3),
        },
        JobRecord::Completed {
            id: 2,
            scheduler: "list-fifo".into(),
            makespan: "0".into(),
            events: 0,
            ratio_to_lb: 1.0,
            tasks: None,
            procs: None,
            lower_bound: None,
            peak_ready: None,
        },
        JobRecord::Failed { id: 3, scheduler: "strip".into(), kind: "timeout".into() },
    ]
}

const GOLDEN: &str = concat!(
    r#"{"schema":"catbatch-serve-journal/v1"}"#,
    "\n",
    r#"{"Submitted":{"id":1,"scheduler":"catbatch","fingerprint":3735928559,"instance":"procs 2\ntask a 1 2\n","idem":77}}"#,
    "\n",
    r#"{"Submitted":{"id":2,"scheduler":"list-fifo","fingerprint":5,"instance":"procs 1\n","idem":null}}"#,
    "\n",
    r#"{"Completed":{"id":1,"scheduler":"catbatch","makespan":"5/2","events":12,"ratio_to_lb":1.25,"tasks":4,"procs":2,"lower_bound":"2","peak_ready":3}}"#,
    "\n",
    r#"{"Completed":{"id":2,"scheduler":"list-fifo","makespan":"0","events":0,"ratio_to_lb":1,"tasks":null,"procs":null,"lower_bound":null,"peak_ready":null}}"#,
    "\n",
    r#"{"Failed":{"id":3,"scheduler":"strip","kind":"timeout"}}"#,
    "\n",
);

#[test]
fn serve_journal_bytes_are_pinned() {
    let path = temp("write");
    let (journal, _) = ServeJournal::open(&path).expect("create");
    let tx = journal.sender();
    for rec in records() {
        tx.record(rec);
    }
    journal.close();
    assert_eq!(std::fs::read_to_string(&path).expect("read back"), GOLDEN);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn reopening_over_a_torn_tail_restores_the_pinned_bytes() {
    let path = temp("torn");
    std::fs::write(&path, GOLDEN).expect("seed journal");
    let mut f = std::fs::OpenOptions::new().append(true).open(&path).expect("open");
    f.write_all(br#"{"Completed":{"id":1,"#).expect("torn write");
    drop(f);

    let (journal, state) = ServeJournal::open(&path).expect("reopen over torn tail");
    assert!(state.torn_tail);
    assert!(state.pending.is_empty(), "jobs 1 and 2 completed");
    assert_eq!(state.terminal.len(), 3);
    journal.close();
    assert_eq!(std::fs::read_to_string(&path).expect("read back"), GOLDEN);
    let _ = std::fs::remove_file(&path);
}
