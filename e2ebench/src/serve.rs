//! The daemon side: starting an in-process `rigid_serve::Daemon`,
//! driving it over client connections at a fixed arrival rate (open
//! loop) or with a fixed number of jobs in flight (closed loop), and the
//! serve layer's own public functions.

use crate::cpu;
use crate::inputs::Doc;
use crate::report::check;
use crate::trace::Tracer;
use rigid_serve::protocol::{read_frame, read_frame_timeout, write_frame, FrameError};
use rigid_serve::{
    run_one, Bind, Conn, Daemon, JobRecord, JobSpec, Request, Response, ServeJournal, ServeOptions,
    MAX_FRAME,
};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Worker count of the daemon under test.
pub const WORKERS: usize = 2;

/// How long a client waits for one response before the job counts as
/// lost.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// The daemon configuration: `WORKERS` workers, a journal, and a Unix
/// socket, both in `dir`.
pub fn options(dir: &Path) -> ServeOptions {
    ServeOptions {
        bind: Bind::Unix(dir.join("serve.sock")),
        workers: WORKERS,
        journal: Some(dir.join("serve-journal.jsonl")),
        ..ServeOptions::default()
    }
}

pub fn start(dir: &Path) -> Result<Daemon, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Daemon::start(options(dir))
}

/// The job the client submits for a document. Jobs carry no
/// idempotency key: the daemon keeps every key's outcome for its
/// lifetime, which would tie memory use to the jobs served.
pub fn spec(doc: &Doc, id: u64) -> JobSpec {
    JobSpec {
        id,
        scheduler: "catbatch".into(),
        instance: doc.text.clone(),
        gantt: false,
        trace: false,
        idem: None,
        deadline_ms: None,
    }
}

/// How submissions are paced.
#[derive(Clone, Copy, Debug)]
pub enum Pace {
    /// A fixed total arrival rate (jobs per second) across connections.
    Open { rate: f64 },
    /// At most `window` jobs in flight per connection.
    Closed { window: usize },
}

/// One answered submission. `due` is when the job was due to be sent
/// (the send time itself in a closed loop).
pub struct Done {
    pub doc: usize,
    pub id: u64,
    pub due: Instant,
    pub sent: Instant,
    pub recv: Instant,
    pub response: Response,
}

impl Done {
    pub fn latency_ms(&self) -> f64 {
        self.recv.duration_since(self.due).as_secs_f64() * 1e3
    }

    pub fn late_ms(&self) -> f64 {
        self.sent.duration_since(self.due).as_secs_f64() * 1e3
    }
}

struct Flight {
    doc: usize,
    id: u64,
    due: Instant,
    sent: Instant,
}

/// Submits jobs for `docs` (cycling through them) over `conns`
/// connections until `duration` has passed or `max_jobs` jobs were
/// sent, and waits for every answer. Job ids start after `id_base`.
/// An open loop runs on one CPU that is kept awake (see `cpu`).
pub fn drive(
    bind: &Bind,
    docs: &[Doc],
    conns: usize,
    pace: Pace,
    duration: Duration,
    max_jobs: Option<usize>,
    id_base: u64,
) -> Result<Vec<Done>, String> {
    // Locals drop in reverse order: the spinner stops before the CPUs
    // are given back.
    let open = matches!(pace, Pace::Open { .. });
    let pinned = open.then(cpu::OneCpu::pin).flatten();
    if open && pinned.is_none() {
        eprintln!("open loop: cannot confine the process to one CPU; it runs on all of them");
    }
    let _awake = open.then(cpu::Awake::start);
    let specs: Vec<JobSpec> = docs.iter().map(|d| spec(d, 0)).collect();
    let start = Instant::now();
    let end = start + duration;
    let per_conn_max = max_jobs.map(|m| m.div_ceil(conns));
    let results: Vec<Result<Vec<Done>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let specs = &specs;
                scope.spawn(move || {
                    connection(
                        bind,
                        specs,
                        c,
                        conns,
                        pace,
                        start,
                        end,
                        per_conn_max,
                        id_base,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    Ok(all)
}

/// One client connection: this thread sends, a second one receives.
#[allow(clippy::too_many_arguments)]
fn connection(
    bind: &Bind,
    specs: &[JobSpec],
    c: usize,
    conns: usize,
    pace: Pace,
    start: Instant,
    end: Instant,
    max_jobs: Option<usize>,
    id_base: u64,
) -> Result<Vec<Done>, String> {
    let mut writer = Conn::connect(bind).map_err(|e| format!("connect: {e}"))?;
    let mut reader = writer
        .try_clone()
        .map_err(|e| format!("clone connection: {e}"))?;
    reader
        .set_read_timeout(Some(Duration::from_millis(20)))
        .map_err(|e| format!("set read timeout: {e}"))?;
    let flights: Mutex<VecDeque<Flight>> = Mutex::new(VecDeque::new());
    let arrived = Condvar::new();
    let sending = AtomicBool::new(true);
    let (credit_tx, credit_rx) = mpsc::channel::<()>();
    if let Pace::Closed { window } = pace {
        for _ in 0..window {
            credit_tx.send(()).expect("credit channel is open");
        }
    }
    let (flights, arrived, sending) = (&flights, &arrived, &sending);
    std::thread::scope(|scope| {
        // The receiver owns the credit sender, so a receiver that gives
        // up also ends a closed-loop sender waiting for credit.
        let receiver = scope.spawn(move || {
            let mut done = Vec::new();
            loop {
                let flight = {
                    let mut queue = flights.lock().expect("flight queue lock");
                    loop {
                        if let Some(f) = queue.pop_front() {
                            break Some(f);
                        }
                        if !sending.load(Ordering::SeqCst) {
                            break None;
                        }
                        queue = arrived.wait(queue).expect("flight queue lock");
                    }
                };
                let Some(f) = flight else { return Ok(done) };
                let body =
                    read_frame_timeout(&mut reader, MAX_FRAME, &|| false, Some(RESPONSE_TIMEOUT))
                        .map_err(|e| format!("job {}: no response: {e}", f.id))?;
                let recv = Instant::now();
                let text = std::str::from_utf8(&body).map_err(|e| format!("response: {e}"))?;
                let response: Response =
                    serde_json::from_str(text).map_err(|e| format!("response: {e}"))?;
                let _ = credit_tx.send(());
                done.push(Done {
                    doc: f.doc,
                    id: f.id,
                    due: f.due,
                    sent: f.sent,
                    recv,
                    response,
                });
            }
        });
        let sent = send_loop(
            &mut writer,
            specs,
            c,
            conns,
            pace,
            start,
            end,
            max_jobs,
            id_base,
            flights,
            arrived,
            &credit_rx,
        );
        sending.store(false, Ordering::SeqCst);
        arrived.notify_all();
        let received = receiver
            .join()
            .unwrap_or_else(|_| Err("receiver panicked".into()));
        sent.and(received)
    })
}

#[allow(clippy::too_many_arguments)]
fn send_loop(
    writer: &mut Conn,
    specs: &[JobSpec],
    c: usize,
    conns: usize,
    pace: Pace,
    start: Instant,
    end: Instant,
    max_jobs: Option<usize>,
    id_base: u64,
    flights: &Mutex<VecDeque<Flight>>,
    arrived: &Condvar,
    credits: &mpsc::Receiver<()>,
) -> Result<(), String> {
    for k in 0.. {
        if max_jobs.is_some_and(|m| k >= m) {
            break;
        }
        let global = k * conns + c;
        let due = match pace {
            Pace::Open { rate } => {
                let due = start + Duration::from_secs_f64(global as f64 / rate);
                if due >= end {
                    break;
                }
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                due
            }
            Pace::Closed { .. } => {
                if max_jobs.is_none() && Instant::now() >= end {
                    break;
                }
                credits
                    .recv()
                    .map_err(|_| "credit channel closed".to_string())?;
                Instant::now()
            }
        };
        let doc = global % specs.len();
        let id = id_base + global as u64 + 1;
        let mut spec = specs[doc].clone();
        spec.id = id;
        let sent = Instant::now();
        flights
            .lock()
            .expect("flight queue lock")
            .push_back(Flight { doc, id, due, sent });
        arrived.notify_all();
        write_frame(writer, &Request::Submit(spec)).map_err(|e| format!("send job {id}: {e}"))?;
    }
    Ok(())
}

/// Classifies an answer: `Ok(makespan)`, a retryable refusal
/// (`Err(true)`), or a terminal failure (`Err(false)`).
pub fn outcome(done: &Done) -> Result<&str, bool> {
    match &done.response {
        Response::Result(r) if r.id == done.id => Ok(&r.makespan),
        Response::Error(e) => Err(e.retryable),
        _ => Err(false),
    }
}

/// The serve layer's functions on one document: the client's frame
/// codec (spans `serve.encode`, `serve.decode`), `run_one` (span
/// `serve.service`) and a journal commit of the job's records (span
/// `serve.journal_commit`). Returns the makespan `run_one` reports.
pub fn layers(
    t: &mut Tracer,
    req: u64,
    doc: &Doc,
    options: &ServeOptions,
    journal: &ServeJournal,
) -> Result<String, String> {
    let spec = spec(doc, req + 1);
    let request = Request::Submit(spec.clone());
    let mut frame = Vec::new();
    t.span("serve.encode", req, |t| {
        write_frame(&mut frame, &request).map_err(|e| format!("encode: {e}"))?;
        t.work(frame.len() as u64);
        Ok::<(), String>(())
    })?;
    let decoded = t.span("serve.decode", req, |_| -> Result<Request, String> {
        let body = read_frame(&mut frame.as_slice(), MAX_FRAME, &|| false)
            .map_err(|e: FrameError| format!("decode: {e}"))?;
        let text = std::str::from_utf8(&body).map_err(|e| format!("decode: {e}"))?;
        serde_json::from_str(text).map_err(|e| format!("decode: {e}"))
    })?;
    check(decoded == request, || {
        "decoded frame differs from the encoded request".into()
    })?;
    let response = t.span("serve.service", req, |_| run_one(&spec, options));
    let Response::Result(result) = response else {
        return Err(format!("run_one failed: {response:?}"));
    };
    t.span("serve.journal_commit", req, |_| {
        let tx = journal.sender();
        tx.record(JobRecord::Submitted {
            id: spec.id,
            scheduler: spec.scheduler.clone(),
            fingerprint: rigid_dag::instance_fingerprint(&doc.inst),
            instance: spec.instance.clone(),
            idem: spec.idem,
        });
        tx.record(JobRecord::Completed {
            id: spec.id,
            scheduler: spec.scheduler.clone(),
            makespan: result.makespan.clone(),
            events: result.events,
            ratio_to_lb: result.ratio_to_lb,
            tasks: Some(result.tasks as u64),
            procs: Some(result.procs),
            lower_bound: Some(result.lower_bound.clone()),
            peak_ready: Some(result.peak_ready),
        });
        tx.flush();
    });
    Ok(result.makespan)
}
