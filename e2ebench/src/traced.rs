//! The traced run: the workload's inputs driven through every layer's
//! public functions with spans around each call, and the per-layer
//! metrics derived from those spans.

use crate::inputs::Doc;
use crate::layers::{self, fault_config, Scheduled};
use crate::report::{check, median, quantile, ratio, Tally, Values};
use crate::serve::{self, Pace};
use crate::trace::Tracer;
use crate::{run_cli, Ctx};
use rigid_dag::{analysis, Instance};
use rigid_exec::{ordered_map, ScratchPool};
use rigid_faults::{run_trial_reusing, FaultInjector, TrialStats};
use rigid_serve::ServeJournal;
use rigid_sim::{EngineScratch, RunBudget};
use rigid_supervise::journal::JOURNAL_SCHEMA;
use rigid_supervise::{read_journal, JournalHeader, JournalWriter, Supervisor, SupervisorPolicy};
use rigid_time::Time;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker threads of every parallel trial run.
pub const JOBS: usize = 2;

/// Journal records written between two syncs (group commit).
const SYNC_EVERY: usize = 8;

/// One faulty trial: an instance and the injector seed.
#[derive(Clone)]
pub struct TrialItem {
    pub inst: Arc<Instance>,
    pub seed: u64,
}

/// What the traced run of a workload drives besides its documents.
pub struct Plan<'a> {
    /// The faulty trials to run under supervision.
    pub trials: Vec<TrialItem>,
    /// How the daemon is driven, and for how long.
    pub pace: Pace,
    pub conns: usize,
    pub daemon_for: Duration,
    /// At most this many daemon jobs (`None`: until `daemon_for` ends).
    pub daemon_jobs: Option<usize>,
    /// The campaign command whose journal the traced trials must
    /// reproduce, and whose wall time `exec.parallel_eff` divides by.
    pub campaign: Option<(&'a [String], &'a Path)>,
}

/// Runs passes over the inputs until `ctx.seconds` have passed (at least
/// one), then derives every per-layer metric, averaged per pass.
pub fn run(
    ctx: &Ctx,
    docs: &[Doc],
    plan: &Plan,
    read: &dyn Fn(&str) -> Result<String, String>,
) -> (Tally, Values, usize) {
    let mut t = Tracer::new(true);
    let mut tally = Tally::default();
    let mut late = Vec::new();
    let mut daemon_jobs = Vec::new();
    let (mut bounces, mut submitted) = (0u64, 0u64);
    let started = Instant::now();
    let mut passes = 0;
    while passes == 0 || started.elapsed() < ctx.seconds {
        passes += 1;
        let pass_dir = ctx.dir.join(format!("traced-{passes}"));
        if let Err(e) = std::fs::create_dir_all(&pass_dir) {
            tally.op(Err(format!("cannot create {}: {e}", pass_dir.display())));
            break;
        }
        let mut scheduled = Vec::new();
        for (i, doc) in docs.iter().enumerate() {
            match pipeline(&mut t, i as u64, doc, read) {
                Ok(s) => {
                    tally.op(Ok(()));
                    scheduled.push(Some(s));
                }
                Err(e) => {
                    tally.op(Err(e));
                    scheduled.push(None);
                }
            }
        }
        if let Some((argv, _)) = plan.campaign {
            let out = t.span("cli.faults", 0, |_| run_cli(argv, read));
            tally.op(out.map(drop));
        }
        tally.op(fault_layers(
            &mut t,
            &plan.trials,
            &pass_dir.join("trials.jsonl"),
            plan.campaign.map(|c| c.1),
        ));
        match ServeJournal::open(&pass_dir.join("probe-journal.jsonl")) {
            Ok((journal, _)) => {
                let options = serve::options(&pass_dir);
                for (i, doc) in docs.iter().enumerate() {
                    let expect = scheduled[i].as_ref().map(|s| s.makespan.to_string());
                    tally.op(
                        serve::layers(&mut t, i as u64, doc, &options, &journal).and_then(|m| {
                            check(expect.as_deref() == Some(m.as_str()), || {
                                format!(
                                    "{}: run_one makespan {m} differs from the pipeline's",
                                    doc.name
                                )
                            })
                        }),
                    );
                }
                journal.close();
            }
            Err(e) => tally.op(Err(e)),
        }
        let daemon = serve::start(&pass_dir.join("daemon"));
        match daemon {
            Ok(d) => {
                let bind = serve::options(&pass_dir.join("daemon")).bind;
                let done = serve::drive(
                    &bind,
                    docs,
                    plan.conns,
                    plan.pace,
                    plan.daemon_for,
                    plan.daemon_jobs,
                    0,
                );
                d.trigger_shutdown();
                d.wait();
                match done {
                    Ok(done) => {
                        for job in &done {
                            submitted += 1;
                            let expect =
                                scheduled[job.doc].as_ref().map(|s| s.makespan.to_string());
                            match serve::outcome(job) {
                                Ok(m) if expect.as_deref() == Some(m) => {
                                    tally.op(Ok(()));
                                    daemon_jobs.push((job.doc, job.latency_ms()));
                                    late.push(job.late_ms());
                                }
                                Ok(m) => tally.op(Err(format!("job {}: makespan {m}", job.id))),
                                Err(retryable) => {
                                    bounces += u64::from(retryable);
                                    tally.op(Err(format!("job {} refused or failed", job.id)));
                                }
                            }
                        }
                    }
                    Err(e) => tally.op(Err(e)),
                }
            }
            Err(e) => tally.op(Err(e)),
        }
    }

    let mut v = Values::new();
    layers::engine_layers(&t, passes, &mut v);
    let per = |x: f64| x / passes as f64;
    let mean = |name: &str| ratio(t.sum_ms(name), t.count(name) as f64);
    v.insert("fail_frac", tally.fail_frac());
    let trial_ms = mean("faults.trial");
    v.insert("faults.trial_ms", trial_ms);
    v.insert(
        "faults.task_failures",
        per(t.total("faults.failures") as f64),
    );
    v.insert(
        "faults.wasted_frac",
        ratio(
            t.total("faults.wasted_area_milli") as f64,
            t.total("faults.busy_area_milli") as f64,
        ),
    );
    v.insert("supervise.overhead_ms", mean("supervise.trial") - trial_ms);
    v.insert(
        "supervise.journal_append_ms",
        mean("supervise.journal_append"),
    );
    v.insert("supervise.journal_sync_ms", mean("supervise.journal_sync"));
    v.insert(
        "supervise.journal_bytes",
        ratio(
            t.total("supervise.record_bytes") as f64,
            t.total("supervise.records") as f64,
        ),
    );
    v.insert("supervise.replay_ms", mean("supervise.replay"));
    let parallel_ms = if plan.campaign.is_some() {
        t.sum_ms("cli.faults")
    } else {
        t.sum_ms("exec.map")
    };
    v.insert(
        "exec.parallel_eff",
        ratio(t.sum_ms("faults.trial"), parallel_ms * JOBS as f64),
    );
    v.insert(
        "serve.frame_bytes",
        ratio(
            t.sum_work("serve.encode") as f64,
            t.count("serve.encode") as f64,
        ),
    );
    v.insert("serve.encode_us", mean("serve.encode") * 1e3);
    v.insert("serve.decode_us", mean("serve.decode") * 1e3);
    v.insert("serve.service_ms", median(&t.durations_ms("serve.service")));
    v.insert("serve.wait_ms", median(&waits(&t, &daemon_jobs)));
    v.insert("serve.journal_commit_ms", mean("serve.journal_commit"));
    v.insert("serve.bounce_frac", ratio(bounces as f64, submitted as f64));
    v.insert("serve.gen_late_ms", quantile(&late, 0.99));
    let latencies: Vec<f64> = daemon_jobs.iter().map(|&(_, ms)| ms).collect();
    v.insert("job_p99_ms", quantile(&latencies, 0.99));
    let coverage = t
        .min_coverage("cmd.schedule")
        .min(t.min_coverage("cmd.analyze"));
    v.insert("trace.span_coverage", coverage);
    v.insert(
        "trace.overhead_frac",
        ratio(
            t.total("trace.traced_ns") as f64,
            t.total("trace.untraced_ns") as f64,
        ) - 1.0,
    );
    let spans = ctx.trace_path();
    if let Err(e) = std::fs::write(&spans, t.to_jsonl()) {
        tally.fail(format!("cannot write {}: {e}", spans.display()));
    }
    print_self_times(&t, passes);
    (tally, v, passes)
}

/// Each daemon job's latency minus the median `run_one` time of its
/// document: the time spent in queues, on the wire, in reorder and in
/// the journal.
fn waits(t: &Tracer, jobs: &[(usize, f64)]) -> Vec<f64> {
    let mut service: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for (req, ms) in t.spans_named("serve.service") {
        service.entry(req).or_default().push(ms);
    }
    let service: BTreeMap<u64, f64> = service.into_iter().map(|(k, v)| (k, median(&v))).collect();
    jobs.iter()
        .filter_map(|&(doc, ms)| service.get(&(doc as u64)).map(|s| ms - s))
        .collect()
}

/// The `analyze` and `schedule` paths for one document: once untraced
/// and once traced (for the tracing overhead and the wrapper
/// self-check), then the real CLI commands, checked against the traced
/// pipeline.
fn pipeline(
    t: &mut Tracer,
    req: u64,
    doc: &Doc,
    read: &dyn Fn(&str) -> Result<String, String>,
) -> Result<Scheduled, String> {
    let mut off = Tracer::new(false);
    let t0 = Instant::now();
    let plain_batches = layers::analyze_text(&mut off, req, &doc.text)?;
    let plain = layers::schedule(&mut off, req, &doc.text)?;
    let t1 = Instant::now();
    let batches = layers::analyze_text(t, req, &doc.text)?;
    let traced = layers::schedule(t, req, &doc.text)?;
    let t2 = Instant::now();
    t.add("trace.untraced_ns", (t1 - t0).as_nanos() as u64);
    t.add("trace.traced_ns", (t2 - t1).as_nanos() as u64);
    layers::same_run(&doc.name, &traced.run, &plain.run)?;
    check(batches == plain_batches, || {
        format!("{}: batch counts differ", doc.name)
    })?;

    let analyzed = t.span("cli.analyze", req, |_| {
        run_cli(&["analyze", &doc.name], read)
    })?;
    let line = format!("category batches ({batches}):");
    check(analyzed.lines().any(|l| l == line), || {
        format!("{}: analyze does not show {line:?}", doc.name)
    })?;
    let report = t.span("cli.schedule", req, |_| {
        run_cli(&["schedule", &doc.name, "--scheduler", "catbatch"], read)
    })?;
    traced.matches_report(&doc.name, &report)?;
    Ok(traced)
}

/// Exact area in thousandths, for counters.
fn milli(x: Time) -> u64 {
    (x.to_f64() * 1e3).round() as u64
}

/// Every trial under a `Supervisor` with the timing wrappers (spans
/// `supervise.trial` ⊃ `faults.trial` ⊃ `sim.run`), each result appended
/// to a supervise journal with a group commit every `SYNC_EVERY`
/// records, the journal read back, and the trials checked against
/// `reference` (a real campaign journal) or against
/// `run_trial_reusing`. Without a campaign, the trials also run on
/// `JOBS` threads (span `exec.map`) for the parallel efficiency.
fn fault_layers(
    t: &mut Tracer,
    items: &[TrialItem],
    journal: &Path,
    reference: Option<&Path>,
) -> Result<(), String> {
    let header = JournalHeader {
        schema: JOURNAL_SCHEMA.to_string(),
        fingerprint: "e2ebench".to_string(),
        scheduler: "CatBatch".to_string(),
        fault_free_makespan: Time::ZERO,
    };
    let mut writer = JournalWriter::create(journal, &header).map_err(|e| e.to_string())?;
    let header_bytes = file_len(journal);
    let pool = Arc::new(ScratchPool::<EngineScratch>::new());
    let mut sup = Supervisor::new(SupervisorPolicy::default());
    let mut trials = Vec::new();
    for (i, item) in items.iter().enumerate() {
        let req = i as u64;
        let out = t.span("supervise.trial", req, |t| {
            let out = sup.run_trial(item.seed, 0, || {
                let inst = Arc::clone(&item.inst);
                let pool = Arc::clone(&pool);
                let seed = item.seed;
                move || {
                    let start = Instant::now();
                    let mut injector = FaultInjector::new(seed, fault_config());
                    let (run, timing) = pool.with(EngineScratch::new, |s| {
                        layers::run_timed(&inst, Some(&mut injector), Some(s))
                    });
                    let stats =
                        layers::trial_stats(seed, &inst, &run, injector.injected_failures());
                    (run, timing, stats, start, Instant::now())
                }
            });
            out.map(|(run, timing, stats, start, end)| {
                let trial = t.record("faults.trial", req, start, end, 0, None);
                let events = run.as_ref().map_or(0, |r| r.stats.events);
                t.record("sim.run", req, timing.start, timing.end, events, trial);
                layers::note_run(t, &timing, &run);
                stats
            })
        });
        let stats = out.map_err(|e| format!("trial {}: {e}", item.seed))?;
        let area = analysis::area(item.inst.graph());
        t.add("faults.failures", stats.failures);
        t.add("faults.wasted_area_milli", milli(stats.wasted_area));
        t.add(
            "faults.busy_area_milli",
            milli(area + stats.wasted_area + stats.inflated_area),
        );
        t.span("supervise.journal_append", req, |_| {
            writer.record_buffered(&stats)
        })
        .map_err(|e| e.to_string())?;
        if (i + 1) % SYNC_EVERY == 0 || i + 1 == items.len() {
            t.span("supervise.journal_sync", req, |_| writer.sync())
                .map_err(|e| e.to_string())?;
        }
        trials.push(stats);
    }
    drop(writer);
    let replayed = t
        .span("supervise.replay", 0, |_| read_journal(journal))
        .map_err(|e| e.to_string())?;
    check(replayed.trials == trials, || {
        "the journal does not replay the trials written".into()
    })?;

    let expected: Vec<TrialStats> = match reference {
        Some(path) => {
            let real = read_journal(path).map_err(|e| e.to_string())?;
            t.add("supervise.record_bytes", file_len(path) - header_len(path));
            t.add("supervise.records", real.trials.len() as u64);
            real.trials
        }
        None => {
            t.add("supervise.record_bytes", file_len(journal) - header_bytes);
            t.add("supervise.records", trials.len() as u64);
            let wall = Instant::now();
            let parallel = ordered_map(items.to_vec(), JOBS, |_, item| {
                run_trial_reusing(
                    &item.inst,
                    &fault_config(),
                    item.seed,
                    RunBudget::UNLIMITED,
                    &mut catbatch::CatBatch::new().with_retry_budget(layers::RETRIES),
                    &mut EngineScratch::new(),
                )
            });
            t.record(
                "exec.map",
                0,
                wall,
                Instant::now(),
                items.len() as u64,
                None,
            );
            parallel
        }
    };
    let by_seed = |mut v: Vec<TrialStats>| {
        v.sort_by_key(|s| s.seed);
        v
    };
    check(by_seed(expected) == by_seed(trials), || {
        "traced trials differ from the reference trials".into()
    })
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Bytes of a journal's header line.
fn header_len(path: &Path) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.find('\n').map(|n| n as u64 + 1))
        .unwrap_or(0)
}

/// Prints per-layer self time (ms per pass) to stderr. Callback time
/// inside engine runs has no spans of its own: it moves from `sim` to
/// `core` (scheduler) and `dag` (releases).
fn print_self_times(t: &Tracer, passes: usize) {
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, self_ms) in t.self_ms() {
        *by_layer
            .entry(name.split('.').next().unwrap_or(name))
            .or_default() += self_ms;
    }
    for (layer, total) in [("core", "core.sched_ns"), ("dag", "dag.release_ns")] {
        let moved = t.total(total) as f64 / 1e6;
        *by_layer.entry(layer).or_default() += moved;
        *by_layer.entry("sim").or_default() -= moved;
    }
    let pipeline = t.sum_ms("cmd.analyze") + t.sum_ms("cmd.schedule");
    eprintln!(
        "dag.parse share of the traced analyze + schedule pipeline: {:.1}%",
        100.0 * ratio(t.sum_ms("dag.parse"), pipeline)
    );
    eprintln!("self time per pass by layer (ms):");
    for (layer, total) in by_layer {
        eprintln!("  {layer:<10} {:>12.3}", total / passes as f64);
    }
}
