//! The three workloads' measured (untraced) runs and their traced-run
//! plans.

use crate::inputs::{self, Doc};
use crate::layers;
use crate::report::{check, geomean, median, peak_rss_mb, quantile, ratio, Tally, Values};
use crate::serve::{self, Pace};
use crate::trace::{ms, Tracer};
use crate::traced::{self, Plan, TrialItem, JOBS};
use crate::{run_cli, Ctx};
use rigid_dag::{analysis, format};
use rigid_supervise::read_journal;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up is timed in batches. A batch repeats it until `SETUP_BATCH`
/// has passed, at least once. `SETUP_BATCHES` batches run before the
/// measured part and the workloads run one more between measured rounds,
/// so that the batches sample the whole run: host speed can drift over
/// seconds. `setup_s` is the median over the batches of the mean time of
/// one set-up.
const SETUP_BATCHES: usize = 3;
const SETUP_BATCH: Duration = Duration::from_millis(150);

/// Trials per `faults` command of the `campaign` workload.
const CAMPAIGN_TRIALS: usize = 200;

/// Open-loop arrival rate of `serve-small`, jobs per second over both
/// connections: about a fifth of the daemon's saturation throughput,
/// and enough jobs in half a run for a steady p99.
pub const OPEN_RATE: f64 = 500.0;

/// Client connections and per-connection window of `serve-small`.
const CONNS: usize = 2;
const WINDOW: usize = 8;

/// What one run measured.
pub struct Outcome {
    pub tally: Tally,
    pub values: Values,
    /// StableHasher fingerprint of the generated inputs.
    pub inputs_fp: u64,
    /// Sample counts behind the reported figures.
    pub samples: Vec<(&'static str, usize)>,
}

/// Times a workload's set-up `make`, which gets the repetition index.
struct SetupClock<F> {
    make: F,
    means: Vec<f64>,
    reps: usize,
    /// Wall time of the batches run after the first `SETUP_BATCHES`.
    between: Duration,
}

impl<T, F: FnMut(usize) -> T> SetupClock<F> {
    /// Runs the first `SETUP_BATCHES` batches and returns the last set-up.
    fn start(make: F) -> (Self, T) {
        let mut clock = SetupClock {
            make,
            means: Vec::new(),
            reps: 0,
            between: Duration::ZERO,
        };
        let mut last = clock.batch();
        for _ in 1..SETUP_BATCHES {
            last = clock.batch();
        }
        clock.between = Duration::ZERO;
        (clock, last)
    }

    /// Runs one batch and returns its last set-up.
    fn batch(&mut self) -> T {
        let (started, first) = (Instant::now(), self.reps);
        let mut spent = Duration::ZERO;
        let mut last = None;
        while self.reps == first || started.elapsed() < SETUP_BATCH {
            let t = Instant::now();
            let made = (self.make)(self.reps);
            spent += t.elapsed();
            self.reps += 1;
            // The previous set-up is dropped outside the timed part.
            last = Some(made);
        }
        self.means
            .push(spent.as_secs_f64() / (self.reps - first) as f64);
        self.between += started.elapsed();
        last.expect("a batch sets up at least once")
    }

    /// `setup_s` and the number of set-ups.
    fn finish(&self) -> (f64, usize) {
        let ms: Vec<f64> = self.means.iter().map(|s| s * 1e3).collect();
        eprintln!("set-up batch means (ms): {ms:.3?}");
        (median(&self.means), self.reps)
    }
}

/// The CLI's file reader over in-memory documents.
fn reader(docs: &[Doc]) -> impl Fn(&str) -> Result<String, String> + '_ {
    move |path: &str| {
        docs.iter()
            .find(|d| d.name == path)
            .map(|d| d.text.clone())
            .ok_or_else(|| format!("cannot read {path:?}: no such document"))
    }
}

/// Faulty trial items: every seed on every document, as the program
/// parses it.
fn trial_items(docs: &[Doc], seeds: &[u64]) -> Vec<TrialItem> {
    docs.iter()
        .flat_map(|d| {
            let inst = Arc::new(format::parse(&d.text).expect("generated documents parse"));
            seeds.iter().map(move |&seed| TrialItem {
                inst: Arc::clone(&inst),
                seed,
            })
        })
        .collect()
}

fn common(values: &mut Values, setup_s: f64, peak_rss_mb: f64) {
    values.insert("setup_s", setup_s);
    values.insert("peak_rss_mb", peak_rss_mb);
}

/// `cli-large`: each document through `parse_args` + `run_command` for
/// `analyze` and `schedule --scheduler catbatch`, round after round.
pub fn cli_large(ctx: &Ctx) -> Outcome {
    let (mut clock, docs) = SetupClock::start(|_| inputs::cli_docs(ctx.seed, ctx.scale));
    let read = reader(&docs);
    let inputs_fp = inputs::fingerprint(&docs);
    if ctx.trace {
        let plan = Plan {
            trials: trial_items(&docs, &[ctx.seed]),
            pace: Pace::Closed { window: 1 },
            conns: 1,
            daemon_for: Duration::ZERO,
            daemon_jobs: Some(docs.len()),
            campaign: None,
        };
        let (tally, values, passes) = traced::run(ctx, &docs, &plan, &read);
        return Outcome {
            tally,
            values,
            inputs_fp,
            samples: vec![("setups", clock.finish().1), ("passes", passes)],
        };
    }

    // Output checks: every report against the public-function pipeline,
    // worked out before the measured part. Reports are checked as they
    // come and then dropped, so memory does not grow with the rounds run.
    let mut tally = Tally::default();
    let mut off = Tracer::new(false);
    let mut ratios = Vec::new();
    let mut expected = Vec::new();
    for (i, doc) in docs.iter().enumerate() {
        let req = i as u64;
        let pipeline = layers::parse(&mut off, req, &doc.text).and_then(|inst| {
            let batches = layers::analyze(&mut off, req, &inst);
            layers::schedule_parsed(&mut off, req, &inst).map(|s| (batches, s))
        });
        match pipeline {
            Ok((batches, s)) => {
                ratios.push(s.ratio);
                expected.push(Some((batches, s)));
            }
            Err(e) => {
                tally.fail(format!("{}: pipeline: {e}", doc.name));
                expected.push(None);
            }
        }
    }
    let verify = |i: usize, analyze: bool, text: &str| -> Result<(), String> {
        let Some((batches, s)) = &expected[i] else {
            return Ok(());
        };
        let name = &docs[i].name;
        if analyze {
            let line = format!("category batches ({batches}):");
            check(text.lines().any(|l| l == line), || {
                format!("{name}: analyze lacks {line:?}")
            })
        } else {
            s.matches_report(name, text)
        }
    };

    let (mut rounds, mut latencies) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while rounds.is_empty() || started.elapsed() < ctx.seconds + clock.between {
        if !rounds.is_empty() {
            clock.batch();
        }
        let mut round = Duration::ZERO;
        for (i, doc) in docs.iter().enumerate() {
            for analyze in [true, false] {
                let argv: &[&str] = if analyze {
                    &["analyze", &doc.name]
                } else {
                    &["schedule", &doc.name, "--scheduler", "catbatch"]
                };
                let t = Instant::now();
                let out = run_cli(argv, &read);
                let took = t.elapsed();
                latencies.push(ms(took));
                round += took;
                tally.op(out
                    .map_err(|e| format!("{}: {e}", doc.name))
                    .and_then(|text| verify(i, analyze, &text)));
            }
        }
        rounds.push(round.as_secs_f64());
    }
    let tasks: usize = docs.iter().map(Doc::tasks).sum();

    let (setup_s, setups) = clock.finish();
    let mut values = Values::new();
    common(&mut values, setup_s, peak_rss_mb());
    let per_round = |work: f64| median(&rounds.iter().map(|s| work / s).collect::<Vec<_>>());
    values.insert("tasks_per_s", per_round(tasks as f64));
    values.insert("trials_per_s", per_round(docs.len() as f64));
    values.insert("jobs_per_s", per_round(2.0 * docs.len() as f64));
    values.insert("job_p50_ms", median(&latencies));
    values.insert("makespan_ratio", geomean(&ratios));
    Outcome {
        tally,
        values,
        inputs_fp,
        samples: vec![
            ("setups", setups),
            ("rounds", rounds.len()),
            ("commands", latencies.len()),
        ],
    }
}

/// `campaign`: one instance through `run_command(faults …)` with
/// CatBatch, retries, fail-stop faults, two worker threads and a
/// journal, repeated; then a `--resume` of the finished journal.
pub fn campaign(ctx: &Ctx) -> Outcome {
    let (mut clock, doc) = SetupClock::start(|_| inputs::campaign_doc(ctx.seed, ctx.scale));
    let docs = [doc];
    let doc = &docs[0];
    let read = reader(&docs);
    let inputs_fp = inputs::fingerprint(&docs);
    let trials = match ctx.scale {
        inputs::Scale::Full => CAMPAIGN_TRIALS,
        inputs::Scale::Tiny => 8,
    };
    let journal = ctx.dir.join("campaign.jsonl");
    let seed = ctx.seed.to_string();
    let argv: Vec<String> = [
        "faults",
        &doc.name,
        "--scheduler",
        "catbatch",
        "--seed",
        &seed,
        "--trials",
        &trials.to_string(),
        "--fail",
        &layers::FAIL_PERMILLE.to_string(),
        "--retries",
        &layers::RETRIES.to_string(),
        "--jobs",
        &JOBS.to_string(),
        "--journal",
        &journal.display().to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if ctx.trace {
        let plan = Plan {
            trials: trial_items(
                &docs,
                &(0..trials as u64).map(|i| ctx.seed + i).collect::<Vec<_>>(),
            ),
            pace: Pace::Closed { window: 1 },
            conns: 1,
            daemon_for: Duration::ZERO,
            daemon_jobs: Some(1),
            campaign: Some((&argv, &journal)),
        };
        let (tally, values, passes) = traced::run(ctx, &docs, &plan, &read);
        return Outcome {
            tally,
            values,
            inputs_fp,
            samples: vec![("setups", clock.finish().1), ("passes", passes)],
        };
    }

    let mut tally = Tally::default();
    let mut latencies = Vec::new();
    let mut reports = Vec::new();
    let started = Instant::now();
    while latencies.is_empty() || started.elapsed() < ctx.seconds + clock.between {
        if !latencies.is_empty() {
            clock.batch();
        }
        let t = Instant::now();
        let out = run_cli(&argv, &read);
        latencies.push(ms(t.elapsed()));
        match out {
            Ok(report) => {
                let completed = format!("completed      : {trials}/{trials}");
                for _ in 0..trials {
                    tally.op(Ok(()));
                }
                if !report.lines().any(|l| l == completed) {
                    tally.fail(format!("campaign: not every trial completed:\n{report}"));
                }
                reports.push(report);
            }
            Err(e) => {
                for _ in 0..trials {
                    tally.op(Err(format!("campaign: {e}")));
                }
            }
        }
    }

    // Output checks: reports repeat exactly, and resuming the finished
    // journal executes nothing and reproduces the report.
    if reports.windows(2).any(|w| w[0] != w[1]) {
        tally.fail("campaign: reports differ between identical commands".into());
    }
    let mut resume = argv.clone();
    resume.push("--resume".into());
    let strip = |r: &str| -> String {
        r.lines()
            .filter(|l| !l.starts_with("executed") && !l.starts_with("replayed"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    tally.op(run_cli(&resume, &read).and_then(|resumed| {
        let last = reports.last().map_or("", String::as_str);
        check(
            resumed.lines().any(|l| l == "executed       : 0") && strip(&resumed) == strip(last),
            || format!("campaign: resume does not reproduce the report:\n{resumed}"),
        )
    }));
    let lower_bound = analysis::lower_bound(&doc.inst);
    let makespans: Vec<f64> = match read_journal(&journal) {
        Ok(contents) => contents
            .trials
            .iter()
            .filter_map(|t| {
                t.outcome
                    .as_ref()
                    .ok()
                    .map(|m| m.ratio(lower_bound).to_f64())
            })
            .collect(),
        Err(e) => {
            tally.fail(format!("campaign: journal: {e}"));
            Vec::new()
        }
    };

    let (setup_s, setups) = clock.finish();
    let mut values = Values::new();
    common(&mut values, setup_s, peak_rss_mb());
    let rate = |work: f64| {
        median(
            &latencies
                .iter()
                .map(|ms| work * 1e3 / ms)
                .collect::<Vec<_>>(),
        )
    };
    values.insert("tasks_per_s", rate((trials * doc.tasks()) as f64));
    values.insert("trials_per_s", rate(trials as f64));
    values.insert("jobs_per_s", rate(1.0));
    values.insert("job_p50_ms", median(&latencies));
    values.insert(
        "makespan_ratio",
        ratio(makespans.iter().sum(), makespans.len() as f64),
    );
    Outcome {
        tally,
        values,
        inputs_fp,
        samples: vec![("setups", setups), ("commands", latencies.len())],
    }
}

/// `serve-small`: an in-process daemon fed small CatBatch jobs over two
/// connections: a warm-up, then open-loop at `OPEN_RATE` for half the
/// remaining run, then closed-loop with `WINDOW` jobs in flight per
/// connection.
pub fn serve_small(ctx: &Ctx) -> Outcome {
    let (mut clock, (docs, daemon)) = SetupClock::start(|rep| {
        let docs = inputs::serve_docs(ctx.seed, ctx.scale);
        let daemon = serve::start(&ctx.dir.join(format!("daemon-{rep}")));
        (docs, daemon)
    });
    let bind = serve::options(&ctx.dir.join(format!("daemon-{}", clock.reps - 1))).bind;
    let read = reader(&docs);
    let inputs_fp = inputs::fingerprint(&docs);
    if ctx.trace {
        drop(daemon);
        let plan = Plan {
            trials: trial_items(&docs, &[ctx.seed]),
            pace: Pace::Open { rate: OPEN_RATE },
            conns: CONNS,
            daemon_for: ctx.seconds / 4,
            daemon_jobs: None,
            campaign: None,
        };
        let (tally, values, passes) = traced::run(ctx, &docs, &plan, &read);
        return Outcome {
            tally,
            values,
            inputs_fp,
            samples: vec![("setups", clock.finish().1), ("passes", passes)],
        };
    }

    let mut tally = Tally::default();
    let daemon = match daemon {
        Ok(d) => d,
        Err(e) => {
            tally.op(Err(format!("daemon: {e}")));
            return Outcome {
                tally,
                values: Values::new(),
                inputs_fp,
                samples: Vec::new(),
            };
        }
    };
    // A tenth of the run warms the fresh daemon up at the open-loop rate;
    // its answers are checked but not timed. The first seconds after a
    // start run slower, and a long-running daemon pays that only once.
    let warm_for = ctx.seconds / 10;
    let warm = serve::drive(
        &bind,
        &docs,
        CONNS,
        Pace::Open { rate: OPEN_RATE },
        warm_for,
        None,
        1 << 40,
    );
    if let Err(e) = clock.batch().1 {
        tally.op(Err(format!("daemon: {e}")));
    }
    let open_for = (ctx.seconds - warm_for) / 2;
    let open = serve::drive(
        &bind,
        &docs,
        CONNS,
        Pace::Open { rate: OPEN_RATE },
        open_for,
        None,
        0,
    );
    // Memory is read before the closed loop: under saturation the
    // daemon's unbounded journal queue grows by an amount that varies
    // from run to run, so that peak is reported on stderr only.
    let open_rss_mb = peak_rss_mb();
    if let Err(e) = clock.batch().1 {
        tally.op(Err(format!("daemon: {e}")));
    }
    let closed_start = Instant::now();
    let closed_for = ctx.seconds - warm_for - open_for;
    let closed = serve::drive(
        &bind,
        &docs,
        CONNS,
        Pace::Closed { window: WINDOW },
        closed_for,
        None,
        1 << 32,
    );
    let closed_s = closed_start.elapsed().as_secs_f64();
    if let Err(e) = clock.batch().1 {
        tally.op(Err(format!("daemon: {e}")));
    }
    eprintln!(
        "peak rss: {open_rss_mb:.1} MB after the open loop, {:.1} MB after the closed loop",
        peak_rss_mb()
    );
    daemon.trigger_shutdown();
    let report = daemon.wait();

    // Output checks: one terminal answer per job, whose makespan equals
    // `run_one` on the same spec.
    let options = serve::options(&ctx.dir);
    let mut ratios = Vec::new();
    let expected: Vec<Option<String>> = docs
        .iter()
        .enumerate()
        .map(
            |(i, d)| match rigid_serve::run_one(&serve::spec(d, i as u64 + 1), &options) {
                rigid_serve::Response::Result(r) => {
                    ratios.push(r.ratio_to_lb);
                    Some(r.makespan)
                }
                other => {
                    tally.fail(format!("run_one on {}: {other:?}", d.name));
                    None
                }
            },
        )
        .collect();
    let verify = |done: Result<Vec<serve::Done>, String>, tally: &mut Tally| -> Vec<serve::Done> {
        match done {
            Ok(done) => {
                for job in &done {
                    tally.op(match serve::outcome(job) {
                        Ok(m) if expected[job.doc].as_deref() == Some(m) => Ok(()),
                        Ok(m) => Err(format!("job {}: makespan {m} differs from run_one", job.id)),
                        Err(_) => Err(format!("job {}: {:?}", job.id, job.response)),
                    });
                }
                done
            }
            Err(e) => {
                tally.op(Err(e));
                Vec::new()
            }
        }
    };
    let warm = verify(warm, &mut tally);
    let open = verify(open, &mut tally);
    let closed = verify(closed, &mut tally);
    let answered = (warm.len() + open.len() + closed.len()) as u64;
    if report.jobs_completed + report.jobs_failed != answered {
        tally.fail(format!(
            "daemon finished {} jobs but clients got {answered} answers",
            report.jobs_completed + report.jobs_failed
        ));
    }

    let latencies: Vec<f64> = open.iter().map(serve::Done::latency_ms).collect();
    let spread: Vec<String> = [0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 1.0]
        .iter()
        .map(|&q| format!("p{}={:.2}", q * 100.0, quantile(&latencies, q)))
        .collect();
    eprintln!(
        "open-loop latency (ms) over {} jobs: {}",
        latencies.len(),
        spread.join(" ")
    );
    // Open-loop median latency: the median over one-second windows (by
    // due time) of each window's median, so a burst of host noise in
    // part of the run does not move it.
    let origin = open.iter().map(|j| j.due).min();
    let mut by_window: Vec<Vec<f64>> = Vec::new();
    for job in &open {
        let k = origin.map_or(0, |o| job.due.duration_since(o).as_secs() as usize);
        if by_window.len() <= k {
            by_window.resize(k + 1, Vec::new());
        }
        by_window[k].push(job.latency_ms());
    }
    let window_p50: Vec<f64> = by_window.iter().map(|w| median(w)).collect();
    eprintln!("open-loop median latency per one-second window (ms): {window_p50:.2?}");
    // Closed-loop throughput: the median over whole one-second windows.
    let mut windows = vec![0usize; closed_s.floor().max(1.0) as usize];
    for job in &closed {
        let k = job.recv.duration_since(closed_start).as_secs() as usize;
        if let Some(w) = windows.get_mut(k) {
            *w += 1;
        }
    }
    let jobs_per_s = median(&windows.iter().map(|&n| n as f64).collect::<Vec<_>>());
    eprintln!("closed-loop jobs per one-second window: {windows:?}");
    let closed_tasks: usize = closed.iter().map(|j| docs[j.doc].tasks()).sum();
    let (setup_s, setups) = clock.finish();
    let mut values = Values::new();
    common(&mut values, setup_s, open_rss_mb);
    values.insert(
        "tasks_per_s",
        jobs_per_s * ratio(closed_tasks as f64, closed.len() as f64),
    );
    values.insert("trials_per_s", jobs_per_s);
    values.insert("jobs_per_s", jobs_per_s);
    values.insert("job_p50_ms", median(&window_p50));
    values.insert("makespan_ratio", geomean(&ratios));
    Outcome {
        tally,
        values,
        inputs_fp,
        samples: vec![
            ("setups", setups),
            ("open_loop_jobs", open.len()),
            ("open_loop_windows", window_p50.len()),
            ("closed_loop_jobs", closed.len()),
            ("closed_loop_windows", windows.len()),
        ],
    }
}
