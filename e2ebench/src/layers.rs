//! Calls into each crate's public functions, one function per layer
//! boundary. Each wraps its call in a span; with a disabled tracer the
//! same code runs untimed and unwrapped.

use crate::report::{check, ratio, Values};
use crate::trace::{SchedTiming, TimedScheduler, TimedSource, Tracer};
use catbatch::analysis::{attribute_table, decompose};
use catbatch::CatBatch;
use rigid_dag::{analysis, format, Instance, StaticSource};
use rigid_faults::{FaultConfig, FaultInjector, TrialStats};
use rigid_sim::{metrics, EngineConfig, EngineScratch, RunError, RunResult};
use rigid_time::Time;
use std::time::Instant;

/// Fail-stop chance per attempt (‰) and CatBatch's retry budget: the
/// `faults --fail 200 --retries 3` configuration every faulty trial uses.
pub const FAIL_PERMILLE: u32 = 200;
pub const RETRIES: u32 = 3;

/// The fault configuration `catbatch faults --fail 200 --retries 3`
/// builds.
pub fn fault_config() -> FaultConfig {
    FaultConfig {
        fail_permille: FAIL_PERMILLE,
        max_failures_per_task: RETRIES,
        straggle_permille: 0,
        straggle_factor_permille: (1250, 2000),
        dips: Vec::new(),
    }
}

/// `format::parse`, span `dag.parse`.
pub fn parse(t: &mut Tracer, req: u64, text: &str) -> Result<Instance, String> {
    t.span("dag.parse", req, |t| {
        let inst = format::parse(text).map_err(|e| format!("parse: {e}"))?;
        t.work(inst.len() as u64);
        Ok(inst)
    })
}

/// The `analyze` path's analysis: statistics, attribute table and
/// category decomposition, span `core.decompose`. Returns the batch
/// count.
pub fn analyze(t: &mut Tracer, req: u64, inst: &Instance) -> usize {
    t.span("core.decompose", req, |_| {
        let stats = analysis::stats(inst);
        let table = attribute_table(inst);
        let d = decompose(inst);
        std::hint::black_box((stats, table));
        d.batch_count()
    })
}

/// Callback time and wall interval of one wrapped engine run.
pub struct RunTiming {
    pub release_ns: u64,
    pub sched: SchedTiming,
    pub start: Instant,
    pub end: Instant,
}

/// One CatBatch engine run through the timing wrappers, with the retry
/// budget under faults (as `catbatch faults` builds it) and without
/// otherwise (as `catbatch schedule` does).
pub fn run_timed(
    inst: &Instance,
    faults: Option<&mut FaultInjector>,
    scratch: Option<&mut EngineScratch>,
) -> (Result<RunResult, RunError>, RunTiming) {
    let sched = if faults.is_some() {
        CatBatch::new().with_retry_budget(RETRIES)
    } else {
        CatBatch::new()
    };
    let mut source = TimedSource::new(StaticSource::new(inst.clone()));
    let mut sched = TimedScheduler::new(sched);
    let start = Instant::now();
    let result = config(faults, scratch).try_run(&mut source, &mut sched);
    let end = Instant::now();
    (
        result,
        RunTiming {
            release_ns: source.release_ns,
            sched: sched.timing,
            start,
            end,
        },
    )
}

fn config<'a>(
    faults: Option<&'a mut FaultInjector>,
    scratch: Option<&'a mut EngineScratch>,
) -> EngineConfig<'a> {
    let mut config = EngineConfig::new();
    if let Some(f) = faults {
        config = config.faults(f);
    }
    if let Some(s) = scratch {
        config = config.scratch(s);
    }
    config
}

/// Adds a wrapped run's callback time and engine counters to the
/// tracer's totals.
pub fn note_run(t: &mut Tracer, timing: &RunTiming, result: &Result<RunResult, RunError>) {
    t.add("dag.release_ns", timing.release_ns);
    t.add("core.sched_ns", timing.sched.callback_ns);
    t.add("core.decide_ns", timing.sched.decide_ns);
    t.add("core.decide_calls", timing.sched.decide_calls);
    t.add("core.empty_decides", timing.sched.empty_decides);
    if let Ok(r) = result {
        let s = r.stats;
        t.add("sim.events", s.events);
        t.add("sim.decide_calls", s.decide_calls);
        t.add("sim.queue_pushes", s.queue_pushes);
        t.add("sim.queue_pops", s.queue_pops);
        t.add("sim.batches", s.batches);
        t.add("time.rational_fallbacks", s.rational_fallbacks);
        t.max("sim.peak_ready", s.peak_ready);
    }
}

/// One fault-free CatBatch run, span `sim.run`: through the timing
/// wrappers when tracing, plain otherwise.
pub fn run(t: &mut Tracer, req: u64, inst: &Instance) -> Result<RunResult, RunError> {
    if !t.enabled() {
        return EngineConfig::new()
            .try_run(&mut StaticSource::new(inst.clone()), &mut CatBatch::new());
    }
    let (result, timing) = run_timed(inst, None, None);
    let events = result.as_ref().map_or(0, |r| r.stats.events);
    t.record("sim.run", req, timing.start, timing.end, events, None);
    note_run(t, &timing, &result);
    result
}

/// Checks that a wrapped run made the same decisions as the plain run:
/// equal engine counters, decision count and makespan.
pub fn same_run(what: &str, wrapped: &RunResult, plain: &RunResult) -> Result<(), String> {
    check(
        wrapped.stats == plain.stats
            && wrapped.decisions == plain.decisions
            && wrapped.makespan() == plain.makespan(),
        || format!("{what}: the wrapped run differs from the plain run"),
    )
}

/// What the `schedule` path reports for one document.
pub struct Scheduled {
    pub makespan: Time,
    pub ratio: f64,
    pub run: RunResult,
}

impl Scheduled {
    /// The report lines `catbatch schedule` prints for this schedule.
    pub fn report_lines(&self) -> [String; 2] {
        [
            format!("makespan     : {}", self.makespan),
            format!("ratio        : {:.4}", self.ratio),
        ]
    }

    /// Checks the CLI's report against this pipeline's numbers.
    pub fn matches_report(&self, what: &str, report: &str) -> Result<(), String> {
        let lines = self.report_lines();
        check(lines.iter().all(|l| report.lines().any(|r| r == l)), || {
            format!("{what}: report does not show {lines:?}")
        })
    }
}

/// `catbatch schedule` through the public functions: parse, engine run,
/// `Schedule::validate`, `metrics::metrics`, under root span
/// `cmd.schedule`.
pub fn schedule(t: &mut Tracer, req: u64, text: &str) -> Result<Scheduled, String> {
    t.span("cmd.schedule", req, |t| {
        let inst = parse(t, req, text)?;
        schedule_parsed(t, req, &inst)
    })
}

/// The `schedule` path after parsing.
pub fn schedule_parsed(t: &mut Tracer, req: u64, inst: &Instance) -> Result<Scheduled, String> {
    let run = run(t, req, inst).map_err(|e| format!("run: {e}"))?;
    let violations = t.span("sim.validate", req, |_| run.schedule.validate(inst));
    check(violations.is_empty(), || {
        format!("invalid schedule: {violations:?}")
    })?;
    let m = t.span("sim.metrics", req, |_| {
        metrics::metrics(&run.schedule, inst)
    });
    Ok(Scheduled {
        makespan: m.makespan,
        ratio: m.ratio_to_lb.to_f64(),
        run,
    })
}

/// `catbatch analyze` through the public functions, under root span
/// `cmd.analyze`. Returns the category batch count.
pub fn analyze_text(t: &mut Tracer, req: u64, text: &str) -> Result<usize, String> {
    t.span("cmd.analyze", req, |t| {
        let inst = parse(t, req, text)?;
        Ok(analyze(t, req, &inst))
    })
}

/// A faulty trial's result in the shape `run_trial_reusing` reports.
pub fn trial_stats(
    seed: u64,
    inst: &Instance,
    run: &Result<RunResult, RunError>,
    injected_failures: u64,
) -> TrialStats {
    match run {
        Ok(r) => TrialStats {
            seed,
            outcome: Ok(r.makespan()),
            failures: r.faults.failures,
            wasted_area: r.faults.wasted_area,
            inflated_area: r.faults.inflated_area,
            min_capacity: r.faults.min_capacity,
        },
        Err(e) => TrialStats {
            seed,
            outcome: Err(e.clone().into()),
            failures: injected_failures,
            wasted_area: Time::ZERO,
            inflated_area: Time::ZERO,
            min_capacity: inst.procs(),
        },
    }
}

/// The per-layer metrics every workload derives the same way from its
/// tracer, averaged over `passes`.
pub fn engine_layers(t: &Tracer, passes: usize, v: &mut Values) {
    let per = |x: f64| x / passes as f64;
    let ms = |name: &str| t.total(name) as f64 / 1e6;
    let parse_ms = t.sum_ms("dag.parse");
    let run_ms = t.sum_ms("sim.run");
    let events = t.total("sim.events") as f64;
    v.insert("dag.parse_ms", per(parse_ms));
    v.insert(
        "dag.parse_ns_per_task",
        ratio(parse_ms * 1e6, t.sum_work("dag.parse") as f64),
    );
    v.insert("dag.release_ms", per(ms("dag.release_ns")));
    v.insert("core.decompose_ms", per(t.sum_ms("core.decompose")));
    v.insert("core.sched_ms", per(ms("core.sched_ns")));
    let calls = t.total("core.decide_calls") as f64;
    v.insert(
        "core.decide_ns",
        ratio(t.total("core.decide_ns") as f64, calls),
    );
    v.insert(
        "core.empty_decide_frac",
        ratio(t.total("core.empty_decides") as f64, calls),
    );
    v.insert("sim.run_ms", per(run_ms));
    v.insert(
        "sim.engine_self_ms",
        per(run_ms - ms("core.sched_ns") - ms("dag.release_ns")),
    );
    v.insert("sim.events", per(events));
    v.insert("sim.events_per_s", ratio(events, run_ms / 1e3));
    v.insert(
        "sim.decide_per_event",
        ratio(t.total("sim.decide_calls") as f64, events),
    );
    v.insert(
        "sim.events_per_batch",
        ratio(
            t.total("sim.queue_pops") as f64,
            t.total("sim.batches") as f64,
        ),
    );
    v.insert("sim.peak_ready", t.total("sim.peak_ready") as f64);
    v.insert("sim.validate_ms", per(t.sum_ms("sim.validate")));
    v.insert("sim.metrics_ms", per(t.sum_ms("sim.metrics")));
    v.insert(
        "time.rational_fallbacks",
        per(t.total("time.rational_fallbacks") as f64),
    );
    v.insert(
        "time.fallback_frac",
        ratio(
            t.total("time.rational_fallbacks") as f64,
            t.total("sim.queue_pushes") as f64,
        ),
    );
    v.insert("cli.analyze_ms", per(t.sum_ms("cli.analyze")));
    v.insert("cli.schedule_ms", per(t.sum_ms("cli.schedule")));
}
