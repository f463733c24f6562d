//! The span recorder and the timing wrappers used by traced runs.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a crate's public functions. Engine callbacks (scheduler and
//! source) fire tens of thousands of times per run, so the wrappers sum
//! their time into per-run totals instead of recording one span each.

use rigid_dag::{InstanceSource, ReleasedTask, TaskId};
use rigid_sim::{FailureResponse, OnlineScheduler};
use rigid_time::Time;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One timed call: `[start, end)` in nanoseconds since the tracer's
/// epoch, the span that caused it, the request it belongs to, and the
/// work it did (tasks parsed, records written, ...).
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub req: u64,
    pub work: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Records spans in memory. A disabled tracer runs the same closures
/// and records nothing, which is how the overhead of tracing is found.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    totals: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            req,
            work: 0,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.now();
        out
    }

    /// Sets the work count of the innermost open span.
    pub fn work(&mut self, work: u64) {
        if let Some(&index) = self.open.last() {
            self.spans[index].work += work;
        }
    }

    /// Records an already-finished interval (measured where the tracer
    /// could not be reached, e.g. inside a supervised job) as a child of
    /// span `under`, or of the innermost open span when `under` is
    /// `None`. Returns the new span's index.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        start: Instant,
        end: Instant,
        work: u64,
        under: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent: under.or_else(|| self.open.last().copied()),
            req,
            work,
        });
        Some(self.spans.len() - 1)
    }

    /// Adds to a named total (callback time, counters).
    pub fn add(&mut self, name: &'static str, amount: u64) {
        if self.enabled {
            *self.totals.entry(name).or_default() += amount;
        }
    }

    /// Raises a named total to at least `value` (peaks).
    pub fn max(&mut self, name: &'static str, value: u64) {
        if self.enabled {
            let slot = self.totals.entry(name).or_default();
            *slot = (*slot).max(value);
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn total(&self, name: &str) -> u64 {
        self.totals.get(name).copied().unwrap_or(0)
    }

    /// Summed duration of every span called `name`, in milliseconds.
    pub fn sum_ms(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.ns()).sum::<u64>() as f64 / 1e6
    }

    /// Summed work of every span called `name`.
    pub fn sum_work(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.work).sum()
    }

    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Durations of the spans called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.ns() as f64 / 1e6).collect()
    }

    /// `(request, duration in ms)` of the spans called `name`.
    pub fn spans_named(&self, name: &str) -> Vec<(u64, f64)> {
        self.named(name)
            .map(|s| (s.req, s.ns() as f64 / 1e6))
            .collect()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Time each span's direct children cover, in nanoseconds, by span.
    fn child_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.ns();
            }
        }
        child_ns
    }

    /// Self time per span name: each span's duration minus the part of
    /// it that its children cover, summed by name, in milliseconds.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(self.child_ns()) {
            *out.entry(span.name).or_default() += span.ns().saturating_sub(children) as f64 / 1e6;
        }
        out
    }

    /// Share of the root spans called `name` that their direct children
    /// cover: the lowest such share over all those roots.
    pub fn min_coverage(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .zip(self.child_ns())
            .filter(|(s, _)| s.name == name && s.ns() > 0)
            .map(|(s, c)| c as f64 / s.ns() as f64)
            .fold(f64::INFINITY, f64::min)
    }

    /// The spans as JSON lines, for writing out at the end of a run.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}, \"work\": {}}}\n",
                s.name, s.start, s.end, s.req, s.work
            ));
        }
        out
    }
}

/// Time and counts of the calls one [`TimedScheduler`] received.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedTiming {
    /// Time in every scheduler callback, `decide_into` included.
    pub callback_ns: u64,
    pub decide_ns: u64,
    pub decide_calls: u64,
    /// `decide_into` calls that started nothing.
    pub empty_decides: u64,
}

/// An [`OnlineScheduler`] that forwards every call and times it.
pub struct TimedScheduler<S> {
    inner: S,
    pub timing: SchedTiming,
}

impl<S> TimedScheduler<S> {
    pub fn new(inner: S) -> Self {
        TimedScheduler {
            inner,
            timing: SchedTiming::default(),
        }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut S) -> R) -> R {
        let t = Instant::now();
        let out = f(&mut self.inner);
        self.timing.callback_ns += t.elapsed().as_nanos() as u64;
        out
    }
}

impl<S: OnlineScheduler> OnlineScheduler for TimedScheduler<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_release(&mut self, task: &ReleasedTask, now: Time) {
        self.timed(|s| s.on_release(task, now));
    }

    fn on_complete(&mut self, task: TaskId, now: Time) {
        self.timed(|s| s.on_complete(task, now));
    }

    fn decide(&mut self, now: Time, free_procs: u32) -> Vec<TaskId> {
        let mut out = Vec::new();
        self.decide_into(now, free_procs, &mut out);
        out
    }

    fn decide_into(&mut self, now: Time, free_procs: u32, out: &mut Vec<TaskId>) {
        let before = out.len();
        let t = Instant::now();
        self.inner.decide_into(now, free_procs, out);
        let ns = t.elapsed().as_nanos() as u64;
        self.timing.callback_ns += ns;
        self.timing.decide_ns += ns;
        self.timing.decide_calls += 1;
        if out.len() == before {
            self.timing.empty_decides += 1;
        }
    }

    fn on_failure(&mut self, task: TaskId, now: Time) -> FailureResponse {
        self.timed(|s| s.on_failure(task, now))
    }
}

/// An [`InstanceSource`] that forwards every call and times the release
/// callbacks.
pub struct TimedSource<S> {
    inner: S,
    pub release_ns: u64,
}

impl<S> TimedSource<S> {
    pub fn new(inner: S) -> Self {
        TimedSource {
            inner,
            release_ns: 0,
        }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut S) -> R) -> R {
        let t = Instant::now();
        let out = f(&mut self.inner);
        self.release_ns += t.elapsed().as_nanos() as u64;
        out
    }
}

impl<S: InstanceSource> InstanceSource for TimedSource<S> {
    fn procs(&self) -> u32 {
        self.inner.procs()
    }

    fn initial_into(&mut self, out: &mut Vec<ReleasedTask>) {
        self.timed(|s| s.initial_into(out));
    }

    fn on_complete_into(
        &mut self,
        task: TaskId,
        completion_index: u64,
        out: &mut Vec<ReleasedTask>,
    ) {
        self.timed(|s| s.on_complete_into(task, completion_index, out));
    }

    fn expects_more(&self) -> bool {
        self.inner.expects_more()
    }

    fn next_timed_release(&self, now: Time) -> Option<Time> {
        self.inner.next_timed_release(now)
    }

    fn timed_releases_into(&mut self, now: Time, out: &mut Vec<ReleasedTask>) {
        self.timed(|s| s.timed_releases_into(now, out));
    }

    fn task_count_hint(&self) -> Option<usize> {
        self.inner.task_count_hint()
    }
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
