//! End-to-end benchmark of the catbatch CLI, fault-campaign and serve
//! paths, with a traced per-layer breakdown.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload cli-large --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Inputs are generated from `--seed` during set-up; the program sees
//! only `.rigid` text and serve frames. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). See `README.md` beside this file.

mod cpu;
mod inputs;
mod layers;
mod report;
mod serve;
mod trace;
mod traced;
mod workloads;

use catbatch_cli::{parse_args, run_command};
use inputs::Scale;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Scratch space of a run, relative to the directory it runs in.
const WORK: &str = ".e2ebench";

/// The seed kept out of tuning, for confirming claims.
pub const HELD_OUT_SEED: u64 = 9001;

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &["cli-large", "campaign", "serve-small"];

/// One run's settings.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub scale: Scale,
    /// This run's private scratch directory.
    pub dir: PathBuf,
}

impl Ctx {
    /// Where a traced run writes its spans.
    pub fn trace_path(&self) -> PathBuf {
        Path::new(WORK).join(format!("spans-{}-seed{}.jsonl", self.workload, self.seed))
    }
}

/// `parse_args` + `run_command`, as the `catbatch` binary does them.
pub fn run_cli<S: AsRef<str>>(
    argv: &[S],
    read: &dyn Fn(&str) -> Result<String, String>,
) -> Result<String, String> {
    parse_args(argv).and_then(|cmd| run_command(&cmd, read))
}

fn parse(args: &[String]) -> Result<Ctx, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (try: {})",
            WORKLOADS.join(", ")
        ));
    }
    let dir = Path::new(WORK).join(format!("run-{}", std::process::id()));
    Ok(Ctx {
        workload,
        seed,
        seconds: Duration::from_secs(seconds.max(1)),
        trace,
        scale: Scale::Full,
        dir,
    })
}

/// Runs one workload and returns the two output lines: the run's
/// identity (seed, input fingerprint, sample counts) and the result.
pub fn execute(ctx: &Ctx) -> Result<[String; 2], String> {
    std::fs::create_dir_all(&ctx.dir)
        .map_err(|e| format!("cannot create {}: {e}", ctx.dir.display()))?;
    let outcome = match ctx.workload.as_str() {
        "cli-large" => workloads::cli_large(ctx),
        "campaign" => workloads::campaign(ctx),
        _ => workloads::serve_small(ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.dir);
    for note in &outcome.tally.notes {
        eprintln!("check failed: {note}");
    }
    let samples: Vec<String> = outcome
        .samples
        .iter()
        .map(|(k, n)| format!("\"{k}\": {n}"))
        .collect();
    let identity = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \"inputs_fp\": \"{:016x}\", \"trace\": {}, \"samples\": {{{}}}}}",
        ctx.workload,
        ctx.seed,
        outcome.inputs_fp,
        ctx.trace,
        samples.join(", ")
    );
    let catalogue = if ctx.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    if let Some((name, _)) = catalogue
        .iter()
        .find(|(n, _)| !outcome.values.contains_key(n))
    {
        return Err(format!("metric {name} was not measured"));
    }
    Ok([
        identity,
        report::emit(&outcome.tally, catalogue, &outcome.values),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match execute(&ctx) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one `BENCHMARK.json` metric list.
    fn declared(json: &serde_json::Value, list: &str) -> Vec<(String, String)> {
        use serde_json::Value;
        let field = |v: &Value, key: &str| -> Value {
            let Value::Object(fields) = v else {
                panic!("expected an object holding {key}")
            };
            let found = fields.iter().find(|(k, _)| k == key);
            found.map(|(_, v)| v.clone()).unwrap_or(Value::Null)
        };
        let Value::Array(items) = field(json, list) else {
            panic!("{list} is a list")
        };
        let text = |m: &Value, key: &str| match field(m, key) {
            Value::Str(s) => s,
            other => panic!("{key}: {other:?}"),
        };
        items
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit")))
            .collect()
    }

    /// The catalogue matches `BENCHMARK.json`, and every workload, run
    /// at tiny sizes with and without tracing, passes its output checks
    /// and emits every metric of the catalogue with its unit.
    #[test]
    fn every_workload_emits_every_metric() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
                .expect("valid JSON");
        for (list, catalogue) in [
            ("end_to_end", report::END_TO_END),
            ("per_layer", report::PER_LAYER),
        ] {
            let ours: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(
                declared(&json, list),
                ours,
                "{list} differs from BENCHMARK.json"
            );
        }
        for workload in WORKLOADS {
            for trace in [false, true] {
                let ctx = Ctx {
                    workload: workload.to_string(),
                    seed: 3,
                    seconds: Duration::from_secs(1),
                    trace,
                    scale: Scale::Tiny,
                    dir: Path::new(WORK).join(format!("test-{workload}-{trace}")),
                };
                let [identity, result] = execute(&ctx).expect("workload runs");
                assert!(identity.contains("\"seed\": 3"), "{identity}");
                assert!(
                    result.starts_with("{\"correct\": true,"),
                    "{workload} trace={trace}: {result}"
                );
                let catalogue = if trace {
                    report::PER_LAYER
                } else {
                    report::END_TO_END
                };
                for (name, unit) in catalogue {
                    let field = format!("\"{name}\": {{\"value\": ");
                    assert!(result.contains(&field), "{workload} lacks {name}: {result}");
                    assert!(result.contains(&format!("\"unit\": \"{unit}\"")), "{name}");
                }
            }
        }
    }
}
