//! The repository benchmark: cold CSV-to-accuracy training on wide
//! (`nt3_wide`) and narrow (`p1b3_narrow`) data, and open-loop NT3
//! serving (`nt3_serve`).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload nt3_wide --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics on the product path with no
//! tracing; `--trace 1` runs the traced runner and reports the per-layer
//! metrics (see `perfbench/README.md`). Human-readable lines come first;
//! the last line of standard output is one JSON object. The exit code is 0
//! only when every output check passed.
//!
//! Inputs, caches and traces live under `.bench_work/` in the current
//! directory. The CSV is read back from a warm OS page cache (it was just
//! written), so disk I/O is not measured.

mod probe;
mod serving;
mod stats;
mod sys;
mod trace;
mod train;

use std::path::Path;
use std::process::ExitCode;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a layer
/// the workload bypasses reads 0.
const PER_LAYER: [(&str, &str); 33] = [
    ("dataio.read_s", "s"),
    ("dataio.scan_s", "s"),
    ("dataio.parse_s", "s"),
    ("dataio.mib_per_s", "MiB/s"),
    ("datacache.build_s", "s"),
    ("datacache.decode_s", "s"),
    ("datacache.prefetch_wait_s", "s"),
    ("candle.load_s", "s"),
    ("candle.load_other_s", "s"),
    ("collectives.broadcast_s", "s"),
    ("collectives.sync_s", "s"),
    ("collectives.sync_ms_p50", "ms"),
    ("collectives.sync_ms_tail", "ms"),
    ("collectives.bytes", "bytes"),
    ("collectives.messages", "count"),
    ("dlframe.batch_s", "s"),
    ("dlframe.forward_s", "s"),
    ("dlframe.backward_s", "s"),
    ("dlframe.update_s", "s"),
    ("dlframe.step_ms_p50", "ms"),
    ("dlframe.step_ms_tail", "ms"),
    ("dlframe.evaluate_s", "s"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("tensor.conv_gflops", "GFLOP/s"),
    ("serve.submit_us_p99", "us"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.forward_ms_p50", "ms"),
    ("serve.forward_ms_p99", "ms"),
    ("serve.mean_batch", "count"),
    ("serve.shed", "count"),
    ("loadgen.late_ms_max", "ms"),
    ("trace.residual_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// Metric values a workload measured, plus notes for the human-readable
/// report and the spans of its traced runs.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
    notes: Vec<String>,
    trace: Vec<trace::SpanLog>,
}

impl Metrics {
    /// Records metric `name`, which must be one of the tables above.
    pub fn push(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.push((name, value));
    }

    /// Records a `*_tail` metric: the highest percentile of `samples` with
    /// at least ten samples beyond it, noting which one and the count.
    pub fn push_tail(&mut self, name: &'static str, samples: &[f64]) {
        let t = stats::tail(samples);
        self.push(name, t.value);
        self.note(format!("{name} is p{} over {} samples", t.pct, t.count));
    }

    /// Adds a line to the human-readable report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// Counts operations (runs, requests and output checks) and failed ones,
/// naming each failure on stderr.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Records one operation or check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }
}

/// A workload's result.
pub struct Outcome {
    /// What it measured.
    pub metrics: Metrics,
    /// Its operations and output checks.
    pub tally: Tally,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} is outside (0, 120]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "nt3_wide" => train::run(
            &train::TrainWorkload::nt3_wide(),
            args.seed,
            args.seconds,
            args.trace,
            work,
        ),
        "p1b3_narrow" => train::run(
            &train::TrainWorkload::p1b3_narrow(),
            args.seed,
            args.seconds,
            args.trace,
            work,
        ),
        "nt3_serve" => serving::run(args.seed, args.seconds, args.trace),
        other => Err(format!(
            "unknown workload {other}; expected nt3_wide, p1b3_narrow or nt3_serve"
        )),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = Path::new(".bench_work");
    if let Err(e) = std::fs::create_dir_all(work) {
        eprintln!("perfbench: {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let outcome = match run(&args, work) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let m = &outcome.metrics;
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "workload {} seed {} ({}; {} threads available)",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut json = Vec::new();
    let mut ok = outcome.tally.failed == 0;
    for &(name, unit) in table {
        let value = m.get(name).unwrap_or(0.0);
        if !value.is_finite() {
            eprintln!("CHECK FAILED: {name} is {value}");
            ok = false;
        }
        println!("{name} = {value} {unit}");
        json.push(format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            if value.is_finite() { value } else { 0.0 }
        ));
    }
    for line in &m.notes {
        println!("{line}");
    }
    println!(
        "error_rate = {} ({} failed of {} attempted)",
        outcome.tally.failed as f64 / outcome.tally.attempted.max(1) as f64,
        outcome.tally.failed,
        outcome.tally.attempted
    );
    if !m.trace.is_empty() {
        let path = work.join(format!("trace-{}-{}.json", args.workload, args.seed));
        match trace::write_chrome_trace(&path, &m.trace) {
            Ok(()) => println!("chrome trace: {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    println!(
        "{{\"correct\":{ok},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.tally.attempted.max(1),
        outcome.tally.failed,
        json.join(",")
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
