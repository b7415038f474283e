//! The open-loop NT3 serving workload.
//!
//! The served model is NT3 at the `nt3_wide` geometry with its seeded
//! initial weights (weights do not change the cost of a forward pass).
//! Requests are `serve::request_row` rows from the seed, built before
//! every timed window. Two kinds of traffic run against
//! `serve::ServeEngine` with `ServeConfig::default()`:
//!
//! * offline batches — every distinct row three times, in seeded order,
//!   submitted at once; their wall time is `run_s`;
//! * open-loop Poisson arrivals from one submitting thread with replies
//!   collected on a second, at a low rate, a high rate and a rate ladder.
//!   Latency is timed from each request's due time: how late it was
//!   submitted plus the engine's submit-to-reply time.

use crate::stats::{median, percentile};
use crate::sys;
use crate::trace::SpanLog;
use crate::{Metrics, Outcome, Tally};
use candle::{BenchDataKind, BenchId};
use serve::{ServeConfig, ServeEngine, ServeError, ServeHandle, Ticket};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tensor::Tensor;
use xrng::RandomSource;

/// Latency limit on p99 from due time.
const LATENCY_LIMIT_MS: f64 = 100.0;
/// The fixed low ("idle") and high open-loop rates, requests per second.
/// A request shed at these rates is a failed operation, so the high rate
/// stays well below capacity (~2,800 rps on two cores): it still holds
/// when a busy host takes half of that away.
const LOW_RPS: f64 = 400.0;
const HIGH_RPS: f64 = 1200.0;
/// The capacity ladder, requests per second.
const LADDER_RPS: [f64; 6] = [1200.0, 1600.0, 2000.0, 2400.0, 2800.0, 3200.0];
/// In-flight requests left when the last arrival is submitted above which
/// a rate counts as building a backlog (four full batches).
const BACKLOG_LIMIT: usize = 64;
/// Distinct request rows: the size of NT3's test split.
const DISTINCT_ROWS: usize = 280;
/// Each offline batch serves every distinct row this many times (840
/// requests, within the default in-flight capacity of 1,024).
const OFFLINE_PASSES: usize = 3;
/// Set-ups per untraced invocation. One takes only tens of milliseconds,
/// so more of them steady the median.
const SETUP_REPS: usize = 15;

/// The rows requests carry, and the replies they must get.
struct Prepared {
    rows: Vec<Vec<f32>>,
    /// `Sequential::predict` on each row alone: every reply must equal it.
    expected: Vec<Vec<f32>>,
}

/// Set-up: build the model, start the engine and warm it by serving every
/// distinct row once.
fn start_engine(
    rows: &[Vec<f32>],
    seed: u64,
) -> Result<(ServeEngine, Arc<dlframe::Sequential>), String> {
    // Serving never steps the optimizer; the training rate just fills it.
    let (model, _) = candle::build_model(BenchId::Nt3, rows[0].len(), crate::train::BASE_LR, seed);
    let model = Arc::new(model);
    let engine = ServeEngine::start(Arc::clone(&model), ServeConfig::default());
    let handle = engine.handle();
    let tickets: Vec<Ticket> = rows
        .iter()
        .map(|r| {
            handle
                .submit(r.clone())
                .map_err(|e| format!("warm-up: {e:?}"))
        })
        .collect::<Result<_, _>>()?;
    for t in tickets {
        t.wait().map_err(|e| format!("warm-up: {e:?}"))?;
    }
    Ok((engine, model))
}

/// One offline batch.
struct Batch {
    wall: f64,
    cpu: f64,
}

fn offline_batch(
    p: &Prepared,
    handle: &ServeHandle,
    order: &[usize],
    tally: &mut Tally,
    mut log: Option<&mut SpanLog>,
) -> Batch {
    let rows: Vec<Vec<f32>> = order.iter().map(|&i| p.rows[i].clone()).collect();
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let root = log.as_mut().map(|l| l.open("batch", None));
    let mut tickets = Vec::with_capacity(rows.len());
    for (k, row) in rows.into_iter().enumerate() {
        let span = log.as_mut().map(|l| l.open("submit", root));
        match handle.submit(row) {
            Ok(t) => tickets.push((k, t)),
            Err(e) => tally.check(false, || format!("offline submit: {e:?}")),
        }
        if let (Some(l), Some(s)) = (log.as_mut(), span) {
            l.close(s);
        }
    }
    for (k, t) in tickets {
        let span = log.as_mut().map(|l| l.open("reply", root));
        let reply = t.wait();
        if let (Some(l), Some(s)) = (log.as_mut(), span) {
            l.close(s);
        }
        let row = order[k];
        match reply {
            Ok(pred) => {
                tally.check(pred.output == p.expected[row], || {
                    format!("offline reply for row {row} differs from predict")
                });
            }
            Err(e) => tally.check(false, || format!("offline reply: {e:?}")),
        }
    }
    if let (Some(l), Some(r)) = (log, root) {
        l.close(r);
    }
    Batch {
        wall: t0.elapsed().as_secs_f64(),
        cpu: sys::cpu_seconds() - cpu0,
    }
}

/// Seeded order of one offline batch: every test row, several times.
fn offline_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..OFFLINE_PASSES * n).map(|i| i % n).collect();
    xrng::shuffle(
        &mut order,
        &mut xrng::seeded(xrng::derive_seed(seed, 0x0FF)),
    );
    order
}

/// One open-loop phase at a fixed rate.
#[derive(Default)]
struct Phase {
    rate: f64,
    window_s: f64,
    latency_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    submit_us: Vec<f64>,
    late_ms_max: f64,
    shed: u64,
    errors: u64,
    mismatched: u64,
    backlog: usize,
}

impl Phase {
    fn sent(&self) -> u64 {
        self.latency_ms.len() as u64 + self.shed + self.errors
    }

    fn p99(&self) -> f64 {
        percentile(&self.latency_ms, 99.0)
    }

    /// Replies within the latency limit per second of arrivals.
    fn goodput(&self) -> f64 {
        let good = self
            .latency_ms
            .iter()
            .filter(|&&l| l <= LATENCY_LIMIT_MS)
            .count();
        good as f64 / self.window_s
    }

    /// p99 within the limit, nothing shed or failed, no backlog left.
    fn sustained(&self) -> bool {
        self.p99() <= LATENCY_LIMIT_MS
            && self.shed == 0
            && self.errors == 0
            && self.backlog <= BACKLOG_LIMIT
    }
}

fn open_loop(
    p: &Prepared,
    handle: &ServeHandle,
    rate: f64,
    window_s: f64,
    seed: u64,
    mut log: Option<&mut SpanLog>,
) -> Phase {
    // Arrival times and rows come from the seed and are built before the
    // window opens.
    let mut rng = xrng::seeded(xrng::derive_seed(seed, rate as u64));
    let mut due = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= window_s {
            break;
        }
        due.push(Duration::from_secs_f64(t));
    }
    let picks: Vec<usize> = due
        .iter()
        .map(|_| (rng.next_u64() % p.rows.len() as u64) as usize)
        .collect();
    let rows: Vec<Vec<f32>> = picks.iter().map(|&i| p.rows[i].clone()).collect();
    let mut phase = Phase {
        rate,
        window_s,
        ..Phase::default()
    };
    let start = Instant::now();
    let root = log.as_mut().map(|l| l.open("open_loop", None));
    let (tx, rx) = mpsc::channel::<(usize, Duration, Ticket)>();
    let mut reply_log = log.as_ref().map(|l| l.sibling(1));
    let picks = &picks;
    let (latency_ms, queue_ms, mismatched, errors, reply_log) = std::thread::scope(|scope| {
        let replies = scope.spawn(move || {
            let (mut lat, mut queue, mut mismatched, mut errors) = (Vec::new(), Vec::new(), 0, 0);
            for (k, late, ticket) in rx {
                let span = reply_log.as_mut().map(|l| l.open("reply", None));
                let reply = ticket.wait();
                if let (Some(l), Some(s)) = (reply_log.as_mut(), span) {
                    l.close(s);
                }
                match reply {
                    Ok(pred) => {
                        lat.push((late + pred.latency).as_secs_f64() * 1e3);
                        queue.push(pred.enqueue_wait.as_secs_f64() * 1e3);
                        if pred.output != p.expected[picks[k]] {
                            mismatched += 1;
                        }
                    }
                    Err(_) => errors += 1,
                }
            }
            (lat, queue, mismatched, errors, reply_log)
        });
        for (k, row) in rows.into_iter().enumerate() {
            let due_at = start + due[k];
            let now = Instant::now();
            if due_at > now {
                std::thread::sleep(due_at - now);
            }
            let submitted = Instant::now();
            let late = submitted.saturating_duration_since(due_at);
            phase.late_ms_max = phase.late_ms_max.max(late.as_secs_f64() * 1e3);
            let result = handle.submit(row);
            let done = Instant::now();
            phase.submit_us.push((done - submitted).as_secs_f64() * 1e6);
            if let Some(l) = log.as_mut() {
                l.record("submit", root, submitted, done);
            }
            match result {
                Ok(ticket) => tx.send((k, late, ticket)).expect("reply thread is alive"),
                Err(ServeError::Overloaded { .. }) => phase.shed += 1,
                Err(_) => phase.errors += 1,
            }
        }
        phase.backlog = handle.depth();
        drop(tx);
        replies.join().expect("reply thread panicked")
    });
    if let (Some(l), Some(r)) = (log, root) {
        l.close(r);
        if let Some(replies) = reply_log {
            l.absorb(replies, r);
        }
    }
    phase.latency_ms = latency_ms;
    phase.queue_ms = queue_ms;
    phase.mismatched = mismatched;
    phase.errors += errors;
    phase
}

/// Runs the serving workload for about `seconds`.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let features = BenchDataKind::scaled(BenchId::Nt3, 20).features;
    let rows: Vec<Vec<f32>> = (0..DISTINCT_ROWS as u64)
        .map(|i| serve::request_row(seed, i, features))
        .collect();
    let t0 = Instant::now();
    let (engine, model) = start_engine(&rows, seed)?;
    let mut setups = vec![t0.elapsed().as_secs_f64()];
    let expected = rows
        .iter()
        .map(|r| {
            let x = Tensor::from_vec([1, features], r.clone()).expect("one row");
            Ok(model
                .predict(&x)
                .map_err(|e| e.to_string())?
                .data()
                .to_vec())
        })
        .collect::<Result<_, String>>()?;
    let p = Prepared { rows, expected };
    let handle = engine.handle();
    let order = offline_order(p.rows.len(), seed);
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    if traced {
        traced_metrics(&p, &handle, &order, seed, seconds, &mut tally, &mut m)?;
    } else {
        let start = Instant::now();
        sys::reset_peak_rss();
        let mut batches: Vec<Batch> = Vec::new();
        while batches.len() < 3 || start.elapsed().as_secs_f64() < 0.6 * seconds {
            batches.push(offline_batch(&p, &handle, &order, &mut tally, None));
        }
        let col = |f: fn(&Batch) -> f64| batches.iter().map(f).collect::<Vec<f64>>();
        m.push("run_s", median(&col(|b| b.wall)));
        // The mean, not the median: one batch is a few hundred 10 ms ticks.
        m.push(
            "cpu_s",
            col(|b| b.cpu).iter().sum::<f64>() / batches.len() as f64,
        );
        m.push("peak_rss_mib", sys::peak_rss_mib());
        m.note(format!(
            "offline batches: {} of {} requests; latency limit {LATENCY_LIMIT_MS} ms on p99 from due time",
            batches.len(),
            order.len()
        ));
        let low = open_loop(&p, &handle, LOW_RPS, 0.1 * seconds, seed, None);
        let high = open_loop(&p, &handle, HIGH_RPS, 0.15 * seconds, seed, None);
        for phase in [&low, &high] {
            count_phase(phase, &mut tally);
        }
        let step = 0.15 * seconds / LADDER_RPS.len() as f64;
        let mut max_rate = 0.0f64;
        for rate in LADDER_RPS {
            let phase = open_loop(&p, &handle, rate, step, seed, None);
            tally.attempted += phase.sent();
            tally.failed += phase.mismatched;
            m.note(format!(
                "ladder {rate} rps: p99 {:.3} ms over {}, shed {}, backlog {} -> {}",
                phase.p99(),
                phase.latency_ms.len(),
                phase.shed,
                phase.backlog,
                if phase.sustained() {
                    "sustained"
                } else {
                    "not sustained"
                }
            ));
            if phase.sustained() {
                max_rate = max_rate.max(rate);
            }
        }
        m.note(format!(
            "latency_p50_ms = {:.4} ms, latency_p99_ms = {:.4} ms ({} requests at {HIGH_RPS} rps)",
            median(&high.latency_ms),
            high.p99(),
            high.latency_ms.len()
        ));
        m.note(format!(
            "idle_latency_p99_ms = {:.4} ms ({} requests at {LOW_RPS} rps)",
            low.p99(),
            low.latency_ms.len()
        ));
        m.note(format!(
            "goodput_rps = {:.2} 1/s at {HIGH_RPS} rps",
            high.goodput()
        ));
        m.note(format!(
            "max_rate_rps = {max_rate} 1/s (ladder {LADDER_RPS:?})"
        ));
        m.note(format!(
            "loadgen.late_ms_max = {:.3} ms at {HIGH_RPS} rps",
            high.late_ms_max
        ));
    }
    engine.shutdown();
    if !traced {
        // The other set-ups run after the measured window, so the window
        // starts from one engine's allocator state rather than from what
        // many short-lived engines' threads left behind.
        for _ in 1..SETUP_REPS {
            let t0 = Instant::now();
            let (e, _) = start_engine(&p.rows, seed)?;
            setups.push(t0.elapsed().as_secs_f64());
            e.shutdown();
        }
        m.push("setup_s", median(&setups));
    }
    Ok(Outcome { metrics: m, tally })
}

/// Counts a fixed-rate phase: every request sent is an operation; shed,
/// failed and mismatched ones are failures.
fn count_phase(phase: &Phase, tally: &mut Tally) {
    tally.attempted += phase.sent();
    let failed = phase.shed + phase.errors + phase.mismatched;
    tally.failed += failed;
    if failed > 0 {
        eprintln!(
            "CHECK FAILED: {failed} of {} requests at {} rps shed, failed or mismatched",
            phase.sent(),
            phase.rate
        );
    }
}

fn traced_metrics(
    p: &Prepared,
    handle: &ServeHandle,
    order: &[usize],
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), String> {
    let origin = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut logs = Vec::new();
    let start = Instant::now();
    // Alternate untraced and traced offline batches for the overhead.
    while traced.len() < 3 || start.elapsed().as_secs_f64() < 0.5 * seconds {
        untraced.push(offline_batch(p, handle, order, tally, None).wall);
        let mut log = SpanLog::new(origin, traced.len() as u32, 0);
        traced.push(offline_batch(p, handle, order, tally, Some(&mut log)).wall);
        logs.push(log);
    }
    let residuals: Vec<f64> = logs
        .iter()
        .map(|l| l.self_times()[0] / l.spans()[0].secs())
        .collect();
    // A fresh engine, so its histograms cover the traced phase only.
    let (fresh, _) = start_engine(&p.rows, seed)?;
    let mut log = SpanLog::new(origin, logs.len() as u32, 0);
    let high = open_loop(
        p,
        &fresh.handle(),
        HIGH_RPS,
        0.4 * seconds,
        seed,
        Some(&mut log),
    );
    let report = fresh.shutdown();
    count_phase(&high, tally);
    logs.push(log);
    m.push(
        "dlframe.forward_s",
        report.batch_forward.mean_s * report.batch_forward.count as f64,
    );
    m.push("serve.submit_us_p99", percentile(&high.submit_us, 99.0));
    m.push("serve.queue_wait_ms_p99", percentile(&high.queue_ms, 99.0));
    m.push("serve.forward_ms_p50", report.batch_forward.p50_s * 1e3);
    m.push("serve.forward_ms_p99", report.batch_forward.p99_s * 1e3);
    m.push("serve.mean_batch", report.mean_batch);
    m.push("serve.shed", high.shed as f64);
    m.push("loadgen.late_ms_max", high.late_ms_max);
    let probe = crate::probe::for_bench(
        BenchId::Nt3,
        p.rows[0].len(),
        ServeConfig::default().max_batch,
    );
    m.push("tensor.gemm_gflops", probe.gemm_gflops);
    m.push("tensor.conv_gflops", probe.conv_gflops);
    let residual = median(&residuals);
    tally.check(residual <= crate::train::RESIDUAL_BOUND, || {
        format!("serving trace residual {residual:.4} above bound")
    });
    m.push("trace.residual_frac", residual);
    m.push(
        "trace.overhead_frac",
        median(&traced) / median(&untraced) - 1.0,
    );
    m.note(format!(
        "traced offline batches: {} (paired with untraced); traced open loop: {} requests at {HIGH_RPS} rps, \
         {} batches; tensor probe at batch {}",
        traced.len(),
        high.latency_ms.len(),
        report.batches,
        ServeConfig::default().max_batch
    ));
    m.trace = logs;
    Ok(())
}
