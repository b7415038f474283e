//! The two cold CSV-to-accuracy training workloads.
//!
//! Untraced runs call the product path, [`candle::run_parallel`]. The
//! traced run ([`traced_run`]) makes the same public calls in the same
//! order — `load_benchmark_dataset`, `build_rank_model`,
//! `broadcast_parameters`, `Dataset::batch_into`, `Sequential::train_batch`
//! through a `DistributedOptimizer`, `Sequential::evaluate` — from this
//! file, with a span around each, and must reproduce `run_parallel`'s
//! losses bit for bit.

use crate::stats::median;
use crate::sys::{self, ScratchDir};
use crate::trace::SpanLog;
use crate::{Metrics, Outcome, Tally};
use candle::{
    build_rank_model, comp_epochs_balanced, load_benchmark_dataset, run_parallel, BenchDataKind,
    BenchId, CacheSource, CacheSpec, DataMode, DataPhase, FuncScaling, ParallelRunSpec,
};
use collectives::{broadcast_parameters, run_workers, CommStats, Communicator};
use collectives::{DistributedOptimizer, Timeline};
use dlframe::{GradientSync, NoSync};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tensor::Tensor;

/// Training workers: one per core of the 2-core reference host.
const WORKERS: usize = 2;
/// Shards the cold run's cache is split into.
const SHARDS: usize = 4;
/// Base learning rate of the repository's functional runs (scaled-down
/// models on unit-scale features need more than Table 1's values).
pub const BASE_LR: f32 = 0.02;
/// Bound on `trace.residual_frac`: the share of a traced run's wall time
/// that no layer span accounts for.
pub const RESIDUAL_BOUND: f64 = 0.05;

/// One training workload's fixed settings.
#[derive(Debug, Clone, Copy)]
pub struct TrainWorkload {
    /// Dataset geometry.
    pub data: BenchDataKind,
    /// Total epochs, divided across the workers (strong scaling).
    pub total_epochs: usize,
    /// Batch size.
    pub batch: usize,
    /// Decode the cold-built shards through the background prefetcher.
    pub prefetch: bool,
}

impl TrainWorkload {
    /// NT3 at 1/20 of Table-1 width: 3,024 features × 1,400 rows.
    /// Compute-bound; 112 large allreduces per worker.
    pub fn nt3_wide() -> Self {
        Self {
            data: BenchDataKind::scaled(BenchId::Nt3, 20),
            total_epochs: 4,
            batch: 20,
            prefetch: false,
        }
    }

    /// P1B3 at 1/10 scale: 99 features × 112,512 rows. Ingest-bound; 901
    /// small allreduces per worker.
    pub fn p1b3_narrow() -> Self {
        Self {
            data: BenchDataKind::scaled(BenchId::P1b3, 10),
            total_epochs: 2,
            batch: 100,
            prefetch: true,
        }
    }

    /// Allreduces each worker must perform: one per batch step.
    pub fn expected_allreduces(&self) -> u64 {
        let epochs = comp_epochs_balanced(self.total_epochs, WORKERS);
        (epochs * self.data.train_rows.div_ceil(self.batch)) as u64
    }

    /// The run specification, reading `csv` and caching under `cache_root`.
    pub fn spec(&self, seed: u64, csv: &Path, cache_root: &Path) -> ParallelRunSpec {
        ParallelRunSpec {
            bench: self.data.bench,
            workers: WORKERS,
            scaling: FuncScaling::Strong {
                total_epochs: self.total_epochs,
            },
            batch: self.batch,
            base_lr: BASE_LR,
            data: self.data,
            seed,
            record_timeline: false,
            data_mode: DataMode::FullReplicated,
            cache: Some(CacheSpec {
                root: cache_root.to_path_buf(),
                shards: SHARDS,
                prefetch: self.prefetch,
                source: CacheSource::Csv {
                    path: csv.to_path_buf(),
                    strategy: dataio::ReadStrategy::TurboParallel,
                },
            }),
            data_service: None,
            comm_overlap: None,
        }
    }
}

/// Set-up: export the packed CSV, build every rank's model and warm the
/// training hot path with one batch step. Returns the CSV path.
fn set_up(w: &TrainWorkload, seed: u64, work: &Path) -> Result<PathBuf, String> {
    let csv = work.join(format!("packed-{}-{seed}.csv", std::process::id()));
    candle::export_packed_csv(&w.data, seed, &csv).map_err(|e| format!("CSV export: {e}"))?;
    let spec = w.spec(seed, &csv, work);
    for rank in 0..WORKERS {
        let mut model = build_rank_model(&spec, rank);
        let x = Tensor::zeros([w.batch, w.data.features]);
        let y = Tensor::zeros(
            model
                .predict(&x)
                .map_err(|e| e.to_string())?
                .shape()
                .clone(),
        );
        model
            .train_batch(&x, &y, &mut NoSync)
            .map_err(|e| format!("warm-up step: {e}"))?;
    }
    Ok(csv)
}

/// What one cold run produced, for the output checks.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Losses {
    train: u64,
    test: u64,
}

impl Losses {
    fn new(train: f64, test: f64) -> Self {
        Self {
            train: train.to_bits(),
            test: test.to_bits(),
        }
    }
}

/// One untraced cold run: CSV bytes to evaluated test accuracy through
/// `run_parallel`, into a cache directory of its own.
struct ColdRun {
    wall: f64,
    cpu: f64,
    losses: Losses,
    accuracy: f64,
    allreduces: u64,
}

/// `spec` with its cache in a new directory of its own under `work`; the
/// directory is removed when the returned guard drops.
fn with_fresh_cache(
    spec: &ParallelRunSpec,
    work: &Path,
) -> Result<(ParallelRunSpec, ScratchDir), String> {
    let dir = ScratchDir::new(work, "cache").map_err(|e| format!("cache dir: {e}"))?;
    let mut spec = spec.clone();
    if let Some(cache) = &mut spec.cache {
        cache.root = dir.path().to_path_buf();
    }
    Ok((spec, dir))
}

fn cold_run(spec: &ParallelRunSpec, work: &Path) -> Result<ColdRun, String> {
    let (spec, _dir) = with_fresh_cache(spec, work)?;
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let out = run_parallel(&spec).map_err(|e| e.to_string())?;
    let wall = t0.elapsed().as_secs_f64();
    Ok(ColdRun {
        wall,
        cpu: sys::cpu_seconds() - cpu0,
        losses: Losses::new(out.train_loss, out.test_loss),
        accuracy: out.test_accuracy,
        allreduces: out.comm_stats.allreduce_calls,
    })
}

/// Runs a training workload for about `seconds` and reports its metrics.
pub fn run(
    w: &TrainWorkload,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut csv = PathBuf::new();
    // Set-up is timed several times and reported as a median; traced runs
    // do not report it and set up once.
    for _ in 0..if traced { 1 } else { 3 } {
        let t0 = Instant::now();
        csv = set_up(w, seed, work)?;
        setups.push(t0.elapsed().as_secs_f64());
    }
    let spec = w.spec(seed, &csv, work);
    let mut tally = Tally::default();
    let result = if traced {
        traced_metrics(w, &spec, &csv, seconds, work, &mut tally)
    } else {
        untraced_metrics(w, &spec, seconds, work, &mut tally, median(&setups))
    };
    let _ = std::fs::remove_file(&csv);
    Ok(Outcome {
        metrics: result?,
        tally,
    })
}

fn untraced_metrics(
    w: &TrainWorkload,
    spec: &ParallelRunSpec,
    seconds: f64,
    work: &Path,
    tally: &mut Tally,
    setup_s: f64,
) -> Result<Metrics, String> {
    let start = Instant::now();
    sys::reset_peak_rss();
    let mut runs: Vec<ColdRun> = Vec::new();
    // At least two runs, so the same-seed repeat check always runs, and no
    // run that would end past the window; failed runs count against it.
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let next_end = elapsed + runs.last().map_or(0.0, |r| r.wall);
        if (runs.len() >= 2 && next_end > seconds) || elapsed > 3.0 * seconds {
            break;
        }
        match cold_run(spec, work) {
            Ok(run) => {
                tally.check(true, String::new);
                check_run(
                    w,
                    tally,
                    runs.first().map(|r| r.losses),
                    run.losses,
                    run.allreduces,
                );
                runs.push(run);
            }
            Err(e) => tally.check(false, || format!("cold run failed: {e}")),
        }
    }
    if runs.is_empty() {
        return Err("every cold run failed".into());
    }
    let col = |f: fn(&ColdRun) -> f64| runs.iter().map(f).collect::<Vec<f64>>();
    let walls = col(|r| r.wall);
    let mut m = Metrics::default();
    m.push("setup_s", setup_s);
    m.push("run_s", median(&walls));
    m.push("cpu_s", median(&col(|r| r.cpu)));
    m.push("peak_rss_mib", sys::peak_rss_mib());
    m.note(format!(
        "cold runs: {} ({walls:.3?}), test_loss {}, test_accuracy {:.4}, allreduces/worker {}; \
         the CSV is read from a warm OS page cache, so disk I/O is not measured",
        runs.len(),
        f64::from_bits(runs[0].losses.test),
        runs[0].accuracy,
        runs[0].allreduces
    ));
    Ok(m)
}

/// The output checks every cold run must pass: same-seed bit identity with
/// the first run, and one allreduce per batch step.
fn check_run(
    w: &TrainWorkload,
    tally: &mut Tally,
    first: Option<Losses>,
    losses: Losses,
    allreduces: u64,
) {
    if let Some(first) = first {
        tally.check(first == losses, || {
            format!("same-seed runs differ: {first:?} vs {losses:?}")
        });
    }
    let expected = w.expected_allreduces();
    tally.check(allreduces == expected, || {
        format!("{allreduces} allreduces per worker, expected {expected}")
    });
}

fn traced_metrics(
    w: &TrainWorkload,
    spec: &ParallelRunSpec,
    csv: &Path,
    seconds: f64,
    work: &Path,
    tally: &mut Tally,
) -> Result<Metrics, String> {
    let start = Instant::now();
    let mut untraced = Vec::new();
    let mut traced: Vec<TracedRun> = Vec::new();
    let mut prefetch_wait = Vec::new();
    let mut first = None;
    // Alternate untraced and traced runs so both see the same conditions.
    while traced.is_empty() || start.elapsed().as_secs_f64() + 2.0 * untraced[0] <= seconds {
        let run = cold_run(spec, work)?;
        tally.check(true, String::new);
        check_run(w, tally, first, run.losses, run.allreduces);
        first.get_or_insert(run.losses);
        untraced.push(run.wall);

        let (spec, _dir) = with_fresh_cache(spec, work)?;
        let t = traced_run(&spec, traced.len() as u32, Duration::ZERO)?;
        tally.check(true, String::new);
        // The traced runner must match `run_parallel` bit for bit.
        check_run(w, tally, Some(run.losses), t.losses, t.comm.allreduce_calls);
        let (rows, cols) = t.geometry;
        let want = w.data.train_rows + w.data.test_rows;
        tally.check(rows == want && cols > w.data.features, || {
            format!(
                "ingested frame is {rows}x{cols}, expected {want} rows and > {} columns",
                w.data.features
            )
        });
        let residual = t.residual_frac();
        tally.check(residual <= RESIDUAL_BOUND, || {
            format!("trace residual {residual:.4} above bound {RESIDUAL_BOUND}")
        });
        prefetch_wait.push(warm_prefetch_wait(&spec)?);
        traced.push(t);
    }
    let mut m = Metrics::default();
    let csv_mib = std::fs::metadata(csv).map_err(|e| e.to_string())?.len() as f64 / 1048576.0;
    let per = |f: &dyn Fn(&TracedRun) -> f64| median(&traced.iter().map(f).collect::<Vec<f64>>());
    let main = |name: &'static str| move |t: &TracedRun| t.log.total(name, 0);
    let rank0 = |name: &'static str| move |t: &TracedRun| t.log.total(name, 1);
    let read_s = per(&main("read"));
    m.push("dataio.read_s", read_s);
    m.push("dataio.scan_s", per(&main("scan")));
    m.push("dataio.parse_s", per(&main("parse")));
    m.push("dataio.mib_per_s", csv_mib / read_s);
    m.push("datacache.build_s", per(&main("build")));
    m.push("datacache.decode_s", per(&main("decode")));
    m.push("datacache.prefetch_wait_s", median(&prefetch_wait));
    m.push("candle.load_s", per(&main("load")));
    m.push(
        "candle.load_other_s",
        per(&|t| {
            t.log.total("load", 0)
                - t.log.total("read", 0)
                - t.log.total("build", 0)
                - t.log.total("decode", 0)
        }),
    );
    let last = traced.last().expect("at least one traced run");
    m.push("collectives.broadcast_s", per(&rank0("broadcast")));
    m.push("collectives.sync_s", per(&rank0("sync")));
    let sync_ms: Vec<f64> = last
        .log
        .durations("sync", 1)
        .iter()
        .map(|s| s * 1e3)
        .collect();
    m.push("collectives.sync_ms_p50", median(&sync_ms));
    m.push_tail("collectives.sync_ms_tail", &sync_ms);
    m.push(
        "collectives.bytes",
        ((last.comm.allreduce_elements + last.comm.broadcast_elements) * 4) as f64,
    );
    m.push("collectives.messages", last.comm.messages_sent as f64);
    m.push("dlframe.batch_s", per(&rank0("batch")));
    m.push("dlframe.forward_s", per(&rank0("forward")));
    m.push("dlframe.backward_s", per(&rank0("backward")));
    m.push("dlframe.update_s", per(&rank0("update")));
    let step_ms: Vec<f64> = last
        .log
        .durations("step", 1)
        .iter()
        .map(|s| s * 1e3)
        .collect();
    m.push("dlframe.step_ms_p50", median(&step_ms));
    m.push_tail("dlframe.step_ms_tail", &step_ms);
    m.push("dlframe.evaluate_s", per(&rank0("evaluate")));
    let probe = crate::probe::for_bench(w.data.bench, w.data.features, w.batch);
    m.push("tensor.gemm_gflops", probe.gemm_gflops);
    m.push("tensor.conv_gflops", probe.conv_gflops);
    m.push("trace.residual_frac", per(&TracedRun::residual_frac));
    m.push(
        "trace.overhead_frac",
        median(&traced.iter().map(|t| t.wall).collect::<Vec<_>>()) / median(&untraced) - 1.0,
    );
    m.note(format!(
        "traced runs: {} (paired with {} untraced); residual bound {RESIDUAL_BOUND}; \
         collectives.bytes is computed as 4 x (allreduce + broadcast f32 elements) on rank 0; \
         datacache.prefetch_wait_s is measured on a warm reopen through the prefetcher",
        traced.len(),
        untraced.len()
    ));
    m.trace = traced.into_iter().map(|t| t.log).collect();
    Ok(m)
}

/// Consumer wait on a warm reopen of a cold run's cache through the
/// prefetcher. The cold path does not return its prefetcher counters, so
/// the wait is measured here, outside the traced run.
fn warm_prefetch_wait(spec: &ParallelRunSpec) -> Result<f64, String> {
    let mut cache = spec.cache.clone().expect("training workloads cache");
    cache.prefetch = true;
    match load_benchmark_dataset(&spec.data, spec.seed, &cache).map_err(|e| e.to_string())? {
        (
            _,
            _,
            DataPhase::Warm {
                prefetch: Some(stats),
                ..
            },
        ) => Ok(stats.wait_time().as_secs_f64()),
        _ => Err("warm reopen did not hit the cache".into()),
    }
}

/// One traced cold run.
pub struct TracedRun {
    /// All spans: lane 0 is the driving thread, lane 1 + r worker rank r.
    pub log: SpanLog,
    losses: Losses,
    /// Rank 0's communication counters.
    pub comm: CommStats,
    /// Rows and columns of the ingested data (train + test, x + y).
    geometry: (usize, usize),
    /// Wall time of the `run` span, seconds.
    pub wall: f64,
}

/// Spans that only structure the tree; their self time is the part of the
/// run no layer call accounts for.
const STRUCTURAL: [&str; 3] = ["run", "worker", "step"];

impl TracedRun {
    /// 1 − (sum of layer self times ÷ traced wall time), over the driving
    /// thread and rank 0.
    pub fn residual_frac(&self) -> f64 {
        let selfs = self.log.self_times();
        let unaccounted: f64 = self
            .log
            .spans()
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.lane <= 1 && STRUCTURAL.contains(&s.name))
            .map(|(_, t)| t)
            .sum();
        unaccounted / self.wall
    }
}

/// Times each gradient sync as a `sync` span under the current
/// `train_batch` span. `delay` is slept inside the span before the
/// allreduce; it is zero except in the attribution self-test.
struct TimedSync {
    inner: DistributedOptimizer,
    log: SpanLog,
    parent: usize,
    delay: Duration,
    /// Duration of the latest sync.
    last: Duration,
}

impl GradientSync for TimedSync {
    fn sync_gradients(&mut self, flat: &mut [f32]) {
        let start = Instant::now();
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        self.inner.sync_gradients(flat);
        let end = Instant::now();
        self.log.record("sync", Some(self.parent), start, end);
        self.last = end - start;
    }
}

/// What one traced worker returns.
struct RankResult {
    log: SpanLog,
    train_loss: f64,
    test_loss: Option<f64>,
    comm: CommStats,
}

/// The traced runner: `run_parallel`'s calls, in its order, each inside a
/// span. `sync_delay` is injected into every gradient sync (zero outside
/// the attribution self-test).
pub fn traced_run(
    spec: &ParallelRunSpec,
    run_id: u32,
    sync_delay: Duration,
) -> Result<TracedRun, String> {
    let FuncScaling::Strong { total_epochs } = spec.scaling else {
        return Err("the traced runner runs strong scaling only".into());
    };
    let epochs = comp_epochs_balanced(total_epochs, spec.workers);
    let cache = spec
        .cache
        .as_ref()
        .ok_or("the traced runner needs a cache spec")?;
    let origin = Instant::now();
    let mut log = SpanLog::new(origin, run_id, 0);
    let run = log.open("run", None);

    let load = log.open("load", Some(run));
    let load_start = Instant::now();
    let (train, test, phase) =
        load_benchmark_dataset(&spec.data, spec.seed, cache).map_err(|e| e.to_string())?;
    log.close(load);
    let DataPhase::Cold {
        generate,
        encode_write,
        decode,
        ingest,
    } = phase
    else {
        return Err("a traced run must start cold".into());
    };
    // The data layers time their own phases; lay them out in call order
    // under `load`. What `load` covers beyond them is the pack/unpack.
    log.record_phases(
        load,
        load_start,
        &[
            ("read", generate),
            ("build", encode_write),
            ("decode", decode),
        ],
    );
    if let Some(p) = ingest {
        let read = log.spans().len() - 3;
        log.record_phases(
            read,
            load_start,
            &[
                ("scan", p.scan),
                ("parse", p.parse),
                ("materialize", p.materialize),
            ],
        );
    }
    let geometry = (
        train.len() + test.len(),
        train.x().shape().dims()[1] + train.y().shape().dims()[1],
    );

    let train = Arc::new(train);
    let test = Arc::new(test);
    let results: Vec<Result<RankResult, String>> = run_workers(spec.workers, |comm| {
        let rank = comm.rank();
        let mut log = SpanLog::new(origin, run_id, 1 + rank as u32);
        let worker = log.open("worker", None);
        let span = log.open("build_model", Some(worker));
        let mut model = build_rank_model(spec, rank);
        log.close(span);
        let span = log.open("broadcast", Some(worker));
        let mut params = model.flat_params();
        broadcast_parameters(comm, &mut params, None::<(&Timeline, Instant)>);
        model.set_flat_params(&params);
        log.close(span);
        let endpoint = std::mem::replace(comm, Communicator::world(1).pop().expect("nonempty"));
        // `fit` trains on its own copy of the dataset; so does this runner.
        let span = log.open("copy", Some(worker));
        let data = train.as_ref().clone();
        log.close(span);
        let mut sync = TimedSync {
            inner: DistributedOptimizer::new(endpoint),
            log,
            parent: worker,
            delay: sync_delay,
            last: Duration::ZERO,
        };
        let mut bx = Tensor::zeros([1, 1]);
        let mut by = Tensor::zeros([1, 1]);
        let mut train_loss = 0.0;
        for _ in 0..epochs {
            // `fit` shuffles with the model's own stream; draw from it and
            // write it back so the order and the stream match exactly.
            let span = sync.log.open("shuffle", Some(worker));
            let mut streams = model.rng_states();
            let mut rng = xrng::Rng::from_bytes(streams[0]);
            let batches = data.batch_indices(spec.batch, Some(&mut rng));
            streams[0] = rng.to_bytes();
            model.set_rng_states(&streams);
            sync.log.close(span);
            let mut loss_sum = 0.0;
            for idx in &batches {
                let step = sync.log.open("step", Some(worker));
                let span = sync.log.open("batch", Some(step));
                data.batch_into(idx, &mut bx, &mut by);
                sync.log.close(span);
                let span = sync.log.open("train_batch", Some(step));
                sync.parent = span;
                let start = Instant::now();
                let before = model.hot_stats();
                let (loss, _) = model
                    .train_batch(&bx, &by, &mut sync)
                    .map_err(|e| e.to_string())?;
                let after = model.hot_stats();
                sync.log.close(span);
                // The optimizer bucket holds the sync; the rest is update.
                let forward = after.forward - before.forward;
                let backward = after.backward - before.backward;
                let update = (after.optimizer - before.optimizer).saturating_sub(sync.last);
                sync.log.record_phases(
                    span,
                    start,
                    &[("forward", forward), ("backward", backward)],
                );
                let after_sync = start + forward + backward + sync.last;
                sync.log
                    .record_phases(span, after_sync, &[("update", update)]);
                loss_sum += loss;
                sync.log.close(step);
            }
            train_loss = loss_sum / batches.len().max(1) as f64;
        }
        let test_loss = if rank == 0 {
            let span = sync.log.open("evaluate", Some(worker));
            let (loss, _) = model
                .evaluate(&test, spec.batch.max(32))
                .map_err(|e| e.to_string())?;
            sync.log.close(span);
            Some(loss)
        } else {
            None
        };
        sync.log.close(worker);
        Ok(RankResult {
            comm: sync.inner.comm().stats().clone(),
            log: sync.log,
            train_loss,
            test_loss,
        })
    });
    log.close(run);
    let wall = log.spans()[run].secs();
    let mut rank0 = None;
    for r in results {
        let r = r?;
        log.absorb(r.log, run);
        rank0.get_or_insert((r.train_loss, r.test_loss, r.comm));
    }
    let (train_loss, test_loss, comm) = rank0.expect("at least one worker");
    Ok(TracedRun {
        log,
        losses: Losses::new(train_loss, test_loss.expect("rank 0 evaluates")),
        comm,
        geometry,
        wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny NT3 configuration: 120 training rows, batch 20, two workers
    /// with two epochs each, so 12 gradient syncs per worker.
    fn tiny(work: &Path) -> (ParallelRunSpec, PathBuf) {
        let w = TrainWorkload {
            data: BenchDataKind::tiny(BenchId::Nt3),
            total_epochs: 4,
            batch: 20,
            prefetch: true,
        };
        let csv = work.join("tiny.csv");
        candle::export_packed_csv(&w.data, 7, &csv).unwrap();
        (w.spec(7, &csv, work), csv)
    }

    #[test]
    fn traced_runner_matches_run_parallel_bitwise() {
        let work = ScratchDir::new(&std::env::temp_dir(), "perfbench-test").unwrap();
        let (spec, _) = tiny(work.path());
        let (s, _d1) = with_fresh_cache(&spec, work.path()).unwrap();
        let product = run_parallel(&s).unwrap();
        let (s, _d2) = with_fresh_cache(&spec, work.path()).unwrap();
        let traced = traced_run(&s, 0, Duration::ZERO).unwrap();
        assert_eq!(
            traced.losses,
            Losses::new(product.train_loss, product.test_loss)
        );
        assert_eq!(
            traced.comm.allreduce_calls,
            product.comm_stats.allreduce_calls
        );
        assert_eq!(traced.geometry.0, 160);
    }

    /// Attribution self-test: a fixed delay injected into every gradient
    /// sync must land on `collectives.sync_s` — about steps × delay more —
    /// while the residual stays within its bound.
    #[test]
    fn injected_sync_delay_lands_on_sync_time() {
        let work = ScratchDir::new(&std::env::temp_dir(), "perfbench-test").unwrap();
        let (spec, _) = tiny(work.path());
        let delay = Duration::from_millis(20);
        let (s, _d1) = with_fresh_cache(&spec, work.path()).unwrap();
        let base = traced_run(&s, 0, Duration::ZERO).unwrap();
        let (s, _d2) = with_fresh_cache(&spec, work.path()).unwrap();
        let slowed = traced_run(&s, 1, delay).unwrap();
        let steps = base.log.durations("sync", 1).len();
        assert_eq!(steps, 12);
        let expected = steps as f64 * delay.as_secs_f64();
        let rise = slowed.log.total("sync", 1) - base.log.total("sync", 1);
        assert!(
            (rise - expected).abs() < 0.25 * expected,
            "sync_s rose by {rise:.4}s, expected about {expected:.4}s"
        );
        // The delay did not leak into the other layers.
        let other = |t: &TracedRun| t.log.total("forward", 1) + t.log.total("backward", 1);
        assert!((other(&slowed) - other(&base)).abs() < 0.25 * expected);
        for run in [&base, &slowed] {
            assert!(
                run.residual_frac() <= RESIDUAL_BOUND,
                "residual {}",
                run.residual_frac()
            );
        }
        assert_eq!(
            slowed.losses, base.losses,
            "a delay must not change arithmetic"
        );
    }
}
