//! Ordered look-ahead over a [`WorkerPool`].
//!
//! A [`Lookahead`] runs `job(i)` for `i in 0..total` on pool workers with
//! [`LOOKAHEAD_WINDOW`] jobs in flight ahead of the consumer (double
//! buffering) and yields the results strictly in index order. It is the
//! overlap the data-loading pipelines use: decode shard *k+1*, or
//! assemble batch *k+1*, while the consumer trains on *k*. The bounded
//! window is the backpressure: a slow consumer never holds more than the
//! window's worth of finished results.
//!
//! Every job gets a one-shot channel whose only `Sender` lives in the
//! job's task. A job that panics drops that `Sender` unsent, so the
//! consumer's wait ends either way and [`Iterator::next`] re-raises the
//! job's panic message instead of blocking forever.

use crate::WorkerPool;
use parking_lot::Mutex;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Jobs kept in flight ahead of the consumer.
pub const LOOKAHEAD_WINDOW: usize = 2;

/// Counters describing how well the look-ahead hid job latency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LookaheadStats {
    /// Results that were already finished when the consumer asked.
    pub ready_hits: usize,
    /// Times the consumer had to block on an unfinished job (stalls).
    pub waits: usize,
    /// Total time the consumer spent blocked, in nanoseconds.
    pub wait_ns: u128,
    /// Results handed to the consumer.
    pub completed: usize,
    /// High-water mark of jobs submitted but not yet yielded; at most
    /// [`LOOKAHEAD_WINDOW`].
    pub max_in_flight: usize,
}

impl LookaheadStats {
    /// Total time the consumer spent blocked.
    pub fn wait_time(&self) -> Duration {
        Duration::from_nanos(self.wait_ns.min(u64::MAX as u128) as u64)
    }

    /// Fraction of consumer asks that stalled on an unfinished job — 0.0
    /// means the look-ahead fully hid job latency.
    pub fn stall_fraction(&self) -> f64 {
        let asks = self.ready_hits + self.waits;
        if asks == 0 {
            0.0
        } else {
            self.waits as f64 / asks as f64
        }
    }
}

/// One submitted job: its result channel and, if it panicked, its message.
struct Pending<T> {
    result: Receiver<T>,
    panic: Arc<Mutex<Option<String>>>,
}

/// An ordered iterator over `job(0), job(1), …, job(total - 1)`, computed
/// on pool workers [`LOOKAHEAD_WINDOW`] ahead of the consumer.
///
/// Dropping it waits for the jobs still in flight, so nothing it
/// submitted outlives it. Do not drop it on a worker of its own pool.
pub struct Lookahead<T> {
    pool: Arc<WorkerPool>,
    job: Arc<dyn Fn(usize) -> T + Send + Sync>,
    total: usize,
    submitted: usize,
    pending: VecDeque<Pending<T>>,
    stats: LookaheadStats,
}

impl<T: Send + 'static> Lookahead<T> {
    /// Starts the first window of `job` calls on `pool`.
    pub fn new(
        pool: Arc<WorkerPool>,
        total: usize,
        job: impl Fn(usize) -> T + Send + Sync + 'static,
    ) -> Self {
        let mut lookahead = Self {
            pool,
            job: Arc::new(job),
            total,
            submitted: 0,
            pending: VecDeque::with_capacity(LOOKAHEAD_WINDOW),
            stats: LookaheadStats::default(),
        };
        lookahead.fill_window();
        lookahead
    }

    /// Counters accumulated so far (final once the iterator is drained).
    pub fn stats(&self) -> LookaheadStats {
        self.stats
    }

    /// Results this iterator yields in total.
    pub fn len_total(&self) -> usize {
        self.total
    }

    /// Jobs submitted but not yet yielded — the live queue depth.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    fn fill_window(&mut self) {
        while self.submitted < self.total && self.pending.len() < LOOKAHEAD_WINDOW {
            let i = self.submitted;
            self.submitted += 1;
            let (tx, result) = channel();
            let panic = Arc::new(Mutex::new(None));
            let job = Arc::clone(&self.job);
            let message = Arc::clone(&panic);
            self.pool
                .submit(move || match catch_unwind(AssertUnwindSafe(|| job(i))) {
                    // A consumer dropped mid-stream just discards the result.
                    Ok(value) => drop(tx.send(value)),
                    Err(payload) => {
                        *message.lock() = Some(panic_message(payload.as_ref()));
                        // Disconnect before re-raising: the pool counts the
                        // restart, the consumer wakes and reads the message.
                        drop(tx);
                        resume_unwind(payload);
                    }
                });
            self.pending.push_back(Pending { result, panic });
        }
        self.stats.max_in_flight = self.stats.max_in_flight.max(self.pending.len());
    }
}

impl<T: Send + 'static> Iterator for Lookahead<T> {
    type Item = T;

    /// # Panics
    /// Re-raises the panic message of a job that panicked.
    fn next(&mut self) -> Option<T> {
        let slot = self.pending.pop_front()?;
        let value = match slot.result.try_recv() {
            Ok(value) => {
                self.stats.ready_hits += 1;
                Some(value)
            }
            Err(TryRecvError::Empty) => {
                let start = Instant::now();
                let value = slot.result.recv().ok();
                self.stats.waits += 1;
                self.stats.wait_ns += start.elapsed().as_nanos();
                value
            }
            Err(TryRecvError::Disconnected) => None,
        };
        let Some(value) = value else {
            let message = slot.panic.lock().take();
            panic!(
                "{}",
                message.unwrap_or_else(|| "lookahead job ended without a result".into())
            );
        };
        self.stats.completed += 1;
        self.fill_window();
        Some(value)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.total - self.submitted + self.pending.len();
        (left, Some(left))
    }
}

impl<T> Drop for Lookahead<T> {
    fn drop(&mut self) {
        for slot in self.pending.drain(..) {
            // Returns once the job has sent its result or unwound.
            let _ = slot.result.recv();
        }
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "lookahead job panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    /// Generous bound for work that finishes in milliseconds; a hang
    /// fails the test instead of stalling the suite.
    const BOUND: Duration = Duration::from_secs(20);

    /// Runs `f` on a helper thread and fails if it does not return
    /// within [`BOUND`].
    fn within_bound<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(BOUND)
            .expect("look-ahead consumer did not finish within its bound")
    }

    #[test]
    fn yields_every_result_in_order() {
        let pool = Arc::new(WorkerPool::new(3));
        // Later jobs finish first, so completions arrive out of order.
        let la = Lookahead::new(pool, 12, |i| {
            std::thread::sleep(Duration::from_micros(((12 - i) * 200) as u64));
            i * i
        });
        assert_eq!(la.size_hint(), (12, Some(12)));
        let got: Vec<usize> = la.collect();
        assert_eq!(got, (0..12).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn stats_account_for_every_result() {
        let pool = Arc::new(WorkerPool::new(2));
        let mut la = Lookahead::new(pool, 6, |i| i);
        let mut n = 0;
        while la.next().is_some() {
            n += 1;
            // A slow consumer gives the window time to fill.
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = la.stats();
        assert_eq!(n, 6);
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.ready_hits + stats.waits, 6);
        assert!(stats.ready_hits > 0, "{stats:?}");
        assert_eq!(stats.max_in_flight, LOOKAHEAD_WINDOW);
        assert_eq!(la.in_flight(), 0);
        assert!(stats.stall_fraction() <= 1.0);
    }

    #[test]
    fn empty_stream_yields_nothing() {
        let pool = Arc::new(WorkerPool::new(1));
        let mut la = Lookahead::new(pool, 0, |i| i);
        assert!(la.next().is_none());
        assert_eq!(la.stats(), LookaheadStats::default());
    }

    #[test]
    fn job_panic_reaches_the_consumer_within_bound() {
        let (message, restarts) = within_bound(|| {
            let pool = Arc::new(WorkerPool::new(2));
            let mut la = Lookahead::new(Arc::clone(&pool), 4, |i| {
                if i == 1 {
                    panic!("shard 1 failed to decode");
                }
                i
            });
            assert_eq!(la.next(), Some(0));
            let err = catch_unwind(AssertUnwindSafe(|| la.next()))
                .expect_err("the job's panic must reach the consumer");
            drop(la);
            pool.join();
            (panic_message(err.as_ref()), pool.restarts())
        });
        assert_eq!(message, "shard 1 failed to decode");
        assert_eq!(restarts, 1, "the pool still sees the failed task");
    }

    #[test]
    fn dropping_halfway_waits_for_in_flight_jobs_within_bound() {
        let finished = Arc::new(AtomicUsize::new(0));
        let done = Arc::clone(&finished);
        within_bound(move || {
            let pool = Arc::new(WorkerPool::new(2));
            let mut la = Lookahead::new(Arc::clone(&pool), 10, move |i| {
                std::thread::sleep(Duration::from_millis(20));
                if i == 2 {
                    panic!("in-flight job fails while the consumer drops");
                }
                done.fetch_add(1, Ordering::SeqCst);
                i
            });
            assert_eq!(la.next(), Some(0));
            assert_eq!(la.next(), Some(1));
            // Jobs 2 (panicking) and 3 are in flight; dropping must wait
            // them out without hanging on the panicked one.
            drop(la);
            pool.join();
        });
        assert_eq!(
            finished.load(Ordering::SeqCst),
            3,
            "jobs 0, 1 and 3 ran; none after"
        );
    }
}
