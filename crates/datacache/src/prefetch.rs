//! Background prefetching: decode shard *k+1* on pool workers while the
//! consumer is busy with shard *k*.
//!
//! The related work's data-loading pipelines overlap ingest with compute;
//! here that is a [`Prefetcher`]: a [`parx::Lookahead`] over shard
//! decodes on its own two-thread [`parx::WorkerPool`], double-buffered.
//! The iterator yields shards strictly in order and counts how often the
//! next shard was already decoded (`ready_hits`) versus how long the
//! consumer had to block (`waits`, `wait_time`) — the numbers the
//! pipeline's phase profile reports.

use crate::store::CachedDataset;
use crate::CacheError;
use dataio::Frame;
use parx::{Lookahead, WorkerPool};
use std::sync::Arc;

/// Decode threads per prefetcher.
const PREFETCH_THREADS: usize = 2;

/// Counters describing how well prefetching hid decode latency.
pub type PrefetchStats = parx::LookaheadStats;

/// One decoded shard, ready for training.
pub struct Prefetched {
    /// Shard index in the manifest.
    pub index: usize,
    /// Row offset of the shard in the source frame.
    pub start_row: usize,
    /// The decoded rows.
    pub frame: Frame,
}

/// An ordered, background-decoded iterator over a dataset's shards.
pub struct Prefetcher {
    shards: Lookahead<Result<Prefetched, CacheError>>,
}

impl Prefetcher {
    /// Decodes the shard indices in `order`, double-buffered.
    fn over(dataset: Arc<CachedDataset>, order: Vec<usize>) -> Self {
        let pool = Arc::new(WorkerPool::new(PREFETCH_THREADS));
        let shards = Lookahead::new(pool, order.len(), move |pos| {
            let index = order[pos];
            let frame = dataset.load_shard(index)?;
            let start_row = dataset
                .manifest()
                .shards
                .get(index)
                .map_or(0, |s| s.start_row);
            Ok(Prefetched {
                index,
                start_row,
                frame,
            })
        });
        Self { shards }
    }

    /// Prefetches every shard in manifest order.
    pub fn all(dataset: Arc<CachedDataset>) -> Self {
        let order: Vec<usize> = (0..dataset.nshards()).collect();
        Self::over(dataset, order)
    }

    /// Prefetches the shards assigned to `rank` of `nranks` — a rank's
    /// warm-start read stream.
    pub fn for_rank(dataset: Arc<CachedDataset>, rank: usize, nranks: usize) -> Self {
        let order = dataset.rank_shards(rank, nranks);
        Self::over(dataset, order)
    }

    /// Counters accumulated so far (final after the iterator is drained).
    pub fn stats(&self) -> PrefetchStats {
        self.shards.stats()
    }

    /// Shards this prefetcher will yield.
    pub fn len_total(&self) -> usize {
        self.shards.len_total()
    }

    /// Decodes submitted but not yet yielded — the live queue depth.
    pub fn in_flight(&self) -> usize {
        self.shards.in_flight()
    }
}

impl Iterator for Prefetcher {
    type Item = Result<Prefetched, CacheError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.shards.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.shards.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::CacheStore;
    use dataio::{generate, read_csv, write_csv_dataset, ClassSpec, ReadStrategy, SyntheticSpec};
    use parx::TempDir;
    use std::time::Duration;

    fn cached_dataset(name: &str, rows: usize, nshards: usize) -> (TempDir, Arc<CachedDataset>) {
        let root = TempDir::new(&format!("datacache_pf_{name}")).unwrap();
        std::fs::create_dir_all(root.join("src")).unwrap();
        let csv = root.join("src/data.csv");
        let spec = SyntheticSpec {
            rows,
            cols: 8,
            kind: ClassSpec::Classification {
                classes: 3,
                separation: 1.0,
            },
            noise: 0.4,
            seed: 21,
        };
        write_csv_dataset(&csv, &generate(&spec)).unwrap();
        let store = CacheStore::new(root.join("cache")).unwrap();
        let (ds, _) = store
            .open_csv(&csv, ReadStrategy::ChunkedLowMemory, nshards)
            .unwrap();
        (root, Arc::new(ds))
    }

    #[test]
    fn yields_all_shards_in_order_and_matches_direct_load() {
        let (_root, ds) = cached_dataset("order", 90, 5);
        let mut frames = Vec::new();
        let mut last_index = None;
        let pf = Prefetcher::all(Arc::clone(&ds));
        for item in pf {
            let got = item.unwrap();
            if let Some(prev) = last_index {
                assert!(got.index > prev, "shards must arrive in order");
            }
            last_index = Some(got.index);
            frames.push(got.frame);
        }
        assert_eq!(frames.len(), 5);
        let reassembled = Frame::concat(frames).unwrap();
        assert_eq!(reassembled, ds.load_all().unwrap());
    }

    #[test]
    fn stats_account_for_every_shard() {
        let (_root, ds) = cached_dataset("stats", 60, 6);
        let mut pf = Prefetcher::all(Arc::clone(&ds));
        let mut n = 0;
        while let Some(item) = pf.next() {
            item.unwrap();
            n += 1;
            // A slow consumer gives the double buffer time to fill.
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = pf.stats();
        assert_eq!(n, 6);
        assert_eq!(stats.ready_hits + stats.waits, 6);
        assert_eq!(stats.completed, 6);
        assert!(
            stats.ready_hits > 0,
            "a slow consumer should find prefetched shards ready: {stats:?}"
        );
        assert!(
            stats.max_in_flight >= 1 && stats.max_in_flight <= parx::LOOKAHEAD_WINDOW,
            "in-flight high-water mark must stay inside the window: {stats:?}"
        );
        assert_eq!(pf.in_flight(), 0, "a drained prefetcher has nothing queued");
        assert!(stats.stall_fraction() <= 1.0);
    }

    #[test]
    fn rank_streams_partition_the_dataset() {
        let (_root, ds) = cached_dataset("ranks", 80, 8);
        let mut all_rows = 0;
        let mut seen_shards = Vec::new();
        for rank in 0..3 {
            for item in Prefetcher::for_rank(Arc::clone(&ds), rank, 3) {
                let got = item.unwrap();
                all_rows += got.frame.nrows();
                seen_shards.push(got.index);
            }
        }
        seen_shards.sort_unstable();
        assert_eq!(seen_shards, (0..8).collect::<Vec<_>>());
        assert_eq!(all_rows, ds.nrows());
    }

    #[test]
    fn corruption_surfaces_as_error_not_panic() {
        let (_root, ds) = cached_dataset("corrupt", 40, 4);
        // Corrupt shard 2 on disk after the manifest was loaded.
        let entry = &ds.manifest().shards[2];
        let path = ds.dir().join(&entry.file);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let results: Vec<_> = Prefetcher::all(Arc::clone(&ds)).collect();
        assert_eq!(results.len(), 4);
        assert!(results[0].is_ok());
        assert!(results[2].is_err(), "corrupt shard must yield an error");
    }

    #[test]
    fn csv_parse_and_warm_prefetch_agree() {
        let (root, ds) = cached_dataset("agree", 70, 3);
        let (direct, _) = read_csv(&root.join("src/data.csv"), ReadStrategy::ChunkedLowMemory)
            .map_err(|e| panic!("{e}"))
            .unwrap();
        let frames: Vec<Frame> = Prefetcher::all(Arc::clone(&ds))
            .map(|r| r.unwrap().frame)
            .collect();
        assert_eq!(Frame::concat(frames).unwrap(), direct);
    }
}
