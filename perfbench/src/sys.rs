//! Process counters read from `/proc`: CPU seconds (the energy proxy, since
//! this host exposes no RAPL counters) and peak resident memory.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// `/proc/<pid>/stat` reports CPU time in USER_HZ ticks, which the Linux
/// ABI fixes at 100 per second.
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU seconds consumed by every thread of this process.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space separated, utime and stime being the
    // 12th and 13th of them.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split(' ').collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric tick count");
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND
}

/// Resets the peak-RSS high-water mark (`VmHWM`) to the current RSS.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").expect("/proc/self/clear_refs is writable");
}

/// Peak resident set size since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// A directory private to one cold run, removed on drop. The name joins
/// the pid and a process-wide counter, so no two runs — in this process or
/// another — ever share a cache.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `<root>/<tag>-<pid>-<n>`.
    pub fn new(root: &Path, tag: &str) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = root.join(format!("{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
