//! Uniquely named scratch directories.
//!
//! Tests in one binary run on concurrent threads, and a directory named
//! by the process id alone is shared by all of them: one test's cleanup
//! deletes another's files mid-run. A [`TempDir`] adds a process-wide
//! counter to the name, so every call gets its own directory, and it
//! removes the directory when dropped.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A fresh directory under the system temp dir, removed on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `<temp>/<prefix>_<pid>_<n>`, with `n` unique within the
    /// process.
    pub fn new(prefix: &str) -> std::io::Result<Self> {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("{prefix}_{}_{n}", std::process::id()));
        // A leftover from a crashed run with a recycled pid.
        std::fs::remove_dir_all(&path).ok();
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.path
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

/// Like `Path`'s, so `&TempDir` converts into a `PathBuf`.
impl AsRef<std::ffi::OsStr> for TempDir {
    fn as_ref(&self) -> &std::ffi::OsStr {
        self.path.as_os_str()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.path).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_call_gets_its_own_directory_removed_on_drop() {
        let a = TempDir::new("parx_tempdir").unwrap();
        let b = TempDir::new("parx_tempdir").unwrap();
        assert_ne!(*a, *b);
        std::fs::write(a.join("f"), b"x").unwrap();
        assert!(a.is_dir() && b.is_dir());
        let kept = a.to_path_buf();
        drop(a);
        assert!(!kept.exists());
        assert!(b.is_dir());
    }
}
