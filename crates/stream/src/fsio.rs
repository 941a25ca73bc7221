//! The crash-safe write primitive the live path shares with the store.
//!
//! Same contract the run store established: a reader either sees the old
//! bytes or the new bytes, never a torn file, and after a crash the only
//! debris possible is an abandoned `*.tmp`, which fsck reaps once
//! [`reapable`] says its writer is gone.
//!
//! Every write goes through a tmp name of its own, `<file>.<pid>.<seq>.tmp`,
//! so two writers of one file (two processes, or two threads of one) never
//! share a tmp, and a recovery pass can tell a live writer's tmp from debris.

use hrviz_faults::HrvizError;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// `<file>` → `<file>.tmp`: a tmp name that records no writer, so
/// [`reapable`] always reaps it. Crash-injection tests stage a dead
/// writer's stray under this name.
pub fn tmp_path_of(path: &Path) -> Result<PathBuf, HrvizError> {
    Ok(path.with_file_name(format!("{}.tmp", file_name(path)?)))
}

/// `<file>` → `<file>.<pid>.<seq>.tmp` in the same directory (same
/// filesystem, so the rename is atomic); `seq` never repeats within this
/// process.
fn unique_tmp_path(path: &Path) -> Result<PathBuf, HrvizError> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    // Only uniqueness matters: the counter publishes no other data.
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    Ok(path.with_file_name(format!("{}.{}.{seq}.tmp", file_name(path)?, std::process::id())))
}

fn file_name(path: &Path) -> Result<&str, HrvizError> {
    path.file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| HrvizError::config(format!("unwritable path {}", path.display())))
}

/// Whether a recovery pass may delete `path`: a `*.tmp` file no live
/// writer can still rename. That is a `<file>.tmp`, which records no
/// writer, or a `<file>.<pid>.<seq>.tmp` whose process has no
/// `/proc/<pid>` (on a system without `/proc`, every writer counts as
/// gone).
pub fn reapable(path: &Path) -> bool {
    let Some(stem) = path.file_name().and_then(|n| n.to_str()?.strip_suffix(".tmp")) else {
        return false;
    };
    match writer_pid(stem) {
        Some(pid) => !Path::new("/proc").join(pid.to_string()).exists(),
        None => true,
    }
}

/// The pid in a `<file>.<pid>.<seq>` tmp stem.
fn writer_pid(stem: &str) -> Option<u32> {
    let mut parts = stem.rsplitn(3, '.');
    let (seq, pid, file) = (parts.next()?, parts.next()?, parts.next()?);
    let numeric = !seq.is_empty() && seq.bytes().all(|b| b.is_ascii_digit());
    if numeric && !file.is_empty() {
        pid.parse().ok()
    } else {
        None
    }
}

/// Write `bytes` to `path` atomically: temp file + fsync + rename +
/// best-effort parent-directory fsync. Readers never observe a torn file.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), HrvizError> {
    let tmp = unique_tmp_path(path)?;
    if let Err(e) = write_synced(&tmp, bytes).and_then(|()| fs::rename(&tmp, path)) {
        // This process is alive, so no recovery pass would reap the tmp.
        let _ = fs::remove_file(&tmp);
        return Err(HrvizError::io(path.display().to_string(), e));
    }
    // Make the rename itself durable. Directory fsync is best-effort: not
    // every platform lets us open a directory read-only for syncing.
    if let Some(parent) = path.parent() {
        if let Ok(d) = fs::File::open(parent) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

fn write_synced(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut f = fs::File::create(path)?;
    f.write_all(bytes)?;
    f.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_replaces_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("hrviz-fsio-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.json");
        atomic_write(&path, b"one").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"one");
        atomic_write(&path, b"two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1, "only x.json remains");
        // A failed rename (onto a directory) removes its tmp too.
        fs::create_dir(dir.join("d")).unwrap();
        assert!(atomic_write(&dir.join("d"), b"x").is_err());
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 2, "only x.json and d remain");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tmp_names_are_unique_and_only_a_gone_writers_are_reapable() {
        let path = Path::new("/store/fsck_report.json");
        let (a, b) = (unique_tmp_path(path).unwrap(), unique_tmp_path(path).unwrap());
        assert_ne!(a, b);
        assert_eq!(a.parent(), path.parent());
        assert!(!reapable(&a), "this process is alive");
        assert!(reapable(&tmp_path_of(path).unwrap()));
        // Above any kernel's pid_max, so no such process exists.
        assert!(reapable(Path::new(&format!("/s/GENERATION.{}.3.tmp", u32::MAX))));
        for not_unique in ["/s/a.json.tmp", "/s/.7.3.tmp", "/s/a.7.x.tmp", "/s/7.3.tmp"] {
            assert!(reapable(Path::new(not_unique)), "{not_unique} records no writer");
        }
        assert!(!reapable(Path::new("/s/a.json")), "not a tmp");
    }
}
