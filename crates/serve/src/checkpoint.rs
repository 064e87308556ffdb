//! Serving checkpoints: the on-disk format and its directory management.
//!
//! A checkpoint is one JSON file `ckpt-<seq>.json` holding the full
//! streaming state of every stream the engine serves (see
//! [`tranad::OnlineSnapshot`]), written atomically via
//! [`tranad::atomic_write`] so a crash can never leave a torn file. The
//! zero-padded, monotonically increasing sequence number makes
//! lexicographic order equal recovery order; resume scans newest-to-oldest
//! and skips unreadable files (counting them on `serve.checkpoint_skipped`)
//! so one damaged checkpoint never bricks the service while older good
//! state exists.

use crate::ServeError;
use std::path::{Path, PathBuf};
use tranad::{OnlineSnapshot, PersistError};
use tranad_json::{FromJson, ToJson};

/// On-disk format version of serving checkpoints.
pub(crate) const CHECKPOINT_VERSION: u32 = 1;

/// One stream's entry in a serving checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StreamState {
    /// Caller-chosen stream name.
    pub name: String,
    /// The stream's full streaming state.
    pub snapshot: OnlineSnapshot,
}

tranad_json::impl_json_struct!(StreamState { name, snapshot });

/// A complete serving checkpoint: every stream's state plus the engine's
/// lifetime counters, so a resumed engine reports continuous totals.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ServeCheckpoint {
    /// On-disk format version.
    pub format_version: u32,
    /// Monotonic checkpoint sequence number (also in the file name).
    pub seq: u64,
    /// Points processed by the engine when the checkpoint was taken.
    pub processed: u64,
    /// Points shed by the engine when the checkpoint was taken.
    pub shed: u64,
    /// Per-stream state, sorted by stream name.
    pub streams: Vec<StreamState>,
}

tranad_json::impl_json_struct!(ServeCheckpoint {
    format_version,
    seq,
    processed,
    shed,
    streams
});

/// The checkpoint file path for a sequence number. Zero-padding keeps
/// lexicographic directory order equal to numeric order.
pub(crate) fn path_for(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("ckpt-{seq:012}.json"))
}

/// All checkpoint files in `dir`, as `(seq, path)` sorted ascending.
fn list(dir: &Path) -> Result<Vec<(u64, PathBuf)>, ServeError> {
    let mut found = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(found),
        Err(e) => return Err(PersistError::Io(e).into()),
    };
    for entry in entries {
        let entry = entry.map_err(PersistError::Io)?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Some(stem) = name
            .strip_prefix("ckpt-")
            .and_then(|s| s.strip_suffix(".json"))
        else {
            continue; // temp files, foreign files
        };
        let Ok(seq) = stem.parse::<u64>() else {
            continue;
        };
        found.push((seq, entry.path()));
    }
    found.sort();
    Ok(found)
}

/// Writes `ck` atomically into `dir` (creating it if needed) and prunes all
/// but the newest `keep` checkpoints. Returns the new file's path.
pub(crate) fn write(dir: &Path, ck: &ServeCheckpoint, keep: usize) -> Result<PathBuf, ServeError> {
    std::fs::create_dir_all(dir).map_err(PersistError::Io)?;
    let path = path_for(dir, ck.seq);
    tranad::atomic_write(&path, &ck.to_json().to_string())?;
    let existing = list(dir)?;
    if existing.len() > keep {
        for (_, old) in &existing[..existing.len() - keep] {
            // Best-effort: a stale file only wastes disk, never correctness.
            std::fs::remove_file(old).ok();
        }
    }
    Ok(path)
}

/// Loads the newest readable checkpoint from `dir`, or `None` when the
/// directory holds none. Unreadable or corrupt files are skipped (newest
/// first, counted on `serve.checkpoint_skipped` on
/// [`tranad_telemetry::current`]); if every candidate is
/// corrupt the last error is returned — silently starting from scratch
/// when state *should* exist would discard stream history.
pub(crate) fn latest(dir: &Path) -> Result<Option<ServeCheckpoint>, ServeError> {
    let files = list(dir)?;
    let mut last_err: Option<ServeError> = None;
    for (_, path) in files.iter().rev() {
        match read(path) {
            Ok(ck) => return Ok(Some(ck)),
            Err(e) => {
                tranad_telemetry::current().add("serve.checkpoint_skipped", 1);
                last_err = Some(e);
            }
        }
    }
    match last_err {
        Some(e) => Err(e),
        None => Ok(None),
    }
}

/// Reads and validates one checkpoint file.
fn read(path: &Path) -> Result<ServeCheckpoint, ServeError> {
    let text = std::fs::read_to_string(path).map_err(PersistError::Io)?;
    let json = tranad_json::parse(&text).map_err(PersistError::Json)?;
    let ck = ServeCheckpoint::from_json(&json).map_err(PersistError::Json)?;
    if ck.format_version != CHECKPOINT_VERSION {
        return Err(PersistError::Corrupt(format!(
            "serve checkpoint format version {} (expected {CHECKPOINT_VERSION})",
            ck.format_version
        ))
        .into());
    }
    Ok(ck)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_checkpoint(seq: u64) -> ServeCheckpoint {
        ServeCheckpoint {
            format_version: CHECKPOINT_VERSION,
            seq,
            processed: seq * 10,
            shed: 1,
            streams: vec![StreamState {
                name: "s0".to_string(),
                snapshot: OnlineSnapshot {
                    dims: 1,
                    seen: seq * 10,
                    rows: vec![vec![0.5]],
                    spots: Vec::new(),
                },
            }],
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tranad_serve_ckpt_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn write_prune_and_latest() {
        let dir = tmp_dir("wpl");
        for seq in 1..=5 {
            write(&dir, &toy_checkpoint(seq), 2).unwrap();
        }
        let files = list(&dir).unwrap();
        assert_eq!(
            files.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![4, 5]
        );
        let ck = latest(&dir).unwrap().unwrap();
        assert_eq!(ck.seq, 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn latest_skips_corrupt_newest_and_falls_back() {
        let dir = tmp_dir("fallback");
        write(&dir, &toy_checkpoint(1), 4).unwrap();
        write(&dir, &toy_checkpoint(2), 4).unwrap();
        std::fs::write(path_for(&dir, 3), "{torn").unwrap();
        let ck = latest(&dir).unwrap().unwrap();
        assert_eq!(
            ck.seq, 2,
            "must fall back to the newest readable checkpoint"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn latest_errors_when_only_corrupt_checkpoints_exist() {
        let dir = tmp_dir("allbad");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(path_for(&dir, 1), "{torn").unwrap();
        assert!(latest(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_or_missing_dir_is_a_fresh_start() {
        let dir = tmp_dir("missing");
        assert!(latest(&dir).unwrap().is_none());
    }

    #[test]
    fn json_roundtrip() {
        let ck = toy_checkpoint(7);
        let text = ck.to_json().to_string();
        let back = ServeCheckpoint::from_json(&tranad_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, ck);
    }
}
