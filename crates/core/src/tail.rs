//! Live log following: a [`LogSource`] that tails growing files.
//!
//! The batch sources read a corpus that has already ended. A monitoring
//! deployment (`gpures watch`) instead follows per-node syslog files
//! *while they grow*, surviving log rotation and process restarts:
//!
//! - **Growth** — each poll re-opens a file, seeks to the saved offset,
//!   and reads a packed chunk the way [`crate::source::DirSource`] does,
//!   but consumes only complete (`\n`-terminated) lines; a partially
//!   written final line stays on disk for the next poll. Invalid UTF-8
//!   fails the poll with [`DataError::Tail`] naming the file and byte
//!   offset, and leaves the cursor before it.
//! - **Rotation** — a changed inode (Unix) or a file shrinking below the
//!   saved offset means the path was rotated or truncated; the cursor
//!   resets to byte 0 of the new file.
//! - **Restarts** — [`TailSource::checkpoint`] renders the cursor state
//!   as text (`<ino> <offset> <path>` per line) and
//!   [`TailSource::open_with_checkpoint`] restores it, so a restarted
//!   watcher resumes where it stopped instead of re-ingesting history.
//!
//! **Contract note:** for the batch sources, `Ok(None)` from
//! [`LogSource::next_chunk`] means *exhausted forever*. A tailed file is
//! never exhausted — here `Ok(None)` means **caught up for now**: every
//! complete line currently on disk has been yielded, and the caller
//! decides when to poll again (the crate never sleeps or reads a clock;
//! pacing lives in the binary).

use crate::source::{
    read_lines, scan_log_dir, utf8_message, Lines, LogChunk, LogSource, PackedLines,
};
use dr_xid::{DataError, NodeId};
use std::fs::File;
use std::io::{BufRead, BufReader, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Follow cursor for one per-node log file.
#[derive(Clone, Debug, PartialEq, Eq)]
struct TailCursor {
    path: PathBuf,
    /// Inode of the file the offset refers to; `None` until first read
    /// (and always `None` on non-Unix hosts, where rotation is detected
    /// by shrinkage only).
    ino: Option<u64>,
    /// Byte offset of the first unconsumed byte.
    offset: u64,
}

fn tail_err(path: &Path, e: std::io::Error) -> DataError {
    DataError::Tail {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

fn ckpt_err(path: &Path, message: String) -> DataError {
    DataError::Checkpoint {
        path: path.display().to_string(),
        message,
    }
}

#[cfg(unix)]
fn inode_of(meta: &std::fs::Metadata) -> Option<u64> {
    use std::os::unix::fs::MetadataExt;
    Some(meta.ino())
}

#[cfg(not(unix))]
fn inode_of(_meta: &std::fs::Metadata) -> Option<u64> {
    None
}

/// [`LogSource`] that follows a directory of growing per-node `.log`
/// files (same layout as [`crate::source::DirSource`]). `Ok(None)` means
/// caught up, not finished — see the module docs.
#[derive(Debug)]
pub struct TailSource {
    nodes: Vec<NodeId>,
    cursors: Vec<TailCursor>,
    /// Round-robin start index so one chatty node cannot starve others.
    next: usize,
}

impl TailSource {
    /// Start following a log directory from the **end is not assumed**:
    /// cursors begin at byte 0, so an initial drain replays the full
    /// history (what `gpures watch --follow off` relies on).
    pub fn open(dir: &Path) -> Result<TailSource, DataError> {
        let (nodes, paths, _) = scan_log_dir(dir)?;
        let cursors = paths
            .into_iter()
            .map(|path| TailCursor {
                path,
                ino: None,
                offset: 0,
            })
            .collect();
        Ok(TailSource {
            nodes,
            cursors,
            next: 0,
        })
    }

    /// [`TailSource::open`], then restore any cursors recorded in the
    /// checkpoint file. A missing checkpoint file is a fresh start, not
    /// an error; a malformed one is [`DataError::Checkpoint`]. Entries
    /// whose path is no longer in the directory are ignored; files that
    /// rotated while the watcher was down are caught on the first poll
    /// (inode mismatch) and re-read from byte 0.
    pub fn open_with_checkpoint(dir: &Path, ckpt: &Path) -> Result<TailSource, DataError> {
        let mut source = TailSource::open(dir)?;
        let file = match File::open(ckpt) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(source),
            Err(e) => return Err(ckpt_err(ckpt, e.to_string())),
        };
        let mut reader = BufReader::new(file);
        let mut lineno = 0usize;
        loop {
            let mut line = String::new();
            let n = reader
                .read_line(&mut line)
                .map_err(|e| ckpt_err(ckpt, e.to_string()))?;
            if n == 0 {
                break;
            }
            lineno += 1;
            let line = line.trim_end_matches(['\n', '\r']);
            if line.is_empty() {
                continue;
            }
            let mut parts = line.splitn(3, ' ');
            let (ino, offset, path) = match (parts.next(), parts.next(), parts.next()) {
                (Some(i), Some(o), Some(p)) => {
                    let ino = i.parse::<u64>().map_err(|e| {
                        ckpt_err(ckpt, format!("line {lineno}: bad inode `{i}`: {e}"))
                    })?;
                    let offset = o.parse::<u64>().map_err(|e| {
                        ckpt_err(ckpt, format!("line {lineno}: bad offset `{o}`: {e}"))
                    })?;
                    (ino, offset, p)
                }
                _ => {
                    return Err(ckpt_err(
                        ckpt,
                        format!("line {lineno}: expected `<ino> <offset> <path>`"),
                    ))
                }
            };
            if let Some(cur) = source
                .cursors
                .iter_mut()
                .find(|c| c.path.as_os_str() == std::ffi::OsStr::new(path))
            {
                cur.ino = (ino != 0).then_some(ino);
                cur.offset = offset;
            }
        }
        Ok(source)
    }

    /// Render the cursor state as checkpoint text: one
    /// `<ino> <offset> <path>` line per followed file (inode 0 when not
    /// yet known). Deterministic — follows the scanned path order.
    pub fn checkpoint(&self) -> String {
        let mut out = String::new();
        for c in &self.cursors {
            out.push_str(&format!(
                "{} {} {}\n",
                c.ino.unwrap_or(0),
                c.offset,
                c.path.display()
            ));
        }
        out
    }

    /// Write [`TailSource::checkpoint`] to `path` (best-effort atomic:
    /// temp file then rename).
    pub fn save_checkpoint(&self, path: &Path) -> Result<(), DataError> {
        let tmp = path.with_extension("tmp");
        let mut f = File::create(&tmp).map_err(|e| ckpt_err(&tmp, e.to_string()))?;
        f.write_all(self.checkpoint().as_bytes())
            .map_err(|e| ckpt_err(&tmp, e.to_string()))?;
        std::fs::rename(&tmp, path).map_err(|e| ckpt_err(path, e.to_string()))?;
        Ok(())
    }

    /// Poll one file: read complete lines from its saved offset up to
    /// roughly `target` bytes. Returns `None` when the file has no new
    /// complete lines (including "file currently absent mid-rotation").
    fn poll_file(&mut self, idx: usize, target: u64) -> Result<Option<LogChunk<'static>>, DataError> {
        let Some(cur) = self.cursors.get_mut(idx) else {
            return Ok(None);
        };
        let mut file = match File::open(&cur.path) {
            Ok(f) => f,
            // Mid-rotation gap: the old file is gone, the new one not yet
            // created. Keep the cursor; the next poll sees the new inode.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(tail_err(&cur.path, e)),
        };
        let meta = file.metadata().map_err(|e| tail_err(&cur.path, e))?;
        let ino = inode_of(&meta);
        let rotated = match (cur.ino, ino) {
            (Some(old), Some(new)) if old != new => true,
            _ => meta.len() < cur.offset,
        };
        if rotated {
            cur.offset = 0;
        }
        cur.ino = ino;
        if meta.len() <= cur.offset {
            return Ok(None);
        }

        file.seek(SeekFrom::Start(cur.offset))
            .map_err(|e| tail_err(&cur.path, e))?;
        let mut left = meta.len() - cur.offset;
        let mut buf = Vec::new();
        let scanned = read_lines(&mut file, &mut buf, target, &mut left, true)
            .map_err(|e| tail_err(&cur.path, e))?;
        if scanned.spans.is_empty() {
            return Ok(None);
        }
        // Bytes past the last `\n` stay on disk for the next poll.
        buf.truncate(scanned.end);
        // On invalid UTF-8 the cursor stays put: the bad bytes fail every
        // poll rather than being skipped.
        let lines = PackedLines::from_utf8(buf, scanned.spans).map_err(|at| DataError::Tail {
            path: cur.path.display().to_string(),
            message: utf8_message(cur.offset + at as u64),
        })?;
        cur.offset += scanned.end as u64;
        Ok(Some(LogChunk {
            node: idx,
            lines: Lines::Packed(lines),
            bytes: scanned.bytes,
        }))
    }
}

impl LogSource<'static> for TailSource {
    fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// `Ok(None)` = caught up for now (poll again later), not end of
    /// stream. Files are visited round-robin starting after the last one
    /// that produced data.
    fn next_chunk(&mut self, target_bytes: u64) -> Result<Option<LogChunk<'static>>, DataError> {
        let target = target_bytes.max(1);
        let n = self.cursors.len();
        for step in 0..n {
            let idx = (self.next + step) % n.max(1);
            if let Some(chunk) = self.poll_file(idx, target)? {
                self.next = (idx + 1) % n.max(1);
                return Ok(Some(chunk));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gpures_tail_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn chunk_lines(c: &LogChunk<'_>) -> Vec<String> {
        c.lines.iter().map(str::to_owned).collect()
    }

    #[test]
    fn yields_only_complete_lines_and_then_catches_up() {
        let dir = tmp_dir("complete");
        let path = dir.join("gpub003.log");
        fs::write(&path, "alpha\nbeta\npartial").unwrap();
        let mut t = TailSource::open(&dir).unwrap();
        assert_eq!(t.nodes(), &[NodeId(3)]);
        let c = t.next_chunk(u64::MAX).unwrap().unwrap();
        assert_eq!(chunk_lines(&c), ["alpha", "beta"]);
        // The partial line is not consumed; we are caught up.
        assert!(t.next_chunk(u64::MAX).unwrap().is_none());
        // Completing the line makes it (and the next) visible.
        fs::write(&path, "alpha\nbeta\npartial-now-done\n").unwrap();
        let c = t.next_chunk(u64::MAX).unwrap().unwrap();
        assert_eq!(chunk_lines(&c), ["partial-now-done"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn follows_growth_across_polls() {
        let dir = tmp_dir("growth");
        let path = dir.join("gpub001.log");
        fs::write(&path, "one\n").unwrap();
        let mut t = TailSource::open(&dir).unwrap();
        assert_eq!(chunk_lines(&t.next_chunk(u64::MAX).unwrap().unwrap()), ["one"]);
        assert!(t.next_chunk(u64::MAX).unwrap().is_none());
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"two\nthree\n").unwrap();
        drop(f);
        let c = t.next_chunk(u64::MAX).unwrap().unwrap();
        assert_eq!(chunk_lines(&c), ["two", "three"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn detects_rotation_by_inode_and_rereads_from_zero() {
        let dir = tmp_dir("rotate");
        let path = dir.join("gpub002.log");
        fs::write(&path, "old-1\nold-2\n").unwrap();
        let mut t = TailSource::open(&dir).unwrap();
        assert_eq!(t.next_chunk(u64::MAX).unwrap().unwrap().lines.len(), 2);
        // Rotate: move the old file aside, create a fresh one at the path.
        fs::rename(&path, dir.join("gpub002.log.1")).unwrap();
        fs::write(&path, "new-1\n").unwrap();
        let c = t.next_chunk(u64::MAX).unwrap().unwrap();
        assert_eq!(chunk_lines(&c), ["new-1"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn detects_truncation_by_shrinkage() {
        let dir = tmp_dir("shrink");
        let path = dir.join("gpub004.log");
        fs::write(&path, "aaaa\nbbbb\ncccc\n").unwrap();
        let mut t = TailSource::open(&dir).unwrap();
        assert_eq!(t.next_chunk(u64::MAX).unwrap().unwrap().lines.len(), 3);
        fs::write(&path, "x\n").unwrap();
        let c = t.next_chunk(u64::MAX).unwrap().unwrap();
        assert_eq!(chunk_lines(&c), ["x"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_round_trips_and_resumes_midstream() {
        let dir = tmp_dir("ckpt");
        let path = dir.join("gpub005.log");
        fs::write(&path, "a\nb\nc\n").unwrap();
        let ckpt = dir.join("watch.ckpt");

        let mut t = TailSource::open(&dir).unwrap();
        assert_eq!(t.next_chunk(u64::MAX).unwrap().unwrap().lines.len(), 3);
        t.save_checkpoint(&ckpt).unwrap();

        // A restarted source resumes after `c`, not at the beginning.
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"d\n").unwrap();
        drop(f);
        let mut t2 = TailSource::open_with_checkpoint(&dir, &ckpt).unwrap();
        let c = t2.next_chunk(u64::MAX).unwrap().unwrap();
        assert_eq!(chunk_lines(&c), ["d"]);

        // Text format is the documented `<ino> <offset> <path>`.
        let text = t.checkpoint();
        let fields: Vec<&str> = text.split_whitespace().collect();
        assert_eq!(fields.len(), 3);
        assert_eq!(fields[1], "6"); // a\nb\nc\n
        assert!(fields[2].ends_with("gpub005.log"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_checkpoint_is_a_fresh_start_and_malformed_is_an_error() {
        let dir = tmp_dir("ckpt_err");
        fs::write(dir.join("gpub006.log"), "x\n").unwrap();
        assert!(TailSource::open_with_checkpoint(&dir, &dir.join("absent.ckpt")).is_ok());

        let bad = dir.join("bad.ckpt");
        fs::write(&bad, "only-two fields\n").unwrap();
        let err = TailSource::open_with_checkpoint(&dir, &bad).unwrap_err();
        match err {
            DataError::Checkpoint { path, message } => {
                assert!(path.ends_with("bad.ckpt"));
                assert!(message.contains("line 1"), "message: {message}");
            }
            other => panic!("expected Checkpoint error, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn round_robin_interleaves_nodes() {
        let dir = tmp_dir("rr");
        fs::write(dir.join("gpub010.log"), "n10-a\nn10-b\n").unwrap();
        fs::write(dir.join("gpub011.log"), "n11-a\n").unwrap();
        let mut t = TailSource::open(&dir).unwrap();
        assert_eq!(t.nodes(), &[NodeId(10), NodeId(11)]);
        // Tiny target: one line per chunk; nodes alternate.
        let c1 = t.next_chunk(1).unwrap().unwrap();
        let c2 = t.next_chunk(1).unwrap().unwrap();
        let c3 = t.next_chunk(1).unwrap().unwrap();
        assert_eq!((c1.node, chunk_lines(&c1)), (0, vec!["n10-a".to_string()]));
        assert_eq!((c2.node, chunk_lines(&c2)), (1, vec!["n11-a".to_string()]));
        assert_eq!((c3.node, chunk_lines(&c3)), (0, vec!["n10-b".to_string()]));
        assert!(t.next_chunk(1).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
