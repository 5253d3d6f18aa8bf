//! On-disk artifact formats used by the `gpures` CLI.
//!
//! * per-node syslog files `gpubNNN.log` in a log directory (the shape the
//!   real study consumed: one in-order text log per compute node);
//! * `downtime.csv` with repair intervals.
//!
//! Job-table CSV lives in `dr_slurm::csv` next to its types.

use dr_faults::DowntimeInterval;
use dr_xid::{DataError, GpuId, NodeId, PciAddr, Timestamp, Xid};
use resilience_core::source::LogSource;
use std::fmt::Write as _;
use std::io::{BufWriter, Write as _};
use std::path::Path;

/// Downtime CSV header.
pub const DOWNTIME_HEADER: &str = "gpu,start_us,end_us,cause_xid";

/// Serialize downtime intervals.
pub fn downtime_to_csv(intervals: &[DowntimeInterval]) -> String {
    let mut out = String::from(DOWNTIME_HEADER);
    out.push('\n');
    for d in intervals {
        let _ = writeln!(
            out,
            "{}/{},{},{},{}",
            d.gpu.node.0,
            d.gpu.pci,
            d.start.as_micros(),
            d.end.as_micros(),
            d.cause.code()
        );
    }
    out
}

/// Parse downtime intervals.
pub fn downtime_from_csv(text: &str) -> Result<Vec<DowntimeInterval>, DataError> {
    let err = |line: usize, m: &str| DataError::Csv {
        artifact: "downtime",
        line,
        message: m.to_string(),
    };
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, h)) if h.trim() == DOWNTIME_HEADER => {}
        _ => return Err(err(1, "missing or wrong header")),
    }
    let mut out = Vec::new();
    for (idx, raw) in lines {
        let raw = raw.trim();
        if raw.is_empty() {
            continue;
        }
        let e = |m: &str| err(idx + 1, m);
        let fields: Vec<&str> = raw.split(',').collect();
        if fields.len() != 4 {
            return Err(e("expected 4 fields"));
        }
        let (node, pci) = fields[0].split_once('/').ok_or_else(|| e("bad gpu"))?;
        let node: u32 = node.parse().map_err(|_| e("bad node"))?;
        let pci: PciAddr = pci.parse().map_err(|_| e("bad pci"))?;
        let start: u64 = fields[1].parse().map_err(|_| e("bad start"))?;
        let end: u64 = fields[2].parse().map_err(|_| e("bad end"))?;
        if end < start {
            return Err(e("end before start"));
        }
        let code: u16 = fields[3].parse().map_err(|_| e("bad xid"))?;
        let cause = Xid::from_code(code).ok_or_else(|| e("unknown xid"))?;
        out.push(DowntimeInterval {
            gpu: GpuId::new(NodeId(node), pci),
            start: Timestamp::from_micros(start),
            end: Timestamp::from_micros(end),
            cause,
        });
    }
    Ok(out)
}

fn io_err(path: &Path, e: std::io::Error) -> DataError {
    DataError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// What a streamed log-directory write produced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogWriteSummary {
    /// Log files created (one per source node, including empty logs).
    pub files: usize,
    /// Total lines written.
    pub lines: u64,
    /// Total bytes written (lines plus newlines).
    pub bytes: u64,
}

/// Pull target for the streaming writer: large enough to amortize write
/// syscalls, small enough that peak resident text stays negligible.
const WRITE_CHUNK_BYTES: u64 = 256 * 1024;

/// Write per-node log files (`gpubNNN.log`) into `dir`.
pub fn write_node_logs(dir: &Path, logs: &[(NodeId, Vec<String>)]) -> Result<(), DataError> {
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    for (node, lines) in logs {
        let path = dir.join(format!("{}.log", node.hostname()));
        let mut body = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for l in lines {
            body.push_str(l);
            body.push('\n');
        }
        std::fs::write(&path, body).map_err(|e| io_err(&path, e))?;
    }
    Ok(())
}

/// Stream a [`LogSource`] into per-node log files without materializing
/// any node's log: every node gets its file upfront (so empty logs still
/// exist on disk), then chunks are appended as the source yields them.
/// Peak resident text is one chunk.
pub fn write_node_logs_source<'s>(
    dir: &Path,
    source: &mut dyn LogSource<'s>,
) -> Result<LogWriteSummary, DataError> {
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let paths: Vec<_> = source
        .nodes()
        .iter()
        .map(|node| dir.join(format!("{}.log", node.hostname())))
        .collect();
    for path in &paths {
        std::fs::File::create(path).map_err(|e| io_err(path, e))?;
    }
    let mut summary = LogWriteSummary {
        files: paths.len(),
        ..LogWriteSummary::default()
    };
    // Chunks arrive node-major, so one open writer suffices; reopen (in
    // append mode — the file already exists) only on node change.
    let mut open: Option<(usize, BufWriter<std::fs::File>)> = None;
    while let Some(chunk) = source.next_chunk(WRITE_CHUNK_BYTES)? {
        let path = &paths[chunk.node];
        let writer = match &mut open {
            Some((node, w)) if *node == chunk.node => w,
            _ => {
                if let Some((prev, mut w)) = open.take() {
                    w.flush().map_err(|e| io_err(&paths[prev], e))?;
                }
                let file = std::fs::OpenOptions::new()
                    .append(true)
                    .open(path)
                    .map_err(|e| io_err(path, e))?;
                &mut open.insert((chunk.node, BufWriter::new(file))).1
            }
        };
        for line in chunk.lines.iter() {
            writer.write_all(line.as_bytes()).map_err(|e| io_err(path, e))?;
            writer.write_all(b"\n").map_err(|e| io_err(path, e))?;
        }
        summary.lines += chunk.lines.len() as u64;
        summary.bytes += chunk.bytes;
    }
    if let Some((node, mut w)) = open {
        w.flush().map_err(|e| io_err(&paths[node], e))?;
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_xid::Duration;

    /// Read back each node's `gpubNNN.log`; `dir` must hold no other file.
    fn read_back(dir: &Path, nodes: &[NodeId]) -> Vec<(NodeId, Vec<String>)> {
        assert_eq!(std::fs::read_dir(dir).expect("list").count(), nodes.len());
        nodes
            .iter()
            .map(|&node| {
                let path = dir.join(format!("{}.log", node.hostname()));
                let text = std::fs::read_to_string(&path).expect("read");
                (node, text.lines().map(str::to_owned).collect())
            })
            .collect()
    }

    #[test]
    fn downtime_round_trip() {
        let intervals = vec![DowntimeInterval {
            gpu: GpuId::at_slot(NodeId(9), 1),
            start: Timestamp::from_secs(100),
            end: Timestamp::from_secs(100) + Duration::from_mins(18),
            cause: Xid::GspRpcTimeout,
        }];
        let csv = downtime_to_csv(&intervals);
        let parsed = downtime_from_csv(&csv).expect("parses");
        assert_eq!(parsed, intervals);
    }

    #[test]
    fn downtime_rejects_garbage() {
        assert!(downtime_from_csv("").is_err());
        assert!(downtime_from_csv("gpu,start_us,end_us,cause_xid\n1/0000:07:00,5,1,119\n").is_err());
        assert!(downtime_from_csv("gpu,start_us,end_us,cause_xid\n1/0000:07:00,1,5,7\n").is_err());
    }

    #[test]
    fn node_logs_round_trip_through_disk() {
        let dir = std::env::temp_dir().join(format!("gpures-test-{}", std::process::id()));
        let logs = vec![
            (NodeId(3), vec!["line a".to_string(), "line b".to_string()]),
            (NodeId(17), vec!["only".to_string()]),
        ];
        write_node_logs(&dir, &logs).expect("write");
        let back = read_back(&dir, &[NodeId(3), NodeId(17)]);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(back, logs);
    }

    #[test]
    fn streamed_write_matches_batch_write_including_empty_nodes() {
        use resilience_core::source::InMemorySource;
        let dir = std::env::temp_dir().join(format!("gpures-swrite-{}", std::process::id()));
        let logs = vec![
            (NodeId(3), vec!["line a".to_string(), "line b".to_string()]),
            (NodeId(4), Vec::new()),
            (NodeId(17), vec!["only".to_string()]),
        ];
        let mut src = InMemorySource::new(&logs);
        let summary = write_node_logs_source(&dir, &mut src).expect("write");
        assert_eq!(summary.files, 3, "empty nodes still get a file");
        assert_eq!(summary.lines, 3);
        let back = read_back(&dir, &[NodeId(3), NodeId(4), NodeId(17)]);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(back, logs, "stream-written corpus reads back identically");
    }
}
