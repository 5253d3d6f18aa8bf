//! Log ingestion behind one streaming abstraction.
//!
//! The paper's Stage I corpus is 202 GB of per-node syslog — far beyond
//! what any analysis host should materialize. [`LogSource`] is the
//! pipeline's ingestion seam: a pull-based iterator over per-node,
//! line-boundary-aligned chunks of roughly `target_bytes` each, arriving
//! node-major and in order within a node. The Stage I driver
//! ([`crate::shard::extract_source_prefetch_observed`]) pulls one *wave*
//! of chunks per worker pool through a [`Prefetcher`] (inline with one
//! worker, on a reader thread with more), extracts it, and drops the text
//! before taking the next — peak resident log text is O(workers ×
//! target_bytes) regardless of corpus size.
//!
//! A chunk's [`Lines`] take one of two forms. [`InMemorySource`] lends
//! slices of a corpus that is already materialized ([`Lines::Borrowed`]);
//! every source that reads or renders text packs a chunk into one owned
//! buffer plus a span per line ([`Lines::Packed`]), so a chunk costs two
//! allocations however many lines it holds. Three sources cover every way
//! the repo obtains logs in batch:
//!
//! - [`InMemorySource`] — wraps an already-materialized
//!   `&[(NodeId, Vec<String>)]` without copying it.
//! - [`DirSource`] — incremental reads of a log directory (one `.log`
//!   file per node), as `gpures analyze` runs. Each chunk is filled by
//!   bounded `Read::read` calls into one buffer, its newlines found by a
//!   word-at-a-time search, and its UTF-8 validated once; a partial last
//!   line carries over to the node's next chunk. The buffer is sized to
//!   `min(target, bytes left in the file)` plus one read block of at most
//!   1 MiB, and grows past that only for a line that crosses it.
//! - [`GeneratorSource`] — pulls rendered lines straight out of a
//!   campaign's lazy [`dr_faults::textgen`] streams, so
//!   `gpures campaign` writes a corpus it never holds.
//!
//! [`crate::tail::TailSource`] follows growing files with the same
//! packed reads. All sources yield identical line content for identical
//! underlying data, and every source closes a chunk on the first line
//! whose bytes reach the target (the tail counts a line's bytes as on
//! disk, the others its stripped length + 1); the pipeline's results are
//! bit-identical across sources, chunk sizes, and worker counts (tier-1
//! tested).

use dr_faults::{CampaignOutput, NodeTextStream};
use dr_xid::{DataError, NodeId};
use std::fs::File;
use std::io::{ErrorKind, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread;

/// One unit of streamed log text: a run of consecutive lines from one
/// node's log. `node` indexes the source's [`LogSource::nodes`] slice.
/// A chunk read from a file holds its text in one buffer of at most
/// `min(target, bytes left in the file)` plus one read block (≤ 1 MiB)
/// plus the longest line that crosses it.
#[derive(Clone, Debug)]
pub struct LogChunk<'a> {
    /// Index into [`LogSource::nodes`].
    pub node: usize,
    /// The chunk's lines (no line terminators).
    pub lines: Lines<'a>,
    /// Byte volume as counted on disk: line bytes plus one newline each.
    pub bytes: u64,
}

/// The lines of one [`LogChunk`], without their line terminators.
#[derive(Clone, Debug)]
pub enum Lines<'a> {
    /// Lines lent by a materialized corpus ([`InMemorySource`]).
    Borrowed(&'a [String]),
    /// Lines packed into one owned buffer (every other source).
    Packed(PackedLines),
}

impl Lines<'_> {
    /// Number of lines.
    pub fn len(&self) -> usize {
        match self {
            Lines::Borrowed(lines) => lines.len(),
            Lines::Packed(packed) => packed.spans.len(),
        }
    }

    /// Whether there are no lines.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The lines in order, as `&str`.
    pub fn iter(&self) -> LinesIter<'_> {
        LinesIter(match self {
            Lines::Borrowed(lines) => IterForm::Borrowed(lines.iter()),
            Lines::Packed(packed) => IterForm::Packed(&packed.text, packed.spans.iter()),
        })
    }
}

impl<'c> IntoIterator for &'c Lines<'_> {
    type Item = &'c str;
    type IntoIter = LinesIter<'c>;

    fn into_iter(self) -> LinesIter<'c> {
        self.iter()
    }
}

/// Packs owned lines, as a test or custom [`LogSource`] builds a chunk.
impl<S: AsRef<str>> FromIterator<S> for Lines<'_> {
    fn from_iter<I: IntoIterator<Item = S>>(lines: I) -> Self {
        let mut packed = PackedLines::default();
        for line in lines {
            packed.push(line.as_ref());
        }
        Lines::Packed(packed)
    }
}

/// A chunk's text in one owned `String`, plus the byte span of each line
/// in it. Only this module builds one, and every span it records starts
/// and ends next to an ASCII byte (or at an end) of validated UTF-8, so
/// each span is a `char`-boundary slice of `text`.
#[derive(Clone, Debug, Default)]
pub struct PackedLines {
    text: String,
    spans: Vec<(usize, usize)>,
}

impl PackedLines {
    fn push(&mut self, line: &str) {
        let start = self.text.len();
        self.text.push_str(line);
        self.spans.push((start, self.text.len()));
    }

    /// Validate `buf` as UTF-8 and pair it with its line `spans`; on
    /// invalid input, the offset in `buf` of the first invalid byte.
    pub(crate) fn from_utf8(buf: Vec<u8>, spans: Vec<(usize, usize)>) -> Result<Self, usize> {
        match String::from_utf8(buf) {
            Ok(text) => Ok(PackedLines { text, spans }),
            Err(e) => Err(e.utf8_error().valid_up_to()),
        }
    }
}

/// Iterator over the lines of a [`Lines`].
#[derive(Clone, Debug)]
pub struct LinesIter<'c>(IterForm<'c>);

#[derive(Clone, Debug)]
enum IterForm<'c> {
    Borrowed(std::slice::Iter<'c, String>),
    Packed(&'c str, std::slice::Iter<'c, (usize, usize)>),
}

impl<'c> Iterator for LinesIter<'c> {
    type Item = &'c str;

    fn next(&mut self) -> Option<&'c str> {
        match &mut self.0 {
            IterForm::Borrowed(lines) => lines.next().map(String::as_str),
            // Spans are char-boundary slices by construction; `get` keeps
            // a violated invariant from becoming a panic.
            IterForm::Packed(text, spans) => spans
                .next()
                .map(|&(lo, hi)| text.get(lo..hi).unwrap_or_default()),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match &self.0 {
            IterForm::Borrowed(lines) => lines.len(),
            IterForm::Packed(_, spans) => spans.len(),
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for LinesIter<'_> {}

/// A pull-based stream of per-node log text in line-aligned chunks.
///
/// Contract: chunks arrive node-major (all of node 0's chunks, then all
/// of node 1's, …) and in line order within a node; every line of every
/// node is yielded exactly once. `next_chunk` returns chunks of at least
/// `target_bytes` (the final chunk of a node may be smaller, and chunks
/// never split a line), then `None` when the source is exhausted.
pub trait LogSource<'a> {
    /// The node ids this source covers, in emission order. Nodes with no
    /// lines are listed but yield no chunks.
    fn nodes(&self) -> &[NodeId];

    /// Pull the next chunk of roughly `target_bytes`, or `None` at end.
    fn next_chunk(&mut self, target_bytes: u64) -> Result<Option<LogChunk<'a>>, DataError>;

    /// Total corpus size in bytes when cheaply known (sizes chunks to the
    /// worker pool); `None` for generative sources.
    fn total_bytes_hint(&self) -> Option<u64> {
        None
    }
}

/// [`LogSource`] over an already-materialized corpus. Chunks borrow the
/// underlying lines (no copy), making the streaming path a strict
/// generalization of the in-memory one.
pub struct InMemorySource<'a> {
    logs: &'a [(NodeId, Vec<String>)],
    nodes: Vec<NodeId>,
    node: usize,
    line: usize,
}

impl<'a> InMemorySource<'a> {
    pub fn new(logs: &'a [(NodeId, Vec<String>)]) -> Self {
        InMemorySource {
            logs,
            nodes: logs.iter().map(|(n, _)| *n).collect(),
            node: 0,
            line: 0,
        }
    }
}

impl<'a> LogSource<'a> for InMemorySource<'a> {
    fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    fn next_chunk(&mut self, target_bytes: u64) -> Result<Option<LogChunk<'a>>, DataError> {
        let target = target_bytes.max(1);
        while self.node < self.logs.len() {
            let lines = &self.logs[self.node].1;
            if self.line >= lines.len() {
                self.node += 1;
                self.line = 0;
                continue;
            }
            let start = self.line;
            let mut acc = 0u64;
            while self.line < lines.len() {
                acc += lines[self.line].len() as u64 + 1;
                self.line += 1;
                if acc >= target {
                    break;
                }
            }
            return Ok(Some(LogChunk {
                node: self.node,
                lines: Lines::Borrowed(&lines[start..self.line]),
                bytes: acc,
            }));
        }
        Ok(None)
    }

    fn total_bytes_hint(&self) -> Option<u64> {
        Some(
            self.logs
                .iter()
                .flat_map(|(_, lines)| lines.iter())
                .map(|l| l.len() as u64 + 1)
                .sum(),
        )
    }
}

/// [`LogSource`] over a directory of per-node `.log` files (the layout
/// `dr_report::files::write_node_logs_source` produces: `<host><id>.log`,
/// one per node, sorted by path). Files are read incrementally into
/// packed chunks (see the module docs) — at no point is a whole file
/// resident unless the chunk target asks for it.
pub struct DirSource {
    nodes: Vec<NodeId>,
    paths: Vec<PathBuf>,
    cur: usize,
    reader: Option<FileCursor>,
    total_bytes: u64,
}

/// Read position in the file [`DirSource`] is working through.
struct FileCursor {
    file: File,
    /// The bytes read past the previous chunk's last line.
    carry: Vec<u8>,
    /// File offset of `carry`'s first byte.
    offset: u64,
    /// Bytes not yet read, as the file's size at open tells it.
    left: u64,
}

fn io_err(path: &Path, e: std::io::Error) -> DataError {
    DataError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// The message for a chunk whose bytes are not UTF-8: `offset` is the
/// absolute file offset of the first invalid byte.
pub(crate) fn utf8_message(offset: u64) -> String {
    format!("invalid UTF-8 at byte offset {offset}")
}

/// Smallest and largest single `read` a packed chunk issues.
const MIN_READ: usize = 8 << 10;
const MAX_READ: usize = 1 << 20;

/// Position of the first `\n` in `hay`, eight bytes per step (SWAR).
fn find_newline(hay: &[u8]) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    const NL: u64 = LO * b'\n' as u64;
    let mut words = hay.chunks_exact(8);
    let mut base = 0;
    for word in &mut words {
        let x = u64::from_le_bytes(<[u8; 8]>::try_from(word).unwrap_or_default()) ^ NL;
        // Nonzero exactly when some byte of `x` is zero; the lowest
        // flagged byte is the first `\n` (borrows only run upward).
        let hit = x.wrapping_sub(LO) & !x & HI;
        if hit != 0 {
            return Some(base + (hit.trailing_zeros() / 8) as usize);
        }
        base += 8;
    }
    words
        .remainder()
        .iter()
        .position(|&b| b == b'\n')
        .map(|i| base + i)
}

/// The `\n`-terminated lines [`read_lines`] found in its buffer.
pub(crate) struct Scanned {
    /// Each line's span in the buffer, one `\r` before the `\n` stripped.
    pub(crate) spans: Vec<(usize, usize)>,
    /// Stripped length + 1 per line: the chunk's `bytes`.
    pub(crate) bytes: u64,
    /// Buffer offset just past the last line's `\n`.
    pub(crate) end: usize,
    /// Whether the reader hit end of file.
    pub(crate) eof: bool,
}

/// Read from `reader` onto the end of `buf` (which may already hold a
/// carried-over partial line) until the `\n`-terminated lines in it
/// reach `target`, or the reader ends. A line weighs its raw length when
/// `raw` is set (the tail's rule) and its stripped length + 1 otherwise.
///
/// `left` — bytes left in the file past `buf`, as far as its size is
/// known — is counted down by each read. It bounds the buffer to
/// `min(target, buf + left)` plus one read block of at most
/// [`MAX_READ`]: each read asks for what the target or the file still
/// needs, at least [`MIN_READ`], and the buffer grows beyond that only by
/// a line that crosses it.
pub(crate) fn read_lines(
    reader: &mut impl Read,
    buf: &mut Vec<u8>,
    target: u64,
    left: &mut u64,
    raw: bool,
) -> std::io::Result<Scanned> {
    let to_usize = |n: u64| usize::try_from(n).unwrap_or(usize::MAX);
    let carried = buf.len() as u64;
    let first = target
        .min(carried.saturating_add(*left))
        .saturating_sub(carried);
    buf.reserve_exact(to_usize(first).saturating_add(MIN_READ));
    let mut spans = Vec::new();
    let (mut weight, mut bytes) = (0u64, 0u64);
    // `start`: the current line's first byte; `scanned`: bytes searched.
    let (mut start, mut scanned) = (0usize, 0usize);
    loop {
        while let Some(at) = buf.get(scanned..).and_then(find_newline) {
            let nl = scanned + at;
            let stop = if nl > start && buf.get(nl - 1) == Some(&b'\r') {
                nl - 1
            } else {
                nl
            };
            spans.push((start, stop));
            bytes += (stop - start) as u64 + 1;
            let len = if raw { nl + 1 } else { stop + 1 } - start;
            weight += len as u64;
            start = nl + 1;
            scanned = start;
            if weight >= target {
                return Ok(Scanned {
                    spans,
                    bytes,
                    end: start,
                    eof: false,
                });
            }
        }
        let filled = buf.len();
        scanned = filled;
        let pending = (filled - start) as u64;
        let need = target.saturating_sub(weight + pending).min(*left);
        let want = to_usize(need.max(pending)).clamp(MIN_READ, MAX_READ);
        buf.reserve_exact(want);
        buf.resize(filled + want, 0);
        let n = loop {
            match reader.read(buf.get_mut(filled..).unwrap_or_default()) {
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                r => break r?,
            }
        };
        buf.truncate(filled + n);
        *left = left.saturating_sub(n as u64);
        if n == 0 {
            return Ok(Scanned {
                spans,
                bytes,
                end: start,
                eof: true,
            });
        }
    }
}

/// Scan a directory of per-node log files: every `*.log`, sorted by
/// path, node id parsed from the digits of the file stem
/// (`gpub017.log` → 17). Returns the node ids, their paths (parallel
/// vectors), and the total on-disk byte count at scan time. Shared by
/// [`DirSource`] (one-shot batch reads) and [`crate::tail::TailSource`]
/// (live following), so both agree on which files constitute a corpus.
pub(crate) fn scan_log_dir(dir: &Path) -> Result<(Vec<NodeId>, Vec<PathBuf>, u64), DataError> {
    let entries = std::fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
    let mut paths = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) == Some("log") {
            paths.push(path);
        }
    }
    paths.sort();
    let mut nodes = Vec::with_capacity(paths.len());
    let mut total_bytes = 0u64;
    for path in &paths {
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default();
        let id = stem
            .trim_start_matches(|c: char| c.is_ascii_alphabetic())
            .parse::<u32>()
            .map_err(|e| DataError::Io {
                path: path.display().to_string(),
                message: format!("file name does not encode a node id: {e}"),
            })?;
        nodes.push(NodeId(id));
        total_bytes += std::fs::metadata(path).map_err(|e| io_err(path, e))?.len();
    }
    Ok((nodes, paths, total_bytes))
}

impl DirSource {
    /// Open a log directory: every `*.log` file, sorted by path, node id
    /// parsed from the digits of the file stem (`gpub017.log` → 17).
    pub fn open(dir: &Path) -> Result<DirSource, DataError> {
        let (nodes, paths, total_bytes) = scan_log_dir(dir)?;
        Ok(DirSource {
            nodes,
            paths,
            cur: 0,
            reader: None,
            total_bytes,
        })
    }
}

impl LogSource<'static> for DirSource {
    fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Invalid UTF-8 fails with [`DataError::Io`] naming the file and the
    /// byte offset of the first invalid byte.
    fn next_chunk(&mut self, target_bytes: u64) -> Result<Option<LogChunk<'static>>, DataError> {
        let target = target_bytes.max(1);
        while let Some(path) = self.paths.get(self.cur) {
            let cursor = match &mut self.reader {
                Some(cursor) => cursor,
                None => {
                    let file = File::open(path).map_err(|e| io_err(path, e))?;
                    let left = file.metadata().map_err(|e| io_err(path, e))?.len();
                    self.reader.insert(FileCursor {
                        file,
                        carry: Vec::new(),
                        offset: 0,
                        left,
                    })
                }
            };
            let mut buf = std::mem::take(&mut cursor.carry);
            let scanned = read_lines(&mut cursor.file, &mut buf, target, &mut cursor.left, false)
                .map_err(|e| io_err(path, e))?;
            let Scanned {
                mut spans,
                mut bytes,
                mut end,
                eof,
            } = scanned;
            if eof && end < buf.len() {
                // An unterminated final line is still a line (and keeps
                // any `\r`, which only a `\n` strips).
                spans.push((end, buf.len()));
                bytes += (buf.len() - end) as u64 + 1;
                end = buf.len();
            }
            cursor.carry = buf.split_off(end);
            let offset = cursor.offset;
            cursor.offset += end as u64;
            let node = self.cur;
            if eof {
                self.reader = None;
                self.cur += 1;
            }
            if spans.is_empty() {
                continue;
            }
            let lines = PackedLines::from_utf8(buf, spans).map_err(|at| DataError::Io {
                path: path.display().to_string(),
                message: utf8_message(offset + at as u64),
            })?;
            return Ok(Some(LogChunk {
                node,
                lines: Lines::Packed(lines),
                bytes,
            }));
        }
        Ok(None)
    }

    fn total_bytes_hint(&self) -> Option<u64> {
        Some(self.total_bytes)
    }
}

/// [`LogSource`] that renders a campaign's syslog text on demand from
/// its lazy [`dr_faults::textgen`] streams — the corpus never exists in
/// memory. Pair with `CampaignConfig::defer_text` so the campaign skips
/// eager rendering entirely.
pub struct GeneratorSource<'a> {
    nodes: Vec<NodeId>,
    streams: Vec<NodeTextStream<'a>>,
    cur: usize,
}

impl<'a> GeneratorSource<'a> {
    /// Stream the text corpus of a finished campaign.
    pub fn from_campaign(out: &'a CampaignOutput) -> Self {
        let (nodes, streams) = out.text_streams().into_iter().unzip();
        GeneratorSource {
            nodes,
            streams,
            cur: 0,
        }
    }
}

impl<'a> LogSource<'static> for GeneratorSource<'a> {
    fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    fn next_chunk(&mut self, target_bytes: u64) -> Result<Option<LogChunk<'static>>, DataError> {
        let target = target_bytes.max(1);
        while self.cur < self.streams.len() {
            let stream = &mut self.streams[self.cur];
            let mut lines = PackedLines::default();
            let mut acc = 0u64;
            while acc < target {
                let Some(line) = stream.next() else { break };
                acc += line.len() as u64 + 1;
                lines.push(&line);
            }
            if lines.spans.is_empty() {
                self.cur += 1;
                continue;
            }
            return Ok(Some(LogChunk {
                node: self.cur,
                lines: Lines::Packed(lines),
                bytes: acc,
            }));
        }
        Ok(None)
    }
}

// ---------------------------------------------------------------------------
// Waves: what the shard driver extracts between source pulls
// ---------------------------------------------------------------------------

/// One wave of chunks — what the shard driver extracts between source
/// pulls. `bytes` is the summed on-disk byte volume of the chunks.
#[derive(Debug)]
pub struct Wave<'a> {
    /// The wave's chunks, node-major and in source order.
    pub chunks: Vec<LogChunk<'a>>,
    /// Total byte volume across `chunks`.
    pub bytes: u64,
}

/// Pull one wave (chunks of ≈ `target` bytes until ≥ `budget` bytes are
/// gathered) from `source`; `None` once the source is exhausted. This is
/// the *single* definition of wave boundaries: the Stage I driver's
/// [`Prefetcher`] calls it inline or on its reader thread, so the waves —
/// and therefore the extracted results — are the same at every worker
/// count.
pub fn pull_wave<'s>(
    source: &mut dyn LogSource<'s>,
    target: u64,
    budget: u64,
) -> Result<Option<Wave<'s>>, DataError> {
    let n_nodes = source.nodes().len();
    let mut chunks = Vec::new();
    let mut bytes = 0u64;
    while bytes < budget {
        let Some(chunk) = source.next_chunk(target)? else {
            break;
        };
        check_chunk_node(&chunk, n_nodes)?;
        bytes += chunk.bytes;
        chunks.push(chunk);
    }
    if chunks.is_empty() {
        Ok(None)
    } else {
        Ok(Some(Wave { chunks, bytes }))
    }
}

/// Reject a chunk whose `node` is not an index into its source's
/// [`LogSource::nodes`] table of `n_nodes` entries. [`LogSource`] is a
/// public trait, so an implementation can break that contract; Stage I
/// (through [`pull_wave`]) and the live watch loop both check every
/// chunk here instead of panicking or silently dropping it.
pub(crate) fn check_chunk_node(chunk: &LogChunk<'_>, n_nodes: usize) -> Result<(), DataError> {
    if chunk.node < n_nodes {
        return Ok(());
    }
    Err(DataError::Io {
        path: "<log source>".to_string(),
        message: format!(
            "chunk names node index {} but the source declares {n_nodes} nodes",
            chunk.node
        ),
    })
}

// ---------------------------------------------------------------------------
// Prefetch: a producer one unit ahead of its consumer
// ---------------------------------------------------------------------------

/// A unit a [`Prefetcher`] hands over — a text [`Wave`] or a decoded
/// [`crate::store::RecordBatch`] — weighed by the bytes its resident
/// gauge counts.
pub trait Prefetched: Send {
    /// On-disk byte volume the unit was read from.
    fn bytes(&self) -> u64;
}

impl Prefetched for Wave<'_> {
    fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Double-buffered prefetch over any pull function: text waves (the
/// Stage I driver pulls [`pull_wave`]) and decoded store
/// blocks (the record replay) alike. A dedicated thread pulls unit
/// *N+1* while the caller works on unit *N*.
///
/// Two bounded channels join the sides. Units travel on a one-slot
/// `sync_channel(1)`, so handing one over never waits for the consumer
/// to wake up. The producer pulls a unit only with a credit, and there
/// are two: the consumer returns one each time it retires the unit it
/// held (on its next [`PrefetchRx::recv`]). So at most two units are
/// resident — the one the consumer holds and the one staged or being
/// pulled (for waves, ≤ 2 × the wave budget plus at most one chunk of
/// overshoot per side, since a wave closes on the first chunk that
/// reaches the budget). A producer slower than its consumer never waits
/// for a credit; a faster one waits only for the consumer. The exact
/// high-water mark is tracked on a shared counter and exposed as
/// [`PrefetchRx::peak_resident_bytes`].
///
/// With one worker (`dr_par::max_workers() == 1`, through
/// `dr_par::set_worker_override(Some(1))` or `DR_PAR_THREADS=1`) no
/// thread starts: [`PrefetchRx::recv`] calls the pull function on the
/// caller's thread, so a one-worker run is serial, and one unit is
/// resident.
///
/// A pull failure is forwarded through the channel and surfaces as `Err`
/// from [`PrefetchRx::recv`] — never a panic — after which the producer
/// thread exits. If the consumer stops early, dropping its handle
/// unblocks the producer and the thread exits cleanly. Either way
/// [`Prefetcher::run`] joins the thread before it returns, so the caller
/// holds its source again afterwards.
pub struct Prefetcher<P> {
    pull: P,
}

/// Units resident at once on the threaded path: the held one and the
/// staged one.
const PREFETCH_UNITS: usize = 2;

impl<P> Prefetcher<P> {
    /// Prefetch the units `pull` yields, until it returns `Ok(None)` or
    /// an error.
    pub fn new(pull: P) -> Self {
        Prefetcher { pull }
    }

    /// Run `consumer` with a [`PrefetchRx`] yielding prefetched units,
    /// while the producer thread stays one unit ahead. Returns the
    /// consumer's value after the producer thread has been joined.
    pub fn run<T, R>(self, consumer: impl FnOnce(&mut PrefetchRx<'_, T>) -> R) -> R
    where
        P: FnMut() -> Result<Option<T>, DataError> + Send,
        T: Prefetched,
    {
        let mut pull = self.pull;
        let gauge = Resident::default();
        if dr_par::max_workers() == 1 {
            return consumer(&mut PrefetchRx {
                feed: Feed::Inline(&mut pull),
                gauge: &gauge,
                held: None,
            });
        }
        thread::scope(|scope| {
            let (tx, rx) = mpsc::sync_channel::<Result<T, DataError>>(1);
            let (credit_tx, credit_rx) = mpsc::sync_channel::<()>(PREFETCH_UNITS);
            for _ in 0..PREFETCH_UNITS {
                let _ = credit_tx.try_send(());
            }
            let producer_gauge = &gauge;
            scope.spawn(move || {
                // A closed credit channel means the consumer hung up.
                while credit_rx.recv().is_ok() {
                    match pull() {
                        Ok(Some(unit)) => {
                            // Count the unit the moment it is fully
                            // resident, before handing it over.
                            producer_gauge.add(unit.bytes());
                            if tx.send(Ok(unit)).is_err() {
                                break; // consumer hung up early
                            }
                        }
                        Ok(None) => break, // source exhausted; drop tx to signal end
                        Err(e) => {
                            let _ = tx.send(Err(e));
                            break;
                        }
                    }
                }
            });
            consumer(&mut PrefetchRx {
                feed: Feed::Thread { rx, credit_tx },
                gauge: &gauge,
                held: None,
            })
        })
    }
}

/// Bytes resident across both buffer slots, and their high-water mark.
#[derive(Default)]
struct Resident {
    now: AtomicU64,
    high_water: AtomicU64,
}

impl Resident {
    fn add(&self, bytes: u64) {
        let now = self.now.fetch_add(bytes, Ordering::SeqCst) + bytes;
        self.high_water.fetch_max(now, Ordering::SeqCst);
    }

    fn retire(&self, bytes: u64) {
        self.now.fetch_sub(bytes, Ordering::SeqCst);
    }
}

/// Where a [`PrefetchRx`] gets its units: the producer thread's channel
/// (returning a credit per retired unit), or (with one worker) the pull
/// function itself.
enum Feed<'p, T> {
    Thread {
        rx: mpsc::Receiver<Result<T, DataError>>,
        credit_tx: mpsc::SyncSender<()>,
    },
    Inline(&'p mut (dyn FnMut() -> Result<Option<T>, DataError> + 'p)),
}

/// Consumer handle to a running [`Prefetcher`]: yields units and reports
/// the resident high-water mark across both buffer slots.
pub struct PrefetchRx<'p, T> {
    feed: Feed<'p, T>,
    gauge: &'p Resident,
    /// Bytes of the unit last yielded, until the next `recv` retires it.
    held: Option<u64>,
}

impl<T: Prefetched> PrefetchRx<'_, T> {
    /// Receive the next unit, blocking until the producer delivers one;
    /// `None` once the source is exhausted. The previously yielded unit
    /// must be dropped before calling again (the natural shape of a
    /// `while let` loop) — it is retired here: its bytes leave the
    /// resident count and its credit goes back to the producer.
    pub fn recv(&mut self) -> Result<Option<T>, DataError> {
        let retired = self.held.take();
        if let Some(bytes) = retired {
            self.gauge.retire(bytes);
        }
        let unit = match &mut self.feed {
            Feed::Thread { rx, credit_tx } => {
                if retired.is_some() {
                    // Never blocks: credits in flight plus units held or
                    // staged are `PREFETCH_UNITS`. Fails only once the
                    // producer has exited.
                    let _ = credit_tx.try_send(());
                }
                match rx.recv() {
                    // The producer dropped its sender: clean end of stream.
                    Err(mpsc::RecvError) => None,
                    Ok(unit) => Some(unit?),
                }
            }
            Feed::Inline(pull) => {
                let unit = pull()?;
                if let Some(u) = &unit {
                    self.gauge.add(u.bytes());
                }
                unit
            }
        };
        self.held = unit.as_ref().map(Prefetched::bytes);
        Ok(unit)
    }

    /// High-water mark, in bytes, of the units resident across the
    /// consumer-held slot and the producer-staged slot, over the life of
    /// the prefetch so far: at most two units (one with one worker).
    pub fn peak_resident_bytes(&self) -> u64 {
        self.gauge.high_water.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::plan_chunks;

    fn corpus() -> Vec<(NodeId, Vec<String>)> {
        vec![
            (
                NodeId(1),
                vec!["alpha".to_string(), "bravo line".to_string(), "c".to_string()],
            ),
            (NodeId(2), Vec::new()),
            (NodeId(5), vec!["delta".to_string(), "echo".to_string()]),
        ]
    }

    /// Write `logs` as a log directory, one `\n`-terminated file per node.
    fn write_dir(tag: &str, logs: &[(NodeId, Vec<String>)]) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gpures_source_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (node, lines) in logs {
            let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
            std::fs::write(dir.join(format!("{}.log", node.hostname())), text).unwrap();
        }
        dir
    }

    /// `(node, lines, bytes)` of every chunk `src` yields at `target`.
    fn chunk_shape(src: &mut dyn LogSource<'_>, target: u64) -> Vec<(usize, usize, u64)> {
        let mut got = Vec::new();
        while let Some(c) = src.next_chunk(target).unwrap() {
            got.push((c.node, c.lines.len(), c.bytes));
        }
        got
    }

    #[test]
    fn every_source_chunks_match_plan_chunks_boundaries() {
        let campaign = dr_faults::Campaign::run(dr_faults::CampaignConfig {
            duration_days: 2.0,
            ..dr_faults::CampaignConfig::tiny(11)
        });
        for (tag, logs) in [
            ("corpus", corpus()),
            ("campaign", campaign.text_logs.clone()),
        ] {
            let dir = write_dir(tag, &logs);
            for target in [1u64, 7, 64, 4096, u64::MAX] {
                let want: Vec<_> = plan_chunks(&logs, target)
                    .iter()
                    .map(|c| (c.node, c.end - c.start, c.bytes))
                    .collect();
                let at = format!("{tag} target {target}");
                let mut mem = InMemorySource::new(&logs);
                assert_eq!(chunk_shape(&mut mem, target), want, "in-memory, {at}");
                let mut disk = DirSource::open(&dir).unwrap();
                assert_eq!(chunk_shape(&mut disk, target), want, "dir, {at}");
                // The tail visits nodes round-robin; each node's order counts.
                let mut tail = crate::tail::TailSource::open(&dir).unwrap();
                let mut tail_shape = chunk_shape(&mut tail, target);
                tail_shape.sort_by_key(|c| c.0);
                assert_eq!(tail_shape, want, "tail, {at}");
                if tag == "campaign" {
                    let mut gen = GeneratorSource::from_campaign(&campaign);
                    assert_eq!(chunk_shape(&mut gen, target), want, "generator, {at}");
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn find_newline_matches_a_bytewise_search_at_every_alignment() {
        let mut hay = vec![b'x'; 40];
        assert_eq!(find_newline(&hay), None);
        for nl in 0..hay.len() {
            hay[nl] = b'\n';
            // High bytes next to the hit must not be flagged instead.
            if nl + 1 < hay.len() {
                hay[nl + 1] = 0x8a;
            }
            for from in 0..=nl {
                assert_eq!(
                    find_newline(&hay[from..]),
                    Some(nl - from),
                    "nl {nl} from {from}"
                );
            }
            hay[nl] = b'x';
            if nl + 1 < hay.len() {
                hay[nl + 1] = b'x';
            }
        }
    }

    #[test]
    fn packed_chunks_stay_within_the_allocation_bound() {
        // Lines of 100 bytes: a 64 KiB target must not make a 1 MiB
        // buffer, and a whole-file target sizes the buffer to the file.
        let line = "y".repeat(99);
        let logs = vec![(NodeId(3), vec![line; 5_000])];
        let dir = write_dir("bound", &logs);
        let file_len = 5_000 * 100;
        for (target, cap) in [
            (64 << 10, (64 << 10) + 100 + MIN_READ),
            (u64::MAX, file_len + MIN_READ),
        ] {
            let mut src = DirSource::open(&dir).unwrap();
            while let Some(c) = src.next_chunk(target).unwrap() {
                let Lines::Packed(p) = &c.lines else {
                    panic!("dir chunks are packed")
                };
                assert!(
                    p.text.capacity() <= cap,
                    "capacity {} > {cap}",
                    p.text.capacity()
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A source that yields `good` chunks of one line each, then fails.
    struct FailingSource {
        nodes: Vec<NodeId>,
        yielded: usize,
        good: usize,
    }

    impl LogSource<'static> for FailingSource {
        fn nodes(&self) -> &[NodeId] {
            &self.nodes
        }

        fn next_chunk(&mut self, _target: u64) -> Result<Option<LogChunk<'static>>, DataError> {
            if self.yielded >= self.good {
                return Err(DataError::Io {
                    path: "<failing-source>".to_string(),
                    message: "disk read failed mid-stream".to_string(),
                });
            }
            self.yielded += 1;
            Ok(Some(LogChunk {
                node: 0,
                lines: ["noise line"].into_iter().collect(),
                bytes: 11,
            }))
        }

        fn total_bytes_hint(&self) -> Option<u64> {
            None
        }
    }

    /// A prefetcher of `src`'s waves, as the Stage I driver
    /// runs one.
    fn wave_prefetcher<'a, 's: 'a>(
        src: &'a mut (dyn LogSource<'s> + Send),
        target: u64,
        budget: u64,
    ) -> Prefetcher<impl FnMut() -> Result<Option<Wave<'s>>, DataError> + Send + 'a> {
        Prefetcher::new(move || pull_wave(src, target, budget))
    }

    #[test]
    fn prefetcher_yields_the_same_waves_as_synchronous_pulls() {
        let logs = corpus();
        let (target, budget) = (6u64, 12u64);

        let mut sync_src = InMemorySource::new(&logs);
        let mut sync_waves: Vec<(usize, u64)> = Vec::new();
        while let Some(w) = pull_wave(&mut sync_src, target, budget).unwrap() {
            sync_waves.push((w.chunks.len(), w.bytes));
        }
        assert!(sync_waves.len() > 1, "corpus must span several waves");

        let mut src = InMemorySource::new(&logs);
        let pf_waves = wave_prefetcher(&mut src, target, budget).run(|rx| {
            let mut got = Vec::new();
            while let Some(w) = rx.recv().unwrap() {
                got.push((w.chunks.len(), w.bytes));
            }
            got
        });
        assert_eq!(pf_waves, sync_waves, "wave boundaries must be identical");
    }

    #[test]
    fn prefetcher_on_an_empty_source_yields_nothing() {
        let logs: Vec<(NodeId, Vec<String>)> = vec![];
        let mut src = InMemorySource::new(&logs);
        let n = wave_prefetcher(&mut src, 64, 128).run(|rx| {
            let mut n = 0;
            while let Some(_w) = rx.recv().unwrap() {
                n += 1;
            }
            n
        });
        assert_eq!(n, 0);
    }

    #[test]
    fn prefetcher_on_a_single_chunk_source_yields_one_wave() {
        let logs = vec![(NodeId(0), vec!["only line".to_string()])];
        let mut src = InMemorySource::new(&logs);
        let waves = wave_prefetcher(&mut src, 1 << 20, 8 << 20).run(|rx| {
            let mut got = Vec::new();
            while let Some(w) = rx.recv().unwrap() {
                got.push(w.chunks.len());
            }
            got
        });
        assert_eq!(waves, vec![1]);
    }

    #[test]
    fn prefetcher_propagates_mid_stream_errors_without_panicking() {
        let mut src = FailingSource {
            nodes: vec![NodeId(0)],
            yielded: 0,
            good: 3,
        };
        let err = wave_prefetcher(&mut src, 11, 22).run(|rx| loop {
            match rx.recv() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("source must fail before exhaustion"),
                Err(e) => break e,
            }
        });
        assert!(
            err.to_string().contains("disk read failed mid-stream"),
            "error must carry the source's message, got: {err}"
        );
    }

    #[test]
    fn prefetcher_consumer_may_stop_early_without_deadlock() {
        let logs = corpus();
        let mut src = InMemorySource::new(&logs);
        // Take a single wave and return: the producer is left blocked in
        // `send`; dropping the receiver must release it so `run` joins.
        let first = wave_prefetcher(&mut src, 6, 6).run(|rx| {
            rx.recv().unwrap().map(|w| w.bytes)
        });
        assert!(first.is_some());
    }

    #[test]
    fn prefetcher_peak_resident_never_exceeds_two_waves() {
        let logs = corpus();
        let (target, budget) = (6u64, 12u64);
        // Chunk overshoot: a chunk closes on the line that crosses the
        // target, a wave on the chunk that crosses the budget.
        let max_line = logs
            .iter()
            .flat_map(|(_, l)| l.iter())
            .map(|l| l.len() as u64 + 1)
            .max()
            .unwrap_or(0);
        let bound = 2 * (budget + target + max_line);
        let mut src = InMemorySource::new(&logs);
        let peak = wave_prefetcher(&mut src, target, budget).run(|rx| {
            while let Some(_w) = rx.recv().unwrap() {}
            rx.peak_resident_bytes()
        });
        assert!(peak > 0, "high-water mark must be recorded");
        assert!(
            peak <= bound,
            "peak {peak} exceeds the double-buffer bound {bound}"
        );
    }

    /// A prefetch unit of one byte.
    struct Unit;

    impl Prefetched for Unit {
        fn bytes(&self) -> u64 {
            1
        }
    }

    #[test]
    fn prefetcher_stays_two_units_ahead_of_a_slow_consumer() {
        // A producer much faster than its consumer: the credits, not the
        // one-slot channel, must stop it at two resident units.
        let mut left = 40u32;
        let pull = move || {
            Ok(left.checked_sub(1).map(|l| {
                left = l;
                Unit
            }))
        };
        let (n, peak) = Prefetcher::new(pull).run(|rx| {
            let mut n = 0;
            while let Some(_unit) = rx.recv().unwrap() {
                std::thread::sleep(std::time::Duration::from_millis(1));
                n += 1;
            }
            (n, rx.peak_resident_bytes())
        });
        assert_eq!(n, 40);
        assert!((1..=2).contains(&peak), "peak {peak} units resident");
    }

    #[test]
    fn chunks_are_node_major_and_line_exact() {
        let logs = corpus();
        let mut src = InMemorySource::new(&logs);
        let mut last_node = 0usize;
        let mut all: Vec<Vec<String>> = vec![Vec::new(); logs.len()];
        while let Some(c) = src.next_chunk(6).unwrap() {
            assert!(c.node >= last_node, "chunks must be node-major");
            last_node = c.node;
            all[c.node].extend(c.lines.iter().map(str::to_owned));
        }
        for (i, (_, lines)) in logs.iter().enumerate() {
            assert_eq!(&all[i], lines);
        }
    }
}
