//! Columnar `ErrorRecord` store: parse once, re-analyze in milliseconds.
//!
//! Stage I extraction is deterministic and its output never changes, yet
//! every re-coalesce at a different Δt or propagation-window ablation
//! used to re-pay the full regex cost over raw text. This module is the
//! write-once binary layer that breaks that loop (ROADMAP item 5): the
//! extract pass tees its per-node record streams into a compact
//! struct-of-arrays file, and later runs replay from it through
//! [`PipelineBuilder::run_record_source`](crate::pipeline::PipelineBuilder::run_record_source)
//! with bit-identical `StudyResults`.
//!
//! ## File layout (version 1)
//!
//! ```text
//! header   8 B   magic "GRCS" · version u16 LE · flags u16 LE (0)
//! blocks   …     struct-of-arrays payloads (dr_xid::colenc::encode_block)
//! footer   …     node table · GpuId dict · Xid dict · block index
//! trailer  20 B  footer offset u64 LE · footer FNV-1a64 u64 LE · magic
//! ```
//!
//! Each block holds the records of **one node, in stream order**, at
//! most [`MAX_BLOCK_RECORDS`] per block. The footer's block index keeps
//! `{node, byte range, record count, min/max timestamp, checksum}` per
//! block, so a reader finds every block without scanning the payloads,
//! and every block is independently checksummed.
//! Dictionaries live in the footer (not the header) because the writer
//! streams blocks out as extraction produces them; the tables are only
//! complete at [`RecordStoreWriter::finish`].
//!
//! Reading follows the same pulled-iteration contract as
//! [`LogSource`](crate::source::LogSource): [`RecordSource::next_batch`]
//! yields one decoded block at a time (seek + exact-length read into one
//! reused buffer — never a whole-file slurp, which the stream-hygiene
//! lint now also forbids for `read_to_end`). The replay reads, checksums
//! and decodes on a [`Prefetcher`](crate::source::Prefetcher) thread one
//! block ahead while the caller pushes the current block into its node's
//! coalescer, so resident memory is at most two decoded blocks plus the
//! episodes, regardless of store size (one block with one worker, when
//! the reads run inline). A store whose streams are not per-node is the
//! one exception: the replay joins that thread, calls
//! [`RecordSource::rewind`] and reads every record into memory for the
//! batch route. Truncation and corruption anywhere — header, blocks,
//! footer, trailer — surface as typed [`DataError::Store`] values,
//! never panics; the whole read path sits inside dr-lint's
//! panic-reachability closure.

use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use dr_xid::colenc::{
    decode_block, decode_gpu, encode_block, encode_gpu, fnv1a64, read_varint, write_varint,
    RecordDict, GPU_ENTRY_BYTES,
};
use dr_xid::{DataError, ErrorRecord, GpuId, NodeId, Timestamp, Xid};

/// File magic: "GPU Resilience Columnar Store".
pub const STORE_MAGIC: [u8; 4] = *b"GRCS";
/// Current (and only) format version.
pub const STORE_VERSION: u16 = 1;
/// Header size: magic + version + flags.
pub const HEADER_BYTES: u64 = 8;
/// Trailer size: footer offset + footer checksum + magic.
pub const TRAILER_BYTES: u64 = 20;
/// Records per block cap: bounds a reader batch.
pub const MAX_BLOCK_RECORDS: usize = 4096;

fn store_err(path: &str, message: impl Into<String>) -> DataError {
    DataError::Store {
        path: path.to_string(),
        message: message.into(),
    }
}

/// Map an I/O failure: unexpected EOF means the file is shorter than
/// its own metadata claims (truncation → [`DataError::Store`]); any
/// other kind is a filesystem problem ([`DataError::Io`]).
fn read_err(path: &str, what: &str, e: std::io::Error) -> DataError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        store_err(path, format!("truncated {what}"))
    } else {
        DataError::Io {
            path: path.to_string(),
            message: e.to_string(),
        }
    }
}

fn io_err(path: &str, e: std::io::Error) -> DataError {
    DataError::Io {
        path: path.to_string(),
        message: e.to_string(),
    }
}

/// One entry of the footer's block index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockMeta {
    /// Index into the store's node table.
    pub node_idx: usize,
    /// Byte offset of the block payload in the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// Records in the block.
    pub count: u64,
    /// Smallest record timestamp in the block.
    pub min_at: Timestamp,
    /// Largest record timestamp in the block.
    pub max_at: Timestamp,
    /// FNV-1a 64 checksum of the payload bytes.
    pub checksum: u64,
}

/// What a completed write produced, for logs and benchmarks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreSummary {
    pub blocks: usize,
    pub records: u64,
    /// Total file size in bytes.
    pub bytes: u64,
    /// Distinct GPUs in the dictionary.
    pub gpus: usize,
    /// Distinct XIDs in the dictionary.
    pub xids: usize,
}

/// Streaming store writer: header first, blocks as they arrive,
/// dictionaries + index + trailer at [`RecordStoreWriter::finish`].
#[derive(Debug)]
pub struct RecordStoreWriter {
    out: BufWriter<File>,
    path: String,
    offset: u64,
    nodes: Vec<NodeId>,
    dict: RecordDict,
    blocks: Vec<BlockMeta>,
    records: u64,
}

impl RecordStoreWriter {
    /// Create `path` (truncating any existing file) and write the header.
    /// `nodes` fixes the node table; every appended block names its node
    /// by index into it.
    pub fn create(path: &Path, nodes: &[NodeId]) -> Result<RecordStoreWriter, DataError> {
        let display = path.display().to_string();
        let file = File::create(path).map_err(|e| io_err(&display, e))?;
        let mut out = BufWriter::new(file);
        out.write_all(&STORE_MAGIC)
            .and_then(|()| out.write_all(&STORE_VERSION.to_le_bytes()))
            .and_then(|()| out.write_all(&0u16.to_le_bytes()))
            .map_err(|e| io_err(&display, e))?;
        Ok(RecordStoreWriter {
            out,
            path: display,
            offset: HEADER_BYTES,
            nodes: nodes.to_vec(),
            dict: RecordDict::new(),
            blocks: Vec::new(),
            records: 0,
        })
    }

    /// Append one node's record stream, splitting it into blocks of at
    /// most [`MAX_BLOCK_RECORDS`]. Order is preserved exactly — the
    /// store is a faithful transcript of the extract output, including
    /// any non-monotonic stretches.
    pub fn append_node(&mut self, node_idx: usize, records: &[ErrorRecord]) -> Result<(), DataError> {
        if node_idx >= self.nodes.len() {
            return Err(store_err(
                &self.path,
                format!(
                    "node index {node_idx} out of range for {}-node table",
                    self.nodes.len()
                ),
            ));
        }
        for chunk in records.chunks(MAX_BLOCK_RECORDS) {
            let Some(first) = chunk.first() else {
                continue;
            };
            let (min_at, max_at) = chunk.iter().fold((first.at, first.at), |(lo, hi), r| {
                (lo.min(r.at), hi.max(r.at))
            });
            let payload = encode_block(chunk, &mut self.dict);
            self.out
                .write_all(&payload)
                .map_err(|e| io_err(&self.path, e))?;
            self.blocks.push(BlockMeta {
                node_idx,
                offset: self.offset,
                len: payload.len() as u64,
                count: chunk.len() as u64,
                min_at,
                max_at,
                checksum: fnv1a64(&payload),
            });
            self.offset += payload.len() as u64;
            self.records += chunk.len() as u64;
        }
        Ok(())
    }

    /// Serialize the footer (node table, dictionaries, block index) and
    /// trailer, then flush. The file is only a valid store once this
    /// returns `Ok`.
    pub fn finish(mut self) -> Result<StoreSummary, DataError> {
        let mut footer = Vec::new();
        write_varint(&mut footer, self.nodes.len() as u64);
        for n in &self.nodes {
            footer.extend_from_slice(&n.0.to_le_bytes());
        }
        write_varint(&mut footer, self.dict.gpus().len() as u64);
        for &g in self.dict.gpus() {
            encode_gpu(g, &mut footer);
        }
        write_varint(&mut footer, self.dict.xids().len() as u64);
        for &x in self.dict.xids() {
            footer.extend_from_slice(&x.code().to_le_bytes());
        }
        write_varint(&mut footer, self.blocks.len() as u64);
        for b in &self.blocks {
            write_varint(&mut footer, b.node_idx as u64);
            write_varint(&mut footer, b.offset);
            write_varint(&mut footer, b.len);
            write_varint(&mut footer, b.count);
            write_varint(&mut footer, b.min_at.as_micros());
            write_varint(&mut footer, b.max_at.as_micros());
            footer.extend_from_slice(&b.checksum.to_le_bytes());
        }

        self.out
            .write_all(&footer)
            .and_then(|()| self.out.write_all(&self.offset.to_le_bytes()))
            .and_then(|()| self.out.write_all(&fnv1a64(&footer).to_le_bytes()))
            .and_then(|()| self.out.write_all(&STORE_MAGIC))
            .and_then(|()| self.out.flush())
            .map_err(|e| io_err(&self.path, e))?;

        Ok(StoreSummary {
            blocks: self.blocks.len(),
            records: self.records,
            bytes: self.offset + footer.len() as u64 + TRAILER_BYTES,
            gpus: self.dict.gpus().len(),
            xids: self.dict.xids().len(),
        })
    }
}

/// Write a complete store from per-node record streams (one `Vec` per
/// entry of `nodes`, in the same order — the shape Stage I extraction
/// returns).
pub fn write_store(
    path: &Path,
    nodes: &[NodeId],
    per_node: &[Vec<ErrorRecord>],
) -> Result<StoreSummary, DataError> {
    if nodes.len() != per_node.len() {
        return Err(store_err(
            &path.display().to_string(),
            format!(
                "node table has {} entries but {} record streams were supplied",
                nodes.len(),
                per_node.len()
            ),
        ));
    }
    let mut writer = RecordStoreWriter::create(path, nodes)?;
    for (i, records) in per_node.iter().enumerate() {
        writer.append_node(i, records)?;
    }
    writer.finish()
}

/// Cursor over the footer byte buffer; every short read is a typed
/// truncation error naming the file.
struct FooterCursor<'a> {
    buf: &'a [u8],
    pos: usize,
    path: &'a str,
}

impl<'a> FooterCursor<'a> {
    fn varint(&mut self, what: &str) -> Result<u64, DataError> {
        read_varint(self.buf, &mut self.pos)
            .ok_or_else(|| store_err(self.path, format!("truncated footer ({what})")))
    }

    /// A varint count whose entries occupy at least one byte each — so
    /// any count exceeding the remaining footer is corrupt, and it is
    /// safe to use as an allocation size.
    fn count(&mut self, what: &str) -> Result<usize, DataError> {
        let n = self.varint(what)?;
        let remaining = self.buf.len().saturating_sub(self.pos) as u64;
        usize::try_from(n)
            .ok()
            .filter(|&n| n as u64 <= remaining)
            .ok_or_else(|| store_err(self.path, format!("implausible footer {what} count {n}")))
    }

    fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], DataError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| store_err(self.path, format!("truncated footer ({what})")))?;
        let out = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| store_err(self.path, format!("truncated footer ({what})")))?;
        self.pos = end;
        Ok(out)
    }

    fn u64_le(&mut self, what: &str) -> Result<u64, DataError> {
        let b = self.bytes(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }
}

/// An opened store's metadata: node table, dictionaries, and block
/// index, fully validated. Opening reads *only* header, trailer, and
/// footer — block payloads stay on disk until a
/// [`StoreRecordSource`] pulls them.
#[derive(Clone, Debug)]
pub struct RecordStore {
    path: String,
    nodes: Vec<NodeId>,
    gpus: Vec<GpuId>,
    xids: Vec<Xid>,
    blocks: Vec<BlockMeta>,
}

impl RecordStore {
    /// Open and validate a store file. Every malformation — short file,
    /// bad magic, unsupported version, truncated or checksum-failing
    /// footer, out-of-bounds block ranges — is a typed
    /// [`DataError::Store`].
    pub fn open(path: &Path) -> Result<RecordStore, DataError> {
        let display = path.display().to_string();
        let mut file = File::open(path).map_err(|e| io_err(&display, e))?;
        let len = file.metadata().map_err(|e| io_err(&display, e))?.len();
        if len < HEADER_BYTES + TRAILER_BYTES {
            return Err(store_err(
                &display,
                format!("{len}-byte file is too short to be a record store (empty or truncated)"),
            ));
        }

        let mut header = [0u8; HEADER_BYTES as usize];
        file.read_exact(&mut header)
            .map_err(|e| read_err(&display, "header", e))?;
        if header[..4] != STORE_MAGIC {
            return Err(store_err(&display, "bad magic (not a record store)"));
        }
        let version = u16::from_le_bytes([header[4], header[5]]);
        if version != STORE_VERSION {
            return Err(store_err(
                &display,
                format!("unsupported store version {version} (this reader supports {STORE_VERSION})"),
            ));
        }

        let mut trailer = [0u8; TRAILER_BYTES as usize];
        file.seek(SeekFrom::End(-(TRAILER_BYTES as i64)))
            .and_then(|_| file.read_exact(&mut trailer))
            .map_err(|e| read_err(&display, "trailer", e))?;
        if trailer[16..20] != STORE_MAGIC {
            return Err(store_err(
                &display,
                "trailer magic missing (file truncated or not finished)",
            ));
        }
        let mut a = [0u8; 8];
        a.copy_from_slice(&trailer[..8]);
        let footer_offset = u64::from_le_bytes(a);
        a.copy_from_slice(&trailer[8..16]);
        let footer_checksum = u64::from_le_bytes(a);
        if footer_offset < HEADER_BYTES || footer_offset > len - TRAILER_BYTES {
            return Err(store_err(
                &display,
                format!("footer offset {footer_offset} out of bounds (file truncated?)"),
            ));
        }

        let footer_len = (len - TRAILER_BYTES - footer_offset) as usize;
        let mut footer = vec![0u8; footer_len];
        file.seek(SeekFrom::Start(footer_offset))
            .and_then(|_| file.read_exact(&mut footer))
            .map_err(|e| read_err(&display, "footer", e))?;
        if fnv1a64(&footer) != footer_checksum {
            return Err(store_err(&display, "footer checksum mismatch (corrupt index)"));
        }

        let mut cur = FooterCursor {
            buf: &footer,
            pos: 0,
            path: &display,
        };
        let n_nodes = cur.count("node table")?;
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let b = cur.bytes(4, "node table")?;
            let mut a = [0u8; 4];
            a.copy_from_slice(b);
            nodes.push(NodeId(u32::from_le_bytes(a)));
        }
        let n_gpus = cur.count("gpu dictionary")?;
        let mut gpus = Vec::with_capacity(n_gpus);
        for _ in 0..n_gpus {
            let b = cur.bytes(GPU_ENTRY_BYTES, "gpu dictionary")?;
            let g = decode_gpu(b)
                .ok_or_else(|| store_err(&display, "truncated footer (gpu dictionary)"))?;
            gpus.push(g);
        }
        let n_xids = cur.count("xid dictionary")?;
        let mut xids = Vec::with_capacity(n_xids);
        for _ in 0..n_xids {
            let b = cur.bytes(2, "xid dictionary")?;
            let code = u16::from_le_bytes([*b.first().unwrap_or(&0), *b.get(1).unwrap_or(&0)]);
            let xid = Xid::from_code(code).ok_or_else(|| {
                store_err(&display, format!("unknown xid code {code} in dictionary"))
            })?;
            xids.push(xid);
        }
        let n_blocks = cur.count("block index")?;
        let mut blocks = Vec::with_capacity(n_blocks);
        for i in 0..n_blocks {
            let node_idx = cur.varint("block node")?;
            let offset = cur.varint("block offset")?;
            let blen = cur.varint("block length")?;
            let count = cur.varint("block count")?;
            let min_at = Timestamp::from_micros(cur.varint("block min time")?);
            let max_at = Timestamp::from_micros(cur.varint("block max time")?);
            let checksum = cur.u64_le("block checksum")?;
            let node_idx = usize::try_from(node_idx)
                .ok()
                .filter(|&n| n < nodes.len())
                .ok_or_else(|| {
                    store_err(&display, format!("block {i} names node {node_idx}, beyond the node table"))
                })?;
            if offset < HEADER_BYTES
                || blen == 0
                || offset.checked_add(blen).map_or(true, |end| end > footer_offset)
            {
                return Err(store_err(
                    &display,
                    format!("block {i} byte range {offset}+{blen} escapes the data region"),
                ));
            }
            blocks.push(BlockMeta {
                node_idx,
                offset,
                len: blen,
                count,
                min_at,
                max_at,
                checksum,
            });
        }
        if cur.pos != footer.len() {
            return Err(store_err(
                &display,
                format!("{} trailing bytes after footer", footer.len() - cur.pos),
            ));
        }

        Ok(RecordStore {
            path: display,
            nodes,
            gpus,
            xids,
            blocks,
        })
    }

    /// The node table, in store order (block `node` indices point here).
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The block index, in file order.
    pub fn blocks(&self) -> &[BlockMeta] {
        &self.blocks
    }

    /// Total records across all blocks (from the index — no decoding).
    pub fn record_count(&self) -> u64 {
        self.blocks.iter().map(|b| b.count).sum()
    }

    /// A pulled-iteration reader over the store's blocks. Opens its own
    /// file handle, so multiple readers can replay the same store.
    pub fn reader(&self, path: &Path) -> Result<StoreRecordSource<'_>, DataError> {
        let file = File::open(path).map_err(|e| io_err(&self.path, e))?;
        Ok(StoreRecordSource {
            store: self,
            file,
            next_block: 0,
            buf: Vec::new(),
        })
    }
}

/// One decoded block of records, the unit of pulled iteration on the
/// record-replay path (the analogue of [`crate::source::LogChunk`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordBatch {
    /// Index into [`RecordSource::nodes`].
    pub node: usize,
    /// The block's records, in stream order.
    pub records: Vec<ErrorRecord>,
    /// On-disk payload bytes this batch was decoded from (feeds the
    /// `peak_resident_bytes` gauge, mirroring `LogChunk::bytes`).
    pub bytes: u64,
}

impl crate::source::Prefetched for RecordBatch {
    fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// The pulled-iteration contract for structured-record ingestion — the
/// `LogSource` of the replay path. Batches for one node arrive in
/// stream order; different nodes may interleave.
///
/// The replay
/// ([`PipelineBuilder::run_record_source`](crate::pipeline::PipelineBuilder::run_record_source))
/// calls [`RecordSource::next_batch`] on a
/// [`Prefetcher`](crate::source::Prefetcher) thread, one batch ahead of
/// the caller, which pushes each batch into its node's coalescer as it
/// arrives and keeps no records; hence the `Send` bound. An error from
/// `next_batch` ends the replay with that error. Only when the streams
/// turn out not to be per-node (a stream out of time order, a stream
/// holding another node's GPUs, or two streams holding one node's) does
/// it join that thread, call [`RecordSource::rewind`] and drain the
/// source again on the caller's thread into memory for the batch route;
/// only malformed logs reach that path.
pub trait RecordSource: Send {
    /// Node identity table; `RecordBatch::node` indexes into it.
    fn nodes(&self) -> &[NodeId];
    /// Pull the next batch, or `Ok(None)` at end of stream.
    fn next_batch(&mut self) -> Result<Option<RecordBatch>, DataError>;
    /// Restart iteration: the next [`RecordSource::next_batch`] yields
    /// the first batch again, and the batches that follow are the same
    /// ones in the same order.
    fn rewind(&mut self) -> Result<(), DataError>;
}

/// Block-at-a-time reader over an opened [`RecordStore`]: seek to the
/// indexed byte range, exact-length read, checksum, decode.
#[derive(Debug)]
pub struct StoreRecordSource<'a> {
    store: &'a RecordStore,
    file: File,
    next_block: usize,
    /// Payload buffer, reused by every block read.
    buf: Vec<u8>,
}

impl StoreRecordSource<'_> {
    fn read_block(&mut self, i: usize, meta: BlockMeta) -> Result<Vec<ErrorRecord>, DataError> {
        let path = &self.store.path;
        let blen = usize::try_from(meta.len)
            .map_err(|_| store_err(path, format!("block {i} length {} overflows", meta.len)))?;
        self.buf.resize(blen, 0);
        let buf = &mut self.buf[..blen];
        self.file
            .seek(SeekFrom::Start(meta.offset))
            .and_then(|_| self.file.read_exact(buf))
            .map_err(|e| read_err(path, &format!("block {i}"), e))?;
        if fnv1a64(buf) != meta.checksum {
            return Err(store_err(path, format!("block {i} checksum mismatch (corrupt data)")));
        }
        let records = decode_block(buf, &self.store.gpus, &self.store.xids, path)?;
        if records.len() as u64 != meta.count {
            return Err(store_err(
                path,
                format!(
                    "block {i} decoded {} records but the index promises {}",
                    records.len(),
                    meta.count
                ),
            ));
        }
        Ok(records)
    }
}

impl RecordSource for StoreRecordSource<'_> {
    fn nodes(&self) -> &[NodeId] {
        &self.store.nodes
    }

    fn next_batch(&mut self) -> Result<Option<RecordBatch>, DataError> {
        let i = self.next_block;
        let Some(&meta) = self.store.blocks.get(i) else {
            return Ok(None);
        };
        self.next_block += 1;
        let records = self.read_block(i, meta)?;
        Ok(Some(RecordBatch {
            node: meta.node_idx,
            records,
            bytes: meta.len,
        }))
    }

    fn rewind(&mut self) -> Result<(), DataError> {
        self.next_block = 0;
        Ok(())
    }
}

/// In-memory [`RecordSource`] over per-node record streams — the
/// `InMemorySource` analogue, for tests and callers that already hold
/// records.
#[derive(Clone, Debug)]
pub struct InMemoryRecordSource {
    nodes: Vec<NodeId>,
    per_node: Vec<Vec<ErrorRecord>>,
    next: usize,
}

impl InMemoryRecordSource {
    pub fn new(nodes: &[NodeId], per_node: &[Vec<ErrorRecord>]) -> InMemoryRecordSource {
        InMemoryRecordSource {
            nodes: nodes.to_vec(),
            per_node: per_node.to_vec(),
            next: 0,
        }
    }
}

impl RecordSource for InMemoryRecordSource {
    fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    fn next_batch(&mut self) -> Result<Option<RecordBatch>, DataError> {
        loop {
            let i = self.next;
            let Some(records) = self.per_node.get(i) else {
                return Ok(None);
            };
            self.next += 1;
            if records.is_empty() {
                continue;
            }
            return Ok(Some(RecordBatch {
                node: i,
                records: records.clone(),
                bytes: (records.len() * std::mem::size_of::<ErrorRecord>()) as u64,
            }));
        }
    }

    fn rewind(&mut self) -> Result<(), DataError> {
        self.next = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_xid::{ErrorDetail, Xid};
    use std::path::PathBuf;

    fn rec(us: u64, node: u32, slot: usize, xid: Xid) -> ErrorRecord {
        ErrorRecord::new(
            Timestamp::from_micros(us),
            GpuId::at_slot(NodeId(node), slot),
            xid,
            ErrorDetail::new(1, 2),
        )
    }

    struct ScratchFile(PathBuf);
    impl ScratchFile {
        fn new(tag: &str) -> ScratchFile {
            ScratchFile(
                std::env::temp_dir()
                    .join(format!("gpures-store-{tag}-{}.bin", std::process::id())),
            )
        }
        fn path(&self) -> &Path {
            &self.0
        }
    }
    impl Drop for ScratchFile {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
        }
    }

    fn sample_streams() -> (Vec<NodeId>, Vec<Vec<ErrorRecord>>) {
        let nodes = vec![NodeId(3), NodeId(7), NodeId(12)];
        let per_node = vec![
            (0..10)
                .map(|k| rec(1_000_000 + k * 250_000, 3, (k % 8) as usize, Xid::DoubleBitEcc))
                .collect(),
            Vec::new(), // a node with no errors must round-trip too
            (0..5)
                .map(|k| rec(2_000_000 + k * 100_000, 12, 0, Xid::NvlinkError))
                .collect(),
        ];
        (nodes, per_node)
    }

    fn collect_per_node(store: &RecordStore, path: &Path) -> Vec<Vec<ErrorRecord>> {
        let mut out = vec![Vec::new(); store.nodes().len()];
        let mut src = store.reader(path).expect("reader");
        while let Some(batch) = src.next_batch().expect("batch") {
            out[batch.node].extend(batch.records);
        }
        out
    }

    #[test]
    fn write_read_round_trip_preserves_streams_and_order() {
        let f = ScratchFile::new("roundtrip");
        let (nodes, per_node) = sample_streams();
        let summary = write_store(f.path(), &nodes, &per_node).expect("write");
        assert_eq!(summary.records, 15);
        assert_eq!(summary.blocks, 2); // the empty node writes no block
        assert_eq!(summary.gpus, 9); // 8 slots on node 3 + 1 on node 12
        assert_eq!(summary.xids, 2);
        assert_eq!(
            summary.bytes,
            std::fs::metadata(f.path()).expect("meta").len()
        );

        let store = RecordStore::open(f.path()).expect("open");
        assert_eq!(store.nodes(), &nodes[..]);
        assert_eq!(store.record_count(), 15);
        assert_eq!(collect_per_node(&store, f.path()), per_node);
    }

    #[test]
    fn large_streams_split_into_multiple_indexed_blocks() {
        let f = ScratchFile::new("multiblock");
        let nodes = vec![NodeId(1)];
        let stream: Vec<ErrorRecord> = (0..(MAX_BLOCK_RECORDS as u64 * 2 + 17))
            .map(|k| rec(k * 1_000, 1, 0, Xid::MmuError))
            .collect();
        let per_node = vec![stream.clone()];
        let summary = write_store(f.path(), &nodes, &per_node).expect("write");
        assert_eq!(summary.blocks, 3);
        let store = RecordStore::open(f.path()).expect("open");
        assert_eq!(store.blocks().len(), 3);
        // Index min/max must bracket each block's actual span.
        for b in store.blocks() {
            assert!(b.min_at <= b.max_at);
            assert!(b.count as usize <= MAX_BLOCK_RECORDS);
        }
        assert_eq!(collect_per_node(&store, f.path()), per_node);
    }

    #[test]
    fn zero_record_store_is_valid_and_yields_nothing() {
        let f = ScratchFile::new("zero");
        let nodes = vec![NodeId(1), NodeId(2)];
        let summary = write_store(f.path(), &nodes, &[Vec::new(), Vec::new()]).expect("write");
        assert_eq!(summary.records, 0);
        let store = RecordStore::open(f.path()).expect("open");
        assert_eq!(store.record_count(), 0);
        let mut src = store.reader(f.path()).expect("reader");
        assert_eq!(src.next_batch().expect("eof"), None);
    }

    #[test]
    fn empty_file_is_a_typed_store_error() {
        let f = ScratchFile::new("emptyfile");
        std::fs::write(f.path(), b"").expect("touch");
        let err = RecordStore::open(f.path()).expect_err("empty file must fail");
        assert!(matches!(err, DataError::Store { .. }), "{err}");
        assert!(err.to_string().contains("too short"), "{err}");
    }

    #[test]
    fn bad_magic_and_bad_version_are_typed_store_errors() {
        let f = ScratchFile::new("magic");
        let (nodes, per_node) = sample_streams();
        write_store(f.path(), &nodes, &per_node).expect("write");
        let good = std::fs::read(f.path()).expect("read back");

        let mut bad = good.clone();
        bad[0] = b'X';
        std::fs::write(f.path(), &bad).expect("rewrite");
        let err = RecordStore::open(f.path()).expect_err("bad magic");
        assert!(err.to_string().contains("bad magic"), "{err}");

        let mut bad = good.clone();
        bad[4] = 0xFF; // version LE low byte
        std::fs::write(f.path(), &bad).expect("rewrite");
        let err = RecordStore::open(f.path()).expect_err("bad version");
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn truncation_anywhere_is_a_typed_store_error() {
        let f = ScratchFile::new("truncate");
        let (nodes, per_node) = sample_streams();
        write_store(f.path(), &nodes, &per_node).expect("write");
        let good = std::fs::read(f.path()).expect("read back");

        // Chop the file at several depths: inside the trailer, inside
        // the footer, inside the data region, inside the header.
        for keep in [good.len() - 1, good.len() - 12, good.len() / 2, 11, 5] {
            std::fs::write(f.path(), &good[..keep]).expect("rewrite");
            let err = RecordStore::open(f.path()).expect_err("truncated store must fail");
            assert!(matches!(err, DataError::Store { .. }), "keep={keep}: {err}");
        }
    }

    #[test]
    fn block_corruption_is_caught_by_the_block_checksum() {
        let f = ScratchFile::new("bitflip");
        let (nodes, per_node) = sample_streams();
        write_store(f.path(), &nodes, &per_node).expect("write");
        let mut bytes = std::fs::read(f.path()).expect("read back");
        // Flip one bit inside the first block payload (data region
        // starts right after the 8-byte header).
        bytes[10] ^= 0x40;
        std::fs::write(f.path(), &bytes).expect("rewrite");

        // The footer is intact, so open succeeds...
        let store = RecordStore::open(f.path()).expect("open");
        // ...but pulling the corrupt block is a typed error.
        let mut src = store.reader(f.path()).expect("reader");
        let err = loop {
            match src.next_batch() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("corrupt block must surface an error"),
                Err(e) => break e,
            }
        };
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn footer_corruption_is_caught_by_the_footer_checksum() {
        let f = ScratchFile::new("footerflip");
        let (nodes, per_node) = sample_streams();
        write_store(f.path(), &nodes, &per_node).expect("write");
        let mut bytes = std::fs::read(f.path()).expect("read back");
        // Flip a byte just before the 20-byte trailer: inside the footer.
        let i = bytes.len() - TRAILER_BYTES as usize - 3;
        bytes[i] ^= 0x01;
        std::fs::write(f.path(), &bytes).expect("rewrite");
        let err = RecordStore::open(f.path()).expect_err("corrupt footer");
        assert!(err.to_string().contains("footer checksum"), "{err}");
    }

    #[test]
    fn in_memory_record_source_matches_store_reader() {
        let f = ScratchFile::new("inmem");
        let (nodes, per_node) = sample_streams();
        write_store(f.path(), &nodes, &per_node).expect("write");
        let store = RecordStore::open(f.path()).expect("open");
        let from_disk = collect_per_node(&store, f.path());

        let mut mem = InMemoryRecordSource::new(&nodes, &per_node);
        let mut from_mem = vec![Vec::new(); nodes.len()];
        while let Some(b) = mem.next_batch().expect("batch") {
            from_mem[b.node].extend(b.records);
        }
        assert_eq!(from_mem, from_disk);
    }

    #[test]
    fn writer_rejects_mismatched_shapes() {
        let f = ScratchFile::new("shapes");
        let err = write_store(f.path(), &[NodeId(1)], &[Vec::new(), Vec::new()])
            .expect_err("shape mismatch");
        assert!(matches!(err, DataError::Store { .. }), "{err}");
        let mut w = RecordStoreWriter::create(f.path(), &[NodeId(1)]).expect("create");
        let err = w.append_node(5, &[]).expect_err("node index out of range");
        assert!(err.to_string().contains("out of range"), "{err}");
    }
}
