//! Online (streaming) operators behind the live path.
//!
//! The batch pipeline answers "what happened over 855 days"; a live
//! [`crate::watch::WatchSession`] needs the same episodes as lines
//! arrive. [`WatermarkBuffer`] turns interleaved per-node arrivals into
//! one time-ordered record stream, and [`StreamCoalescer`] is
//! Algorithm 1 as an incremental operator over it: **exactly
//! equivalent** to the batch [`coalesce`](crate::coalesce::coalesce) on
//! a time-ordered stream (property-tested), emitting each coalesced
//! error as soon as its merge window expires. The batch path and the
//! record replay use the same operator once per node
//! ([`merge_and_coalesce_observed`](crate::shard::merge_and_coalesce_observed),
//! [`PipelineBuilder::run_record_source`](crate::pipeline::PipelineBuilder::run_record_source)):
//! a node's stream is time-ordered and holds all of its GPUs' records,
//! so no merge across nodes is needed.

use crate::coalesce::{sort_episodes, CoalesceConfig, CoalescedError};
use dr_xid::{Duration, ErrorRecord, Timestamp};

/// Incremental Algorithm 1.
///
/// The open set is a flat `Vec` (one entry per identity, in no
/// particular order): each record scans it once, expiring stale
/// episodes and finding its own on the way, so a record costs
/// O(open episodes) and allocates nothing unless an episode closes.
#[derive(Clone, Debug)]
pub struct StreamCoalescer {
    cfg: CoalesceConfig,
    /// Episodes still inside their merge window.
    open: Vec<CoalescedError>,
    /// Latest record timestamp seen (stream clock).
    now: Option<Timestamp>,
}

impl StreamCoalescer {
    pub fn new(cfg: CoalesceConfig) -> Self {
        StreamCoalescer {
            cfg,
            open: Vec::new(),
            now: None,
        }
    }

    /// Number of episodes currently open.
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Feed one record (records must arrive in time order) and append
    /// the episodes the advancing clock closed to `out`, in
    /// `(start, gpu, xid, detail)` order.
    ///
    /// # Panics
    /// If `rec` is older than a previously pushed record.
    pub fn push_into(&mut self, rec: &ErrorRecord, out: &mut Vec<CoalescedError>) {
        if let Some(now) = self.now {
            assert!(rec.at >= now, "stream must be time-ordered");
        }
        self.now = Some(rec.at);
        let window = self.cfg.window;
        let base = out.len();

        // One scan: close every episode whose window expired and find
        // the record's own. `swap_remove` only moves an unscanned entry
        // into the hole, so `own` stays valid.
        let mut own = None;
        let mut i = 0;
        while i < self.open.len() {
            let ep = &self.open[i];
            if rec.at - ep.last > window {
                out.push(self.open.swap_remove(i));
                continue;
            }
            if ep.gpu == rec.gpu && ep.xid == rec.xid && ep.detail == rec.detail {
                own = Some(i);
            }
            i += 1;
        }

        match own {
            // Still inside the window (the scan expired it otherwise):
            // merge unless the persistence cut-off splits.
            Some(i) if rec.at - self.open[i].start <= self.cfg.max_persistence => {
                let ep = &mut self.open[i];
                ep.last = rec.at;
                ep.merged += 1;
            }
            // Same identity past the cut-off: close it, open a new one.
            Some(i) => out.push(std::mem::replace(&mut self.open[i], new_episode(rec))),
            None => self.open.push(new_episode(rec)),
        }
        if out.len() - base > 1 {
            sort_episodes(&mut out[base..]);
        }
    }

    /// End of stream: close everything still open, in
    /// `(start, gpu, xid, detail)` order.
    pub fn finish(self) -> Vec<CoalescedError> {
        let mut out = self.open;
        sort_episodes(&mut out);
        out
    }
}

/// A new episode holding `rec` alone.
fn new_episode(rec: &ErrorRecord) -> CoalescedError {
    CoalescedError {
        gpu: rec.gpu,
        xid: rec.xid,
        detail: rec.detail,
        start: rec.at,
        last: rec.at,
        merged: 1,
    }
}

/// Event-time reorder buffer in front of [`StreamCoalescer`].
///
/// A live tail interleaves per-node files, so records do not arrive
/// globally time-ordered — but [`StreamCoalescer::push_into`] requires a
/// monotone stream. The buffer holds records until the **watermark**
/// (latest event time seen minus an allowed lateness) passes them, then
/// releases them sorted by the total key `(at, gpu, xid, detail)`, which
/// makes the released order deterministic regardless of poll
/// interleaving. Records arriving *behind* what was already released
/// cannot be emitted without breaking monotonicity; they are counted in
/// [`WatermarkBuffer::late_dropped`] — the live session converges to the
/// batch answer exactly when that count is zero.
///
/// Purely event-time: the watermark advances only when ingested records
/// do, never from a wall clock.
#[derive(Clone, Debug)]
pub struct WatermarkBuffer {
    lateness: Duration,
    pending: Vec<ErrorRecord>,
    /// Latest event time ingested (the high watermark).
    max_seen: Option<Timestamp>,
    /// Latest event time already released downstream; releasing anything
    /// older would violate the coalescer's ordering contract.
    released: Option<Timestamp>,
    late_dropped: u64,
}

impl WatermarkBuffer {
    pub fn new(lateness: Duration) -> Self {
        WatermarkBuffer {
            lateness,
            pending: Vec::new(),
            max_seen: None,
            released: None,
            late_dropped: 0,
        }
    }

    /// Ingest one record. Records older than the released watermark are
    /// dropped (and counted) — emitting them would be out of order.
    pub fn push(&mut self, rec: ErrorRecord) {
        if let Some(released) = self.released {
            if rec.at < released {
                self.late_dropped += 1;
                return;
            }
        }
        self.max_seen = Some(self.max_seen.map_or(rec.at, |m| m.max(rec.at)));
        self.pending.push(rec);
    }

    /// Release every pending record at or behind the watermark
    /// (`max_seen − lateness`), sorted by `(at, gpu, xid, detail)`.
    pub fn drain_ready(&mut self) -> Vec<ErrorRecord> {
        let Some(max_seen) = self.max_seen else {
            return Vec::new();
        };
        let watermark = max_seen.saturating_sub(self.lateness);
        let mut ready: Vec<ErrorRecord> = Vec::new();
        self.pending.retain(|r| {
            if r.at <= watermark {
                ready.push(r.clone());
                false
            } else {
                true
            }
        });
        self.release(&mut ready);
        ready
    }

    /// End of stream (or a final drain): release everything pending,
    /// sorted, regardless of the watermark.
    pub fn flush(&mut self) -> Vec<ErrorRecord> {
        let mut ready = std::mem::take(&mut self.pending);
        self.release(&mut ready);
        ready
    }

    fn release(&mut self, ready: &mut [ErrorRecord]) {
        ready.sort_by(|a, b| {
            (a.at, a.gpu, a.xid, &a.detail).cmp(&(b.at, b.gpu, b.xid, &b.detail))
        });
        if let Some(last) = ready.last() {
            self.released = Some(self.released.map_or(last.at, |r| r.max(last.at)));
        }
    }

    /// Records dropped for arriving behind the released watermark.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// Records currently held back by the watermark.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::coalesce;
    use dr_xid::{Duration, ErrorDetail, GpuId, NodeId, Xid};
    use proptest::prelude::*;

    fn rec(secs: f64, node: u32, xid: Xid) -> ErrorRecord {
        ErrorRecord::new(
            Timestamp::EPOCH + Duration::from_secs_f64(secs),
            GpuId::at_slot(NodeId(node), 0),
            xid,
            ErrorDetail::NONE,
        )
    }

    /// Closed episodes of one `push_into` call, asserting they arrive in
    /// `(start, gpu, xid, detail)` order.
    fn push(s: &mut StreamCoalescer, r: &ErrorRecord) -> Vec<CoalescedError> {
        let mut closed = Vec::new();
        s.push_into(r, &mut closed);
        assert!(
            closed.windows(2).all(|w| key(&w[0]) < key(&w[1])),
            "closed out of order: {closed:?}"
        );
        closed
    }

    fn key(e: &CoalescedError) -> (Timestamp, GpuId, Xid, ErrorDetail) {
        (e.start, e.gpu, e.xid, e.detail)
    }

    fn stream_all(records: &[ErrorRecord], cfg: CoalesceConfig) -> Vec<CoalescedError> {
        let mut s = StreamCoalescer::new(cfg);
        let mut out = Vec::new();
        for r in records {
            out.extend(push(&mut s, r));
        }
        let rest = s.finish();
        assert!(rest.windows(2).all(|w| key(&w[0]) < key(&w[1])));
        out.extend(rest);
        sort_episodes(&mut out);
        out
    }

    #[test]
    fn emits_episode_after_window_expires() {
        let mut s = StreamCoalescer::new(CoalesceConfig::default());
        assert!(push(&mut s, &rec(0.0, 1, Xid::MmuError)).is_empty());
        assert!(push(&mut s, &rec(3.0, 1, Xid::MmuError)).is_empty());
        assert_eq!(s.open_count(), 1);
        // Next record 60 s later closes the episode.
        let closed = push(&mut s, &rec(60.0, 1, Xid::MmuError));
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].merged, 2);
        assert_eq!(closed[0].persistence().as_secs_f64(), 3.0);
        assert_eq!(s.open_count(), 1); // the new episode
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_order_records() {
        let mut s = StreamCoalescer::new(CoalesceConfig::default());
        push(&mut s, &rec(10.0, 1, Xid::MmuError));
        push(&mut s, &rec(5.0, 1, Xid::MmuError));
    }

    #[test]
    fn watermark_reorders_within_lateness() {
        let mut w = WatermarkBuffer::new(Duration::from_secs(10));
        w.push(rec(5.0, 1, Xid::MmuError));
        w.push(rec(2.0, 2, Xid::MmuError)); // out of order, within lateness
        w.push(rec(30.0, 1, Xid::MmuError)); // watermark -> 20
        let ready = w.drain_ready();
        let times: Vec<f64> = ready
            .iter()
            .map(|r| (r.at - Timestamp::EPOCH).as_secs_f64())
            .collect();
        assert_eq!(times, [2.0, 5.0]);
        assert_eq!(w.pending_len(), 1); // the 30 s record waits
        assert_eq!(w.late_dropped(), 0);
    }

    #[test]
    fn watermark_drops_and_counts_records_behind_the_release_point() {
        let mut w = WatermarkBuffer::new(Duration::from_secs(1));
        w.push(rec(10.0, 1, Xid::MmuError));
        w.push(rec(100.0, 1, Xid::MmuError));
        let released = w.drain_ready();
        assert_eq!(released.len(), 1); // the 10 s record
        // 3 s is far behind the released watermark (10 s): dropped.
        w.push(rec(3.0, 2, Xid::MmuError));
        assert_eq!(w.late_dropped(), 1);
        assert_eq!(w.flush().len(), 1); // only the 100 s record remains
    }

    #[test]
    fn watermark_released_stream_is_monotone_and_coalescer_safe() {
        // Random-ish interleaving from three "files"; the released stream
        // must feed StreamCoalescer without tripping its ordering assert.
        let mut w = WatermarkBuffer::new(Duration::from_secs(60));
        let mut s = StreamCoalescer::new(CoalesceConfig::default());
        let per_node: [&[f64]; 3] = [&[0.0, 9.0, 18.0], &[3.0, 6.0, 21.0], &[1.0, 2.0, 30.0]];
        for round in 0..3 {
            for (node, times) in per_node.iter().enumerate() {
                if let Some(&t) = times.get(round) {
                    w.push(rec(t, node as u32, Xid::MmuError));
                }
            }
            for r in w.drain_ready() {
                push(&mut s, &r);
            }
        }
        for r in w.flush() {
            push(&mut s, &r);
        }
        assert_eq!(w.late_dropped(), 0);
        let out = s.finish();
        assert!(!out.is_empty());
    }

    #[test]
    fn a_split_and_an_expiry_in_one_push_close_in_start_order() {
        // At 12 s GPU 0's episode (0 s → 8 s) reaches its persistence
        // cut-off and splits, while GPU 1's episode (6 s) expires: the
        // split one started first, so it comes first.
        let cfg = CoalesceConfig {
            window: Duration::from_secs(5),
            max_persistence: Duration::from_secs(10),
        };
        let mut s = StreamCoalescer::new(cfg);
        for (t, node) in [(0.0, 0), (4.0, 0), (6.0, 1), (8.0, 0)] {
            assert!(push(&mut s, &rec(t, node, Xid::MmuError)).is_empty());
        }
        let closed = push(&mut s, &rec(12.0, 0, Xid::MmuError));
        let starts: Vec<(f64, u32)> = closed
            .iter()
            .map(|e| ((e.start - Timestamp::EPOCH).as_secs_f64(), e.gpu.node.0))
            .collect();
        assert_eq!(starts, [(0.0, 0), (6.0, 1)]);
        assert_eq!(s.open_count(), 1);
    }

    /// Several GPUs on two nodes, three XIDs and two details.
    fn identity(i: u8) -> (GpuId, Xid, ErrorDetail) {
        const XIDS: [Xid; 3] = [Xid::MmuError, Xid::NvlinkError, Xid::GspRpcTimeout];
        let gpu = GpuId::at_slot(NodeId(u32::from(i % 2)), usize::from(i / 2 % 3));
        (gpu, XIDS[usize::from(i / 6 % 3)], ErrorDetail::new(u16::from(i / 18 % 2), 0))
    }

    proptest! {
        /// The streaming coalescer is equivalent to batch Algorithm 1 on
        /// any time-ordered stream, and every `push_into` appends what it
        /// closes in `(start, gpu, xid, detail)` order (checked in
        /// `push`). Times are drawn from a narrow range so equal
        /// timestamps are common, and a persistence cut-off of a few
        /// windows splits long bursts.
        #[test]
        fn stream_equals_batch(
            mut times in prop::collection::vec(0u64..600, 0..300),
            ids in prop::collection::vec(0u8..36, 0..300),
            window in 2u64..30,
            persistence in 1u64..6,
        ) {
            times.sort_unstable();
            let n = times.len().min(ids.len());
            let records: Vec<_> = (0..n)
                .map(|i| {
                    let (gpu, xid, detail) = identity(ids[i]);
                    ErrorRecord::new(Timestamp::from_secs(times[i]), gpu, xid, detail)
                })
                .collect();
            let cfg = CoalesceConfig {
                window: Duration::from_secs(window),
                max_persistence: Duration::from_secs(window * persistence),
            };
            let batch = coalesce(&records, cfg);
            let stream = stream_all(&records, cfg);
            prop_assert_eq!(batch, stream);
        }
    }
}
