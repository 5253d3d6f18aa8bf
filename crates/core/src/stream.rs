//! Online (streaming) operators behind the live path.
//!
//! The batch pipeline answers "what happened over 855 days"; a live
//! [`crate::watch::WatchSession`] needs the same episodes as lines
//! arrive. [`WatermarkBuffer`] turns interleaved per-node arrivals into
//! one time-ordered record stream, and [`StreamCoalescer`] is
//! Algorithm 1 as an incremental operator over it: **exactly
//! equivalent** to the batch [`coalesce`](crate::coalesce::coalesce) on
//! a time-ordered stream (property-tested), emitting each coalesced
//! error as soon as its merge window expires.

use crate::coalesce::{CoalesceConfig, CoalescedError};
use dr_xid::{Duration, ErrorDetail, ErrorRecord, GpuId, Timestamp, Xid};
use std::collections::BTreeMap;

/// An episode still inside its merge window.
#[derive(Clone, Copy, Debug)]
struct OpenEpisode {
    start: Timestamp,
    last: Timestamp,
    merged: u32,
}

/// Incremental Algorithm 1.
#[derive(Clone, Debug)]
pub struct StreamCoalescer {
    cfg: CoalesceConfig,
    open: BTreeMap<(GpuId, Xid, ErrorDetail), OpenEpisode>,
    /// Latest record timestamp seen (stream clock).
    now: Option<Timestamp>,
}

impl StreamCoalescer {
    pub fn new(cfg: CoalesceConfig) -> Self {
        StreamCoalescer {
            cfg,
            open: BTreeMap::new(),
            now: None,
        }
    }

    /// Number of episodes currently open.
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Feed one record (records must arrive in time order) and collect any
    /// episodes the advancing clock closed.
    ///
    /// # Panics
    /// If `rec` is older than a previously pushed record.
    pub fn push(&mut self, rec: &ErrorRecord) -> Vec<CoalescedError> {
        if let Some(now) = self.now {
            assert!(rec.at >= now, "stream must be time-ordered");
        }
        self.now = Some(rec.at);
        let mut closed = self.expire(rec.at);

        let key = rec.identity();
        match self.open.get_mut(&key) {
            Some(ep)
                if rec.at - ep.last <= self.cfg.window
                    && rec.at - ep.start <= self.cfg.max_persistence =>
            {
                ep.last = rec.at;
                ep.merged += 1;
            }
            Some(ep) => {
                // Same identity, but the gap or the persistence cut-off
                // splits: close the old episode, open a new one.
                closed.push(close(key, *ep));
                *ep = OpenEpisode {
                    start: rec.at,
                    last: rec.at,
                    merged: 1,
                };
            }
            None => {
                self.open.insert(
                    key,
                    OpenEpisode {
                        start: rec.at,
                        last: rec.at,
                        merged: 1,
                    },
                );
            }
        }
        closed
    }

    /// End of stream: close everything still open.
    pub fn finish(self) -> Vec<CoalescedError> {
        let mut out: Vec<CoalescedError> = self
            .open
            .into_iter()
            .map(|(key, ep)| close(key, ep))
            .collect();
        out.sort_by_key(|e| (e.start, e.gpu, e.xid));
        out
    }

    fn expire(&mut self, now: Timestamp) -> Vec<CoalescedError> {
        let window = self.cfg.window;
        let mut closed: Vec<CoalescedError> = Vec::new();
        self.open.retain(|key, ep| {
            if now - ep.last > window {
                closed.push(close(*key, *ep));
                false
            } else {
                true
            }
        });
        closed.sort_by_key(|e| (e.start, e.gpu, e.xid));
        closed
    }
}

/// Event-time reorder buffer in front of [`StreamCoalescer`].
///
/// A live tail interleaves per-node files, so records do not arrive
/// globally time-ordered — but [`StreamCoalescer::push`] requires a
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

fn close((gpu, xid, detail): (GpuId, Xid, ErrorDetail), ep: OpenEpisode) -> CoalescedError {
    CoalescedError {
        gpu,
        xid,
        detail,
        start: ep.start,
        last: ep.last,
        merged: ep.merged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::coalesce;
    use dr_xid::{Duration, NodeId};
    use proptest::prelude::*;

    fn rec(secs: f64, node: u32, xid: Xid) -> ErrorRecord {
        ErrorRecord::new(
            Timestamp::EPOCH + Duration::from_secs_f64(secs),
            GpuId::at_slot(NodeId(node), 0),
            xid,
            ErrorDetail::NONE,
        )
    }

    fn stream_all(records: &[ErrorRecord], cfg: CoalesceConfig) -> Vec<CoalescedError> {
        let mut s = StreamCoalescer::new(cfg);
        let mut out = Vec::new();
        for r in records {
            out.extend(s.push(r));
        }
        out.extend(s.finish());
        out.sort_by_key(|e| (e.start, e.gpu, e.xid));
        out
    }

    #[test]
    fn emits_episode_after_window_expires() {
        let mut s = StreamCoalescer::new(CoalesceConfig::default());
        assert!(s.push(&rec(0.0, 1, Xid::MmuError)).is_empty());
        assert!(s.push(&rec(3.0, 1, Xid::MmuError)).is_empty());
        assert_eq!(s.open_count(), 1);
        // Next record 60 s later closes the episode.
        let closed = s.push(&rec(60.0, 1, Xid::MmuError));
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].merged, 2);
        assert_eq!(closed[0].persistence().as_secs_f64(), 3.0);
        assert_eq!(s.open_count(), 1); // the new episode
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_order_records() {
        let mut s = StreamCoalescer::new(CoalesceConfig::default());
        s.push(&rec(10.0, 1, Xid::MmuError));
        s.push(&rec(5.0, 1, Xid::MmuError));
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
                s.push(&r);
            }
        }
        for r in w.flush() {
            s.push(&r);
        }
        assert_eq!(w.late_dropped(), 0);
        let out = s.finish();
        assert!(!out.is_empty());
    }

    proptest! {
        /// The streaming coalescer is equivalent to batch Algorithm 1 on
        /// any time-ordered stream.
        #[test]
        fn stream_equals_batch(
            mut times in prop::collection::vec(0u64..20_000, 0..300),
            nodes in prop::collection::vec(0u32..3, 0..300),
            window in 2u64..30,
        ) {
            times.sort_unstable();
            let n = times.len().min(nodes.len());
            let records: Vec<_> = (0..n)
                .map(|i| rec(times[i] as f64, nodes[i], Xid::MmuError))
                .collect();
            let cfg = CoalesceConfig::with_window_secs(window);
            let batch = coalesce(&records, cfg);
            let stream = stream_all(&records, cfg);
            prop_assert_eq!(batch, stream);
        }
    }
}
