//! Stage I extraction: raw syslog text → structured [`ErrorRecord`]s.
//!
//! The extractor mirrors the paper's methodology: a RegEx pattern set built
//! from NVIDIA's XID message catalog is applied to every log line; NVRM
//! XID lines yield structured records (timestamp, GPU = node + PCI address,
//! XID code, message detail), everything else is counted and skipped.
//!
//! Two implementations share one pattern table: [`XidExtractor`] is the
//! production fast path (byte-level header decode, scratch-reusing
//! prefiltered regex execution, O(1) body-pattern dispatch by XID code);
//! [`BaselineExtractor`] is the original Stage I code path (regex header,
//! per-call Pike VM, linear dispatch), kept as the differential-testing
//! oracle and as the "pre" engine of the throughput benchmark.

use crate::regex::{MatchScratch, Regex};
use crate::syslog::{parse_header, SyslogLine, SyslogScanner, HEADER_PATTERN};
use dr_xid::{ErrorDetail, ErrorRecord, GpuId, PciAddr, Xid};

/// Counters describing one extraction pass (useful for sanity-checking a
/// campaign: how much of the log was noise, how much was malformed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExtractStats {
    /// Total lines offered to the extractor.
    pub lines: u64,
    /// Lines with a structurally well-formed `gpub` syslog header
    /// ([`parse_header`] succeeds). The definition is uniform across all
    /// lines, whether or not they mention an XID: a month-prefixed line
    /// from a non-GPU host does **not** count, and a `gpub` header with
    /// an impossible date (e.g. Feb 30) does.
    pub syslog_lines: u64,
    /// Lines that pass the literal `NVRM: Xid` needle prefilter and are
    /// handed to the structured parser. `prefilter_hits - xid_lines` is
    /// the near-miss count: lines mentioning the needle whose header or
    /// report body then failed to parse.
    pub prefilter_hits: u64,
    /// Lines containing an NVRM XID report.
    pub xid_lines: u64,
    /// XID lines with a code outside the studied set.
    pub unknown_xid: u64,
    /// XID lines whose message body failed detail extraction.
    pub malformed: u64,
}

impl ExtractStats {
    /// Accumulate another pass's counters (used when merging per-shard
    /// extractions back together).
    pub fn merge(&mut self, other: &ExtractStats) {
        self.lines += other.lines;
        self.syslog_lines += other.syslog_lines;
        self.prefilter_hits += other.prefilter_hits;
        self.xid_lines += other.xid_lines;
        self.unknown_xid += other.unknown_xid;
        self.malformed += other.malformed;
    }
}

/// The literal every XID report line contains; scanning for it is far
/// cheaper than any structured parse. (The real study greps 202 GB; so
/// do we.)
const NVRM_NEEDLE: &str = "NVRM: Xid";

/// Per-XID message-body pattern used to pull out the detail fields.
struct BodyPattern {
    re: Regex,
    /// Which capture group maps to `unit` / `qualifier` and their radix.
    unit: Option<(usize, u32)>,
    qualifier: Option<(usize, u32)>,
}

/// The shared pattern table: `(xid, body pattern, unit spec, qualifier
/// spec)` with `(group index, radix)` per field; `None` = field absent
/// for this XID.
type FieldSpec = Option<(usize, u32)>;

pub(crate) const NVRM_PATTERN: &str = r"kernel: NVRM: Xid \(PCI:([0-9a-f]{4}:[0-9a-f]{2}:[0-9a-f]{2})\): (\d+), (?:pid=('?<?\w+>?'?), )?(.*)$";

pub(crate) fn body_pattern_table() -> Vec<(Xid, &'static str, FieldSpec, FieldSpec)> {
    vec![
        (
            Xid::MmuError,
            r"GPCCLIENT_T1_(\d+) faulted @ 0x7f_([0-9a-f]+)",
            Some((1, 10)),
            Some((2, 16)),
        ),
        (
            Xid::DoubleBitEcc,
            r"\(DBE\) has been detected on bank (\d+) row 0x([0-9a-f]+)",
            Some((1, 10)),
            Some((2, 16)),
        ),
        (
            Xid::RowRemapEvent,
            r"Row Remapper: remapping row 0x([0-9a-f]+) in bank (\d+)",
            Some((2, 10)),
            Some((1, 16)),
        ),
        (
            Xid::RowRemapFailure,
            r"Row Remapper: Failed to remap row 0x([0-9a-f]+) in bank (\d+)",
            Some((2, 10)),
            Some((1, 16)),
        ),
        (
            Xid::NvlinkError,
            r"NVLink: fatal error detected on link (\d+) \(0x([0-9a-f]+),",
            Some((1, 10)),
            Some((2, 16)),
        ),
        (Xid::FallenOffBus, r"GPU has fallen off the bus", None, None),
        (
            Xid::ContainedEcc,
            r"Contained: SM \(0x([0-9a-f]+)\)",
            Some((1, 16)),
            None,
        ),
        (
            Xid::UncontainedEcc,
            r"Uncontained: LTC TAG \(0x([0-9a-f]+),0x([0-9a-f]+)\)",
            Some((1, 16)),
            Some((2, 16)),
        ),
        (
            Xid::GspRpcTimeout,
            r"RPC response from GPU(\d+) GSP! Expected function (\d+)",
            Some((1, 10)),
            Some((2, 10)),
        ),
        (
            Xid::GspError,
            r"GSP task (\d+) raised fatal error 0x([0-9a-f]+)",
            Some((1, 10)),
            Some((2, 16)),
        ),
        (
            Xid::PmuSpiError,
            r"SPI RPC read failure \(addr 0x([0-9a-f]+)\)",
            None,
            Some((1, 16)),
        ),
        (
            Xid::GraphicsEngineException,
            r"Graphics Exception: ESR 0x([0-9a-f]+)",
            None,
            Some((1, 16)),
        ),
        (
            Xid::ResetChannelVerifError,
            r"Reset Channel Verification Error on channel (\d+)",
            Some((1, 10)),
            None,
        ),
        (
            Xid::Xid136,
            r"Event 136 reported on engine (\d+)",
            Some((1, 10)),
            None,
        ),
    ]
}

/// The PCI address and XID code of a matched NVRM report, or `None` if
/// either does not parse — a code that overflows `u16` included.
fn parse_report_ids(pci: Option<&str>, code: Option<&str>) -> Option<(PciAddr, u16)> {
    Some((pci?.parse().ok()?, code?.parse().ok()?))
}

/// The detail fields of a matched body, each parsed in its radix and
/// required to fit its type: a unit wider than `u16` or a qualifier wider
/// than `u32` makes the body malformed, never a truncated record.
fn detail_fields<'b>(
    bp: &BodyPattern,
    group: impl Fn(usize) -> Option<&'b str>,
) -> Option<ErrorDetail> {
    let get = |spec: FieldSpec| -> Option<u64> {
        match spec {
            None => Some(0),
            Some((g, radix)) => u64::from_str_radix(group(g)?, radix).ok(),
        }
    };
    Some(ErrorDetail::new(
        u16::try_from(get(bp.unit)?).ok()?,
        u32::try_from(get(bp.qualifier)?).ok()?,
    ))
}

/// The Stage I extractor: compiled pattern set plus syslog scanner state.
pub struct XidExtractor {
    scanner: SyslogScanner,
    nvrm: Regex,
    /// Body patterns indexed directly by XID code: O(1) dispatch from the
    /// already-parsed code instead of a linear scan.
    dispatch: Vec<Option<BodyPattern>>,
    scratch: MatchScratch,
    stats: ExtractStats,
}

impl Default for XidExtractor {
    fn default() -> Self {
        Self::new()
    }
}

impl XidExtractor {
    /// Compile the full pattern set.
    pub fn new() -> Self {
        Self::with_scanner_state(2022, 1)
    }

    /// Extractor whose syslog scanner resumes from explicit year-inference
    /// state — used by chunked parallel extraction to replay the state a
    /// serial scan would have reached at the chunk boundary.
    pub fn with_scanner_state(year: i32, last_month: u8) -> Self {
        let nvrm = Regex::new(NVRM_PATTERN)
            // dr-lint: allow(panic-reachability): constant pattern, compile covered by tests
            .expect("NVRM pattern compiles");

        let table = body_pattern_table();
        let max_code = table.iter().map(|(x, ..)| x.code()).max().unwrap_or(0);
        let mut dispatch: Vec<Option<BodyPattern>> = Vec::new();
        dispatch.resize_with(max_code as usize + 1, || None);
        for (xid, pat, unit, qualifier) in table {
            dispatch[xid.code() as usize] = Some(BodyPattern {
                // dr-lint: allow(panic-reachability): constant patterns, round-trip tested below
                re: Regex::new(pat).expect("body pattern compiles"),
                unit,
                qualifier,
            });
        }

        XidExtractor {
            scanner: SyslogScanner::starting_state(year, last_month),
            nvrm,
            dispatch,
            scratch: MatchScratch::new(),
            stats: ExtractStats::default(),
        }
    }

    /// Extraction counters so far.
    pub fn stats(&self) -> ExtractStats {
        self.stats
    }

    /// Current year-inference state `(year, last_month)` of the embedded
    /// syslog scanner.
    pub fn scanner_state(&self) -> (i32, u8) {
        (self.scanner.year(), self.scanner.last_month())
    }

    // dr-lint: hot(begin)
    /// Scan one line; return a structured record if it is a studied XID
    /// report. Lines must be offered in log order (year inference).
    pub fn extract_line(&mut self, line: &str) -> Option<ErrorRecord> {
        self.stats.lines += 1;
        // Literal prefilter: the overwhelming majority of syslog is noise,
        // and a substring scan is an order of magnitude cheaper than a
        // structured parse.
        if !line.contains(NVRM_NEEDLE) {
            if parse_header(line).is_some() {
                self.stats.syslog_lines += 1;
            }
            return None;
        }
        self.stats.prefilter_hits += 1;
        let header = parse_header(line)?;
        self.stats.syslog_lines += 1;
        let parsed = self.scanner.resolve(line, &header)?;

        let m = self.nvrm.find_with(parsed.body, &mut self.scratch)?;
        self.stats.xid_lines += 1;

        // From here on every XID line lands in exactly one of records,
        // `unknown_xid` or `malformed`.
        let Some((pci, code)) = parse_report_ids(m.group(parsed.body, 1), m.group(parsed.body, 2))
        else {
            self.stats.malformed += 1;
            return None;
        };
        let Some(xid) = Xid::from_code(code) else {
            self.stats.unknown_xid += 1;
            return None;
        };
        let detail = m
            .group(parsed.body, 4)
            .and_then(|body| self.extract_detail(xid, body));
        let Some(detail) = detail else {
            self.stats.malformed += 1;
            return None;
        };

        Some(ErrorRecord::new(
            parsed.at,
            GpuId::new(parsed.host, pci),
            xid,
            detail,
        ))
    }

    fn extract_detail(&mut self, xid: Xid, body: &str) -> Option<ErrorDetail> {
        let bp = self.dispatch.get(xid.code() as usize)?.as_ref()?;
        let m = bp.re.find_with(body, &mut self.scratch)?;
        detail_fields(bp, |group| m.group(body, group))
    }
    // dr-lint: hot(end)

    /// Scan many lines, collecting all structured records.
    pub fn extract_all<'a, I>(&mut self, lines: I) -> Vec<ErrorRecord>
    where
        I: IntoIterator<Item = &'a str>,
    {
        lines
            .into_iter()
            .filter_map(|l| self.extract_line(l))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Baseline (pre-optimization) extractor: the differential oracle
// ---------------------------------------------------------------------------

/// The original Stage I path, kept verbatim as the differential-testing
/// oracle and the benchmark's "pre" engine: header parsed by regex on the
/// per-call baseline Pike VM, body patterns dispatched by linear scan.
///
/// Extracted records are bit-identical to [`XidExtractor`]'s. The
/// `syslog_lines` counter keeps the *old* inconsistent definition
/// (month-prefix heuristic on prefiltered lines, full validated header on
/// XID lines); all other counters agree with the fast path.
pub struct BaselineExtractor {
    header: Regex,
    year: i32,
    last_month: u8,
    nvrm: Regex,
    bodies: Vec<(Xid, BodyPattern)>,
    stats: ExtractStats,
}

impl Default for BaselineExtractor {
    fn default() -> Self {
        Self::new()
    }
}

impl BaselineExtractor {
    pub fn new() -> Self {
        let header = Regex::new(HEADER_PATTERN)
            // dr-lint: allow(panic-reachability): constant pattern, compile covered by tests
            .expect("header pattern compiles");
        let nvrm = Regex::new(NVRM_PATTERN)
            // dr-lint: allow(panic-reachability): constant pattern, compile covered by tests
            .expect("NVRM pattern compiles");
        let bodies = body_pattern_table()
            .into_iter()
            .map(|(xid, pat, unit, qualifier)| {
                (
                    xid,
                    BodyPattern {
                        // dr-lint: allow(panic-reachability): constant patterns, round-trip tested
                        re: Regex::new(pat).expect("body pattern compiles"),
                        unit,
                        qualifier,
                    },
                )
            })
            .collect();
        BaselineExtractor {
            header,
            year: 2022,
            last_month: 1,
            nvrm,
            bodies,
            stats: ExtractStats::default(),
        }
    }

    pub fn stats(&self) -> ExtractStats {
        self.stats
    }

    /// Original extraction logic, executed entirely on the baseline VM.
    pub fn extract_line(&mut self, line: &str) -> Option<ErrorRecord> {
        self.stats.lines += 1;
        if !line.contains(NVRM_NEEDLE) {
            if looks_like_syslog(line) {
                self.stats.syslog_lines += 1;
            }
            return None;
        }
        self.stats.prefilter_hits += 1;
        let parsed = self.parse_syslog(line)?;
        self.stats.syslog_lines += 1;

        let m = self.nvrm.find_bytes_at_baseline(parsed.body.as_bytes(), 0)?;
        self.stats.xid_lines += 1;

        let Some((pci, code)) = parse_report_ids(m.group(parsed.body, 1), m.group(parsed.body, 2))
        else {
            self.stats.malformed += 1;
            return None;
        };
        let Some(xid) = Xid::from_code(code) else {
            self.stats.unknown_xid += 1;
            return None;
        };
        let detail = m
            .group(parsed.body, 4)
            .and_then(|body| self.extract_detail(xid, body));
        let Some(detail) = detail else {
            self.stats.malformed += 1;
            return None;
        };

        Some(ErrorRecord::new(
            parsed.at,
            GpuId::new(parsed.host, pci),
            xid,
            detail,
        ))
    }

    pub fn extract_all<'a, I>(&mut self, lines: I) -> Vec<ErrorRecord>
    where
        I: IntoIterator<Item = &'a str>,
    {
        lines
            .into_iter()
            .filter_map(|l| self.extract_line(l))
            .collect()
    }

    /// Original `SyslogScanner::parse`, on the baseline VM.
    fn parse_syslog<'l>(&mut self, line: &'l str) -> Option<SyslogLine<'l>> {
        let m = self.header.find_bytes_at_baseline(line.as_bytes(), 0)?;
        let month = dr_xid::time::month_from_abbrev(m.group(line, 1)?)?;
        let day: u8 = m.group(line, 2)?.parse().ok()?;
        let hour: u8 = m.group(line, 3)?.parse().ok()?;
        let minute: u8 = m.group(line, 4)?.parse().ok()?;
        let second: u8 = m.group(line, 5)?.parse().ok()?;
        let host: u32 = m.group(line, 6)?.parse().ok()?;
        if day == 0 || day > 31 || hour > 23 || minute > 59 || second > 59 {
            return None;
        }
        if month < self.last_month {
            self.year += 1;
        }
        self.last_month = month;
        let at = dr_xid::Timestamp::from_civil(self.year, month, day, hour, minute, second)?;
        let body_start = m.group_span(7)?.0;
        let body = line.get(body_start..)?;
        Some(SyslogLine {
            at,
            host: dr_xid::NodeId(host),
            body,
        })
    }

    fn extract_detail(&self, xid: Xid, body: &str) -> Option<ErrorDetail> {
        let (_, bp) = self.bodies.iter().find(|(x, _)| *x == xid)?;
        let m = bp.re.find_bytes_at_baseline(body.as_bytes(), 0)?;
        detail_fields(bp, |group| m.group(body, group))
    }
}

/// Month field of a line that advances [`SyslogScanner`] year-inference
/// state inside [`XidExtractor::extract_line`], or `None` for lines that
/// leave the state untouched. This is the exact state-evolution predicate
/// of the extraction loop (NVRM-prefiltered, structurally valid header,
/// time fields in range — timestamp resolution failures still advance
/// state), which is what chunked parallel extraction folds over to replay
/// scanner state at chunk boundaries.
pub fn scanner_update_month(line: &str) -> Option<u8> {
    if !line.contains(NVRM_NEEDLE) {
        return None;
    }
    let h = parse_header(line)?;
    h.time_fields_valid().then_some(h.month)
}

/// The old month-prefix heuristic, retained only for
/// [`BaselineExtractor`]'s legacy `syslog_lines` counting.
fn looks_like_syslog(line: &str) -> bool {
    line.len() > 4
        && line.is_char_boundary(3)
        && dr_xid::time::month_from_abbrev(&line[..3]).is_some()
        && line.as_bytes()[3] == b' '
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_xid::syslog::{format_line, format_noise_line};
    use dr_xid::time::Duration;
    use dr_xid::{NodeId, Timestamp};

    fn sample_record(xid: Xid, unit: u16, qualifier: u32) -> ErrorRecord {
        ErrorRecord::new(
            Timestamp::EPOCH + Duration::from_hours(30),
            GpuId::at_slot(NodeId(17), 2),
            xid,
            ErrorDetail::new(unit, qualifier),
        )
    }

    /// Which detail fields each XID's message body actually encodes:
    /// fields the driver does not print cannot survive a text round trip.
    fn encoded_fields(xid: Xid) -> (bool, bool) {
        match xid {
            Xid::FallenOffBus => (false, false),
            Xid::ContainedEcc | Xid::ResetChannelVerifError | Xid::Xid136 => (true, false),
            Xid::PmuSpiError | Xid::GraphicsEngineException => (false, true),
            _ => (true, true),
        }
    }

    #[test]
    fn round_trips_every_studied_xid() {
        // Render a synthetic line for each XID, then re-extract it and
        // verify the structured record survives the text round trip.
        let mut ex = XidExtractor::new();
        for (i, &xid) in Xid::ALL.iter().enumerate() {
            let (has_unit, has_qual) = encoded_fields(xid);
            let rec = sample_record(
                xid,
                if has_unit { (i + 1) as u16 } else { 0 },
                if has_qual { (i * 7 + 3) as u32 } else { 0 },
            );
            let line = format_line(&rec, 1000 + i as u32);
            let got = ex
                .extract_line(&line)
                .unwrap_or_else(|| panic!("extraction failed for {xid}: {line}"));
            assert_eq!(got.xid, rec.xid, "{line}");
            assert_eq!(got.gpu, rec.gpu);
            assert_eq!(got.at, rec.at);
            assert_eq!(got.detail, rec.detail, "{line}");
        }
        assert_eq!(ex.stats().xid_lines, Xid::ALL.len() as u64);
        assert_eq!(ex.stats().malformed, 0);
        assert_eq!(ex.stats().unknown_xid, 0);
    }

    #[test]
    fn fields_without_detail_are_zero() {
        // FallenOffBus carries no unit/qualifier in its message.
        let mut ex = XidExtractor::new();
        let rec = sample_record(Xid::FallenOffBus, 9, 9);
        let line = format_line(&rec, 1);
        let got = ex.extract_line(&line).unwrap();
        assert_eq!(got.detail, ErrorDetail::NONE);
    }

    #[test]
    fn noise_lines_are_skipped_but_counted() {
        let mut ex = XidExtractor::new();
        for k in 0..5 {
            let line = format_noise_line(Timestamp::EPOCH, NodeId(3), k);
            assert!(ex.extract_line(&line).is_none());
        }
        assert!(ex.extract_line("complete garbage").is_none());
        let s = ex.stats();
        assert_eq!(s.lines, 6);
        assert_eq!(s.syslog_lines, 5);
        assert_eq!(s.xid_lines, 0);
    }

    #[test]
    fn syslog_lines_counts_structural_headers_uniformly() {
        let mut ex = XidExtractor::new();
        // Month-prefixed line from a non-GPU host: NOT a gpub header, so
        // it no longer counts (the old heuristic counted it).
        assert!(ex.extract_line("Jan  2 03:04:05 loginnode sshd: hi").is_none());
        assert_eq!(ex.stats().syslog_lines, 0);
        // Structurally valid gpub header with an impossible date counts,
        // whether or not the line mentions an XID.
        assert!(ex.extract_line("Feb 30 10:11:12 gpub900 kernel: routine noise").is_none());
        assert_eq!(ex.stats().syslog_lines, 1);
        assert!(ex
            .extract_line("Feb 30 10:11:12 gpub900 kernel: NVRM: Xid (PCI:0000:c1:00): 79, x")
            .is_none());
        assert_eq!(ex.stats().syslog_lines, 2);
        // Valid header + XID line: counted exactly once.
        assert!(ex
            .extract_line(
                "Mar  1 10:11:12 gpub900 kernel: NVRM: Xid (PCI:0000:c1:00): 79, \
                 pid=1, GPU has fallen off the bus."
            )
            .is_some());
        let s = ex.stats();
        assert_eq!(s.syslog_lines, 3);
        // Both NVRM lines matched the XID pattern; the Feb 30 one has a
        // garbage body, so it lands in `malformed` (day-range checking
        // accepts any day ≤ 31, matching the original scanner).
        assert_eq!(s.xid_lines, 2);
        assert_eq!(s.malformed, 1);
    }

    #[test]
    fn stats_merge_accumulates_all_fields() {
        let mut a = ExtractStats {
            lines: 10,
            syslog_lines: 8,
            prefilter_hits: 4,
            xid_lines: 3,
            unknown_xid: 1,
            malformed: 1,
        };
        let b = ExtractStats {
            lines: 5,
            syslog_lines: 4,
            prefilter_hits: 2,
            xid_lines: 2,
            unknown_xid: 0,
            malformed: 1,
        };
        a.merge(&b);
        assert_eq!(
            a,
            ExtractStats {
                lines: 15,
                syslog_lines: 12,
                prefilter_hits: 6,
                xid_lines: 5,
                unknown_xid: 1,
                malformed: 2,
            }
        );
    }

    #[test]
    fn prefilter_hits_count_needle_lines_including_near_misses() {
        let mut ex = XidExtractor::new();
        // Clean miss: no needle, no hit.
        assert!(ex.extract_line("Jan  2 03:04:05 gpub042 kernel: eth0 up").is_none());
        // Near miss: needle present but no parseable syslog header.
        assert!(ex.extract_line("garbage NVRM: Xid garbage").is_none());
        // Full hit: needle, header, and report all parse.
        let ok = "Jan  2 03:04:05 gpub042 kernel: NVRM: Xid (PCI:0000:c1:00): 79, \
                  pid=1, GPU has fallen off the bus.";
        assert!(ex.extract_line(ok).is_some());
        let s = ex.stats();
        assert_eq!(s.lines, 3);
        assert_eq!(s.prefilter_hits, 2);
        assert_eq!(s.xid_lines, 1);
    }

    #[test]
    fn unknown_xid_codes_are_counted() {
        let mut ex = XidExtractor::new();
        let line = "Jan  2 03:04:05 gpub042 kernel: NVRM: Xid (PCI:0000:c1:00): 999, \
                    pid=5, something new";
        assert!(ex.extract_line(line).is_none());
        assert_eq!(ex.stats().unknown_xid, 1);
    }

    #[test]
    fn corrupted_body_is_malformed() {
        let mut ex = XidExtractor::new();
        let line = "Jan  2 03:04:05 gpub042 kernel: NVRM: Xid (PCI:0000:c1:00): 74, \
                    pid=5, NVLink: truncated mess";
        assert!(ex.extract_line(line).is_none());
        assert_eq!(ex.stats().malformed, 1);
    }

    #[test]
    fn extract_all_filters_mixed_stream() {
        let mut ex = XidExtractor::new();
        let r1 = sample_record(Xid::GspRpcTimeout, 0, 76);
        let mut r2 = sample_record(Xid::NvlinkError, 3, 1);
        r2.at = r1.at + Duration::from_secs(5);
        let lines = vec![
            format_noise_line(Timestamp::EPOCH, NodeId(17), 0),
            format_line(&r1, 0),
            format_noise_line(Timestamp::EPOCH + Duration::from_hours(31), NodeId(17), 1),
            format_line(&r2, 42),
        ];
        let recs = ex.extract_all(lines.iter().map(|s| s.as_str()));
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].xid, Xid::GspRpcTimeout);
        assert_eq!(recs[1].xid, Xid::NvlinkError);
        assert_eq!(recs[1].detail.unit, 3);
    }

    #[test]
    fn year_inference_flows_through_extraction() {
        let mut ex = XidExtractor::new();
        let dec = "Dec 31 23:59:59 gpub001 kernel: NVRM: Xid (PCI:0000:07:00): 79, \
                   pid=1, GPU has fallen off the bus.";
        let jan = "Jan  1 00:00:30 gpub001 kernel: NVRM: Xid (PCI:0000:07:00): 79, \
                   pid=1, GPU has fallen off the bus.";
        let a = ex.extract_line(dec).unwrap();
        let b = ex.extract_line(jan).unwrap();
        assert!(b.at > a.at, "year must roll over");
        assert_eq!((b.at - a.at).as_secs_f64(), 31.0);
    }

    #[test]
    fn fast_and_baseline_extractors_agree_on_mixed_stream() {
        // A stream exercising every XID, rollovers, noise, garbage,
        // unknown codes and malformed bodies: records and the shared
        // counters must be bit-identical across the two engines.
        let mut lines: Vec<String> = Vec::new();
        let mut t = Timestamp::EPOCH + Duration::from_hours(1);
        for (i, &xid) in Xid::ALL.iter().enumerate() {
            let (has_unit, has_qual) = encoded_fields(xid);
            let rec = ErrorRecord::new(
                t,
                GpuId::at_slot(NodeId((i % 4) as u32), i % 8),
                xid,
                ErrorDetail::new(
                    if has_unit { i as u16 } else { 0 },
                    if has_qual { (i * 3 + 1) as u32 } else { 0 },
                ),
            );
            lines.push(format_line(&rec, i as u32 * 11));
            lines.push(format_noise_line(t, NodeId((i % 4) as u32), (i % 5) as u8));
            t = t + Duration::from_hours(500); // forces several rollovers
        }
        lines.push("not syslog at all".to_string());
        lines.push("Jan  2 03:04:05 loginnode sshd: hi".to_string());
        lines.push(
            "Jan  2 03:04:05 gpub042 kernel: NVRM: Xid (PCI:0000:c1:00): 999, pid=5, new"
                .to_string(),
        );
        lines.push(
            "Jan  2 03:04:06 gpub042 kernel: NVRM: Xid (PCI:0000:c1:00): 74, pid=5, NVLink: zap"
                .to_string(),
        );

        let mut fast = XidExtractor::new();
        let mut base = BaselineExtractor::new();
        let fast_recs = fast.extract_all(lines.iter().map(|s| s.as_str()));
        let base_recs = base.extract_all(lines.iter().map(|s| s.as_str()));
        assert_eq!(fast_recs, base_recs);
        let (fs, bs) = (fast.stats(), base.stats());
        assert_eq!(fs.lines, bs.lines);
        assert_eq!(fs.xid_lines, bs.xid_lines);
        assert_eq!(fs.unknown_xid, bs.unknown_xid);
        assert_eq!(fs.malformed, bs.malformed);
        // syslog_lines intentionally differs: the fast path uses the
        // unified structural definition, the baseline keeps the legacy
        // heuristic (which also counted the loginnode line).
        assert_eq!(bs.syslog_lines, fs.syslog_lines + 1);
    }

    /// Run `lines` through both engines; both must agree on records and
    /// on every shared counter, and every XID line must land in exactly
    /// one of records, `unknown_xid` or `malformed`.
    fn both_engines(lines: &[String]) -> (Vec<ErrorRecord>, ExtractStats) {
        let mut fast = XidExtractor::new();
        let mut base = BaselineExtractor::new();
        let recs = fast.extract_all(lines.iter().map(|s| s.as_str()));
        assert_eq!(recs, base.extract_all(lines.iter().map(|s| s.as_str())));
        let (fs, bs) = (fast.stats(), base.stats());
        for s in [fs, bs] {
            assert_eq!(
                s.xid_lines,
                recs.len() as u64 + s.unknown_xid + s.malformed,
                "{s:?} over {lines:?}"
            );
        }
        assert_eq!((fs.xid_lines, fs.unknown_xid, fs.malformed), (bs.xid_lines, bs.unknown_xid, bs.malformed));
        (recs, fs)
    }

    #[test]
    fn xid_code_overflowing_u16_is_malformed() {
        let line = "Jan  2 03:04:05 gpub042 kernel: NVRM: Xid (PCI:0000:07:00): 70000, \
                    pid=5, GPU has fallen off the bus."
            .to_string();
        let (recs, s) = both_engines(&[line]);
        assert!(recs.is_empty());
        assert_eq!((s.xid_lines, s.unknown_xid, s.malformed), (1, 0, 1));
    }

    #[test]
    fn detail_wider_than_its_field_is_malformed_not_truncated() {
        let wide_qualifier = "Jan  2 03:04:05 gpub042 kernel: NVRM: Xid (PCI:0000:07:00): 95, \
                              pid=5, Uncontained: LTC TAG (0x4,0x11890000000)";
        let wide_unit = "Jan  2 03:04:06 gpub042 kernel: NVRM: Xid (PCI:0000:07:00): 95, \
                         pid=5, Uncontained: LTC TAG (0x10000,0x1189)";
        let fits = "Jan  2 03:04:07 gpub042 kernel: NVRM: Xid (PCI:0000:07:00): 95, \
                    pid=5, Uncontained: LTC TAG (0xffff,0xffffffff)";
        let lines: Vec<String> = [wide_qualifier, wide_unit, fits].map(String::from).to_vec();
        let (recs, s) = both_engines(&lines);
        assert_eq!((s.xid_lines, s.malformed), (3, 2));
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].detail, ErrorDetail::new(0xffff, 0xffff_ffff));
    }

    #[test]
    fn unparsable_report_ids_are_malformed() {
        let ids = |pci: &str, code: &str| parse_report_ids(Some(pci), Some(code));
        assert_eq!(ids("0000:07:00", "95"), Some((PciAddr::new(0, 7, 0), 95)));
        assert_eq!(ids("0000:07:00", "65536"), None);
        assert_eq!(ids("0000:107:00", "95"), None);
        assert_eq!(ids("0000:07", "95"), None);
        assert_eq!(parse_report_ids(None, Some("95")), None);
    }

    /// Splice `insert` over `line[at..at + cut]` (byte positions clamped
    /// to the line and moved to char boundaries).
    fn splice(line: &str, at: usize, cut: usize, insert: &str) -> String {
        let mut lo = at.min(line.len());
        while !line.is_char_boundary(lo) {
            lo -= 1;
        }
        let mut hi = (lo + cut).min(line.len());
        while !line.is_char_boundary(hi) {
            hi += 1;
        }
        format!("{}{}{}", &line[..lo], insert, &line[hi..])
    }

    /// Offsets in a well-formed report line: where the NVRM envelope
    /// starts (`kernel: `), where its pid field starts, and where the
    /// message body starts.
    fn envelope(line: &str) -> (usize, usize, usize) {
        let start = line.find("kernel: ").unwrap();
        let code_end = start + line[start..].find("): ").unwrap() + 3;
        let pid_at = code_end + line[code_end..].find(", ").unwrap() + 2;
        let mut body = pid_at;
        if line[pid_at..].starts_with("pid=") {
            body += line[pid_at..].find(", ").unwrap() + 2;
        }
        (start, pid_at, body)
    }

    /// One mutation of a report line's NVRM envelope (`how` in `0..12`):
    /// the pid forms NVRM prints and some it does not, a missing
    /// pid, doubled `, ` separators, PCI groups too short, too long or in
    /// upper case, and non-ASCII in the message tail.
    fn mutate_envelope(line: &str, how: usize) -> String {
        let (_, pid_at, body) = envelope(line);
        let with_pid = |pid: &str| format!("{}{pid}{}", &line[..pid_at], &line[body..]);
        let pci = line.find("(PCI:").unwrap() + 5;
        let with_pci = |p: &str| format!("{}{p}{}", &line[..pci], &line[pci + 10..]);
        match how {
            1 => with_pid("pid='<unknown>', "),
            2 => with_pid("pid=<unknown>, "),
            3 => with_pid("pid=, "),
            4 => with_pid(""),
            5 => format!("{}, {}", &line[..pid_at], &line[pid_at..]),
            6 => line.replace(", ", ", , "),
            7 => with_pci("000:0f:00"),
            8 => with_pci("00000:0f:00"),
            9 => with_pci("0000:0F:0A"),
            10 => with_pci("0000:0f:0"),
            11 => format!("{}é\u{2014}\u{1F4A5} ünïcode", &line[..body]),
            _ => line.to_string(),
        }
    }

    proptest::proptest! {
        #[test]
        fn mutated_xid_lines_are_counted_exactly_once(
            picks in proptest::collection::vec(
                ((0usize..14, 0u64..70_000), (0usize..160, 0usize..4, 0usize..6, 0usize..16)),
                1..40,
            ),
        ) {
            // Valid report lines for every XID, each with its envelope
            // mutated (or not), then spliced at a random spot with a digit
            // run (often overflowing the field it lands in), a hex run, an
            // oversized code, or nothing. The first line is also cut at
            // every byte of its envelope.
            let inserts = ["", "9", "70000", "fffffffff", "0x11890000000", ":"];
            let mut lines: Vec<String> = Vec::new();
            for (i, &((x, v), (at, cut, which, how))) in picks.iter().enumerate() {
                let xid = Xid::ALL[x];
                let rec = ErrorRecord::new(
                    Timestamp::EPOCH + Duration::from_secs(3_600 + i as u64),
                    GpuId::at_slot(NodeId(7), x % 8),
                    xid,
                    ErrorDetail::new((v % 65_536) as u16, v as u32 * 977),
                );
                let line = format_line(&rec, v as u32 % 3 * 2731);
                if i == 0 {
                    let (start, _, body) = envelope(&line);
                    for end in start..body {
                        lines.push(line[..end].to_string());
                    }
                }
                let insert = match which {
                    2 => v.to_string(),
                    w => inserts[w].to_string(),
                };
                lines.push(splice(&mutate_envelope(&line, how), at, cut, &insert));
            }
            both_engines(&lines);
        }
    }

    #[test]
    fn envelope_mutations_land_where_the_pattern_says() {
        let rec = sample_record(Xid::UncontainedEcc, 4, 0x1189);
        let line = format_line(&rec, 5);
        // Per mutation: (XID line?, record?). The pid group is optional,
        // so a pid it cannot take (`pid=, `) or a doubled separator just
        // lands in the `(.*)$` tail, where the unanchored body pattern
        // still finds the detail. A PCI group of the wrong width or case
        // fails the envelope: not an XID line. A tail without the body's
        // text is a malformed XID line.
        let expect = [
            (true, true), (true, true), (true, true), (true, true), (true, true),
            (true, true), (true, true), (false, false), (false, false),
            (false, false), (false, false), (true, false),
        ];
        for (how, (xid_line, record)) in expect.into_iter().enumerate() {
            let mutated = mutate_envelope(&line, how);
            let (recs, s) = both_engines(std::slice::from_ref(&mutated));
            assert_eq!((s.xid_lines == 1, recs.len() == 1), (xid_line, record), "{mutated}");
            assert!(recs.iter().all(|r| r.detail == ErrorDetail::new(4, 0x1189)));
        }
    }
}
