//! Syslog line model with monotonic year inference.
//!
//! Classic syslog timestamps (`Jan  2 03:04:05`) carry **no year**. Over an
//! 855-day campaign the calendar wraps twice, so a scanner that naively
//! pinned one year would mis-order two thirds of the data. [`SyslogScanner`]
//! tracks the last seen month and bumps the year whenever the month
//! regresses (December → January), which is correct as long as the log is
//! scanned in order — true for per-node log files.
//!
//! The header format is fixed-shape (`Mmm [d]d HH:MM:SS gpubNNN body`), so
//! [`parse_header`] decodes it with direct byte inspection — a month
//! table, digit runs, and fixed `HH:MM:SS` offsets — instead of a regex.
//! The original regex implementation survives as
//! [`parse_header_oracle`], the differential-testing oracle that pins the
//! byte parser's accept/reject behavior exactly.

use crate::regex::Regex;
use dr_xid::time::month_from_abbrev;
use dr_xid::{NodeId, Timestamp};
use std::sync::OnceLock;

/// A parsed syslog line header plus the remaining message body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SyslogLine<'l> {
    /// Reconstructed wall-clock timestamp (year inferred).
    pub at: Timestamp,
    /// Originating host parsed from the hostname field.
    pub host: NodeId,
    /// Everything after the hostname field.
    pub body: &'l str,
}

/// Structurally decoded syslog header fields, before time-field range
/// validation and year inference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RawHeader {
    /// Calendar month 1–12 from the leading abbreviation.
    pub month: u8,
    /// Day-of-month digits as written (not yet range-checked).
    pub day: u8,
    pub hour: u8,
    pub minute: u8,
    pub second: u8,
    /// Numeric suffix of the `gpubNNN` hostname.
    pub host: u32,
    /// Byte offset where the message body begins.
    pub body_start: usize,
}

impl RawHeader {
    /// Whether the written time fields denote a plausible wall-clock
    /// time (`day` 1–31, `hour` ≤ 23, `minute`/`second` ≤ 59). Headers
    /// failing this are rejected by [`SyslogScanner::parse`] *before*
    /// they touch year-inference state.
    pub fn time_fields_valid(&self) -> bool {
        self.day >= 1
            && self.day <= 31
            && self.hour <= 23
            && self.minute <= 59
            && self.second <= 59
    }
}

// dr-lint: hot(begin)
/// Byte-level header decoder: `Mmm <spaces> [d]d HH:MM:SS gpubNNN <body>`.
///
/// Accepts exactly the lines the header regex
/// `^([A-Z][a-z][a-z]) +(\d{1,2}) (\d{2}):(\d{2}):(\d{2}) gpub(\d+) (.*)$`
/// accepts (see [`parse_header_oracle`]); the equivalence is pinned by
/// differential tests. Purely structural — time-field ranges are checked
/// separately via [`RawHeader::time_fields_valid`].
pub fn parse_header(line: &str) -> Option<RawHeader> {
    let b = line.as_bytes();
    let month = month_from_abbrev(line.get(0..3)?)?;
    // One or more spaces, then a 1–2 digit day terminated by one space.
    let mut i = 3;
    while i < b.len() && b[i] == b' ' {
        i += 1;
    }
    if i == 3 {
        return None;
    }
    let day_start = i;
    while i < b.len() && b[i].is_ascii_digit() {
        i += 1;
    }
    let day = match i - day_start {
        1 => b[day_start] - b'0',
        2 => (b[day_start] - b'0') * 10 + (b[day_start + 1] - b'0'),
        _ => return None,
    };
    if b.get(i) != Some(&b' ') {
        return None;
    }
    i += 1;
    // Fixed-shape HH:MM:SS followed by one space.
    if b.len() < i + 9 {
        return None;
    }
    let t = &b[i..i + 9];
    if t[2] != b':'
        || t[5] != b':'
        || t[8] != b' '
        || !(t[0].is_ascii_digit() && t[1].is_ascii_digit())
        || !(t[3].is_ascii_digit() && t[4].is_ascii_digit())
        || !(t[6].is_ascii_digit() && t[7].is_ascii_digit())
    {
        return None;
    }
    let hour = (t[0] - b'0') * 10 + (t[1] - b'0');
    let minute = (t[3] - b'0') * 10 + (t[4] - b'0');
    let second = (t[6] - b'0') * 10 + (t[7] - b'0');
    i += 9;
    // Hostname: literal "gpub" then a u32 digit run then one space.
    if b.len() < i + 4 || &b[i..i + 4] != b"gpub" {
        return None;
    }
    i += 4;
    let host_start = i;
    let mut host: u32 = 0;
    while i < b.len() && b[i].is_ascii_digit() {
        host = host
            .checked_mul(10)?
            .checked_add((b[i] - b'0') as u32)?;
        i += 1;
    }
    if i == host_start || b.get(i) != Some(&b' ') {
        return None;
    }
    i += 1;
    // The regex's trailing `(.*)$` cannot cross a newline.
    if b[i..].contains(&b'\n') {
        return None;
    }
    Some(RawHeader {
        month,
        day,
        hour,
        minute,
        second,
        host,
        body_start: i,
    })
}
// dr-lint: hot(end)

/// The syslog header as a regex: what [`parse_header_oracle`] and the
/// baseline extractor match.
pub(crate) const HEADER_PATTERN: &str =
    r"^([A-Z][a-z][a-z]) +(\d{1,2}) (\d{2}):(\d{2}):(\d{2}) gpub(\d+) (.*)$";

/// The original regex-based header decoder, kept verbatim as the
/// differential-testing oracle for [`parse_header`]. Not used on the
/// production scan path.
pub fn parse_header_oracle(line: &str) -> Option<RawHeader> {
    static HEADER: OnceLock<Regex> = OnceLock::new();
    let header = HEADER.get_or_init(|| {
        Regex::new(HEADER_PATTERN)
            // dr-lint: allow(panic-freedom): constant pattern, compile covered by tests
            .expect("header pattern compiles")
    });
    let m = header.find(line)?;
    let month = month_from_abbrev(m.group(line, 1)?)?;
    let day: u8 = m.group(line, 2)?.parse().ok()?;
    let hour: u8 = m.group(line, 3)?.parse().ok()?;
    let minute: u8 = m.group(line, 4)?.parse().ok()?;
    let second: u8 = m.group(line, 5)?.parse().ok()?;
    let host: u32 = m.group(line, 6)?.parse().ok()?;
    let body_start = m.group_span(7)?.0;
    debug_assert!(m.span().1 == line.len());
    Some(RawHeader {
        month,
        day,
        hour,
        minute,
        second,
        host,
        body_start,
    })
}

/// Stateful scanner over an in-order syslog stream.
pub struct SyslogScanner {
    year: i32,
    last_month: u8,
}

impl Default for SyslogScanner {
    fn default() -> Self {
        Self::new()
    }
}

impl SyslogScanner {
    /// Scanner starting at the campaign's first year (2022).
    pub fn new() -> Self {
        Self::starting_year(2022)
    }

    /// Scanner with an explicit starting year.
    pub fn starting_year(year: i32) -> Self {
        Self::starting_state(year, 1)
    }

    /// Scanner resuming mid-stream with explicit year-inference state —
    /// used by chunked parallel extraction to replay the state a serial
    /// scan would have reached at the chunk boundary.
    pub fn starting_state(year: i32, last_month: u8) -> Self {
        SyslogScanner { year, last_month }
    }

    /// Current inferred year.
    pub fn year(&self) -> i32 {
        self.year
    }

    /// Month of the last successfully validated header (year-inference
    /// state; 1 before any line is seen).
    pub fn last_month(&self) -> u8 {
        self.last_month
    }

    /// Parse one line. Returns `None` for lines that are not well-formed
    /// syslog from a GPU node (they are counted by the extractor, not here).
    pub fn parse<'l>(&mut self, line: &'l str) -> Option<SyslogLine<'l>> {
        let h = parse_header(line)?;
        self.resolve(line, &h)
    }

    /// Second half of [`SyslogScanner::parse`]: validate an
    /// already-decoded header, advance year-inference state, and resolve
    /// the timestamp. Split out so the extractor can decode the header
    /// once and count structural validity separately from time-field
    /// validity.
    pub fn resolve<'l>(&mut self, line: &'l str, h: &RawHeader) -> Option<SyslogLine<'l>> {
        if !h.time_fields_valid() {
            return None;
        }

        // Year rollover: month going backwards means a new year started.
        if h.month < self.last_month {
            self.year += 1;
        }
        self.last_month = h.month;

        let at = Timestamp::from_civil(self.year, h.month, h.day, h.hour, h.minute, h.second)?;
        let body = line.get(h.body_start..)?;
        Some(SyslogLine {
            at,
            host: NodeId(h.host),
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_xid::time::SECS_PER_DAY;

    #[test]
    fn parses_well_formed_line() {
        let mut s = SyslogScanner::new();
        let line = "Jan  2 03:04:05 gpub042 kernel: NVRM: Xid (PCI:0000:c1:00): 79, x";
        let p = s.parse(line).unwrap();
        assert_eq!(p.host, NodeId(42));
        assert_eq!(p.body, "kernel: NVRM: Xid (PCI:0000:c1:00): 79, x");
        let c = p.at.civil();
        assert_eq!((c.year, c.month, c.day), (2022, 1, 2));
        assert_eq!((c.hour, c.minute, c.second), (3, 4, 5));
    }

    #[test]
    fn rejects_malformed_lines() {
        let mut s = SyslogScanner::new();
        assert!(s.parse("").is_none());
        assert!(s.parse("not a log line").is_none());
        assert!(s.parse("Jan  2 03:04:05 loginnode sshd: hi").is_none());
        assert!(s.parse("Jxn  2 03:04:05 gpub001 kernel: x").is_none());
        // Invalid time fields.
        assert!(s.parse("Jan  2 25:04:05 gpub001 kernel: x").is_none());
        assert!(s.parse("Jan  0 03:04:05 gpub001 kernel: x").is_none());
    }

    #[test]
    fn byte_parser_agrees_with_regex_oracle() {
        // Well-formed, near-miss, and hostile headers; the byte decoder
        // must accept/reject and decode exactly like the regex oracle.
        let cases = [
            "Jan  2 03:04:05 gpub042 kernel: hello",
            "Dec 31 23:59:59 gpub001 body",
            "Feb 30 10:11:12 gpub900 impossible date is still structural",
            "Jan 12 03:04:05 gpub7 ",
            "Jan 123 03:04:05 gpub7 x",   // 3-digit day
            "Jan  2 3:04:05 gpub7 x",     // 1-digit hour
            "Jan  2 03:04:5 gpub7 x",     // 1-digit second
            "Jan  2 03:04:05 gpub x",     // hostname without digits
            "Jan  2 03:04:05 gpub7",      // missing body separator
            "Jan  2 03:04:05  gpub7 x",   // double space before host
            "Jan  2 03:04:05 gpub99999999999 x", // host overflows u32
            "Jan  2 030405 gpub7 x",      // missing colons
            "Jan2 03:04:05 gpub7 x",      // no space after month
            "jan  2 03:04:05 gpub7 x",    // lowercase month
            "Xyz  2 03:04:05 gpub7 x",    // not a month
            "Jan  2 03:04:05 gpub7 body with\nnewline",
            " Jan  2 03:04:05 gpub7 x",   // leading space
            "Jan 99 03:04:05 gpub7 x",    // day out of range but structural
            "",
        ];
        for line in cases {
            assert_eq!(
                parse_header(line),
                parse_header_oracle(line),
                "divergence on {line:?}"
            );
        }
        // Spot-check one decoded header end to end.
        let h = parse_header("Jan  2 03:04:05 gpub042 kernel: hi").unwrap();
        assert_eq!(
            (h.month, h.day, h.hour, h.minute, h.second, h.host),
            (1, 2, 3, 4, 5, 42)
        );
        assert_eq!(h.body_start, 24);
        assert!(h.time_fields_valid());
        assert!(parse_header("Feb 30 10:11:12 gpub900 x").is_some());
        assert!(!parse_header("Jan 99 03:04:05 gpub7 x").unwrap().time_fields_valid());
    }

    #[test]
    fn starting_state_replays_mid_stream_scan() {
        // A scanner initialized with the state a serial scan reached at a
        // chunk boundary must produce identical timestamps afterwards.
        let lines = [
            "Nov  5 00:00:00 gpub001 a",
            "Dec 31 23:59:59 gpub001 b",
            "Jan  1 00:00:10 gpub001 c",
            "Mar  2 07:00:00 gpub001 d",
        ];
        let mut serial = SyslogScanner::new();
        let serial_ts: Vec<_> = lines.iter().map(|l| serial.parse(l).unwrap().at).collect();

        // Split after the second line; replay state into a new scanner.
        let mut first = SyslogScanner::new();
        for l in &lines[..2] {
            first.parse(l).unwrap();
        }
        let mut second = SyslogScanner::starting_state(first.year(), first.last_month());
        let tail_ts: Vec<_> = lines[2..].iter().map(|l| second.parse(l).unwrap().at).collect();
        assert_eq!(&serial_ts[2..], &tail_ts[..]);
    }

    #[test]
    fn infers_year_across_two_rollovers() {
        let mut s = SyslogScanner::new();
        let a = s.parse("Dec 31 23:59:59 gpub001 kernel: a").unwrap();
        assert_eq!(a.at.civil().year, 2022);
        let b = s.parse("Jan  1 00:00:10 gpub001 kernel: b").unwrap();
        assert_eq!(b.at.civil().year, 2023);
        assert!(b.at > a.at);
        assert_eq!((b.at - a.at).as_secs_f64(), 11.0);
        // Second rollover.
        s.parse("Dec 30 01:00:00 gpub001 kernel: c").unwrap();
        let d = s.parse("Feb  1 00:00:00 gpub001 kernel: d").unwrap();
        assert_eq!(d.at.civil().year, 2024);
        assert_eq!(s.year(), 2024);
    }

    #[test]
    fn mid_year_month_progress_does_not_bump_year() {
        let mut s = SyslogScanner::new();
        s.parse("Mar  1 00:00:00 gpub001 kernel: a").unwrap();
        let b = s.parse("Jul 15 00:00:00 gpub001 kernel: b").unwrap();
        assert_eq!(b.at.civil().year, 2022);
    }

    #[test]
    fn timestamps_are_day_accurate() {
        let mut s = SyslogScanner::new();
        let a = s.parse("Jan  1 00:00:00 gpub001 kernel: a").unwrap();
        let b = s.parse("Jan  3 00:00:00 gpub001 kernel: b").unwrap();
        assert_eq!((b.at - a.at).as_secs_f64(), 2.0 * SECS_PER_DAY as f64);
    }
}
