//! Accounting-table CSV serialization.
//!
//! The `gpures` CLI round-trips the job table through disk so the analysis
//! pipeline can run on files, the way the real study consumed the Slurm
//! accounting database. The format is one header plus one row per job:
//!
//! ```text
//! id,start_us,end_us,state,exit_code,ml,gpus
//! 17,360000000,7200000000,COMPLETED,0,0,3/0000:07:00;3/0000:0f:00
//! ```
//!
//! `gpus` is a `;`-separated list of `node/pci` identifiers matching
//! [`dr_xid::GpuId`]'s display format.

use crate::jobs::{JobRecord, JobState};
use dr_xid::{GpuId, NodeId, PciAddr, Timestamp};
use std::fmt::Write as _;

/// Header line.
pub const HEADER: &str = "id,start_us,end_us,state,exit_code,ml,gpus";

/// Parse error with line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsvError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "jobs csv line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CsvError {}

/// Boundary conversion into the workspace-wide data-path error.
impl From<CsvError> for dr_xid::DataError {
    fn from(e: CsvError) -> Self {
        dr_xid::DataError::Csv {
            artifact: "jobs",
            line: e.line,
            message: e.message,
        }
    }
}

fn state_str(s: JobState) -> &'static str {
    match s {
        JobState::Completed => "COMPLETED",
        JobState::UserFailed => "FAILED",
        JobState::GpuFailed => "GPU_FAILED",
    }
}

/// Serialize the whole table (header included).
pub fn to_csv(jobs: &[JobRecord]) -> String {
    let mut out = String::with_capacity(64 * jobs.len() + HEADER.len() + 1);
    out.push_str(HEADER);
    out.push('\n');
    for j in jobs {
        let mut gpus = String::new();
        for (i, g) in j.gpus.iter().enumerate() {
            if i > 0 {
                gpus.push(';');
            }
            let _ = write!(gpus, "{}/{}", g.node.0, g.pci);
        }
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{}",
            j.id,
            j.start.as_micros(),
            j.end.as_micros(),
            state_str(j.state),
            j.exit_code,
            j.ml as u8,
            gpus
        );
    }
    out
}

/// Parse a table (header required).
///
/// One pass over each row's bytes, with no per-row allocation but the
/// job's own GPU list. Accepts what `str::parse` accepts field by field
/// (a leading `+`, leading zeros, the `i32` range for the exit code);
/// rows are `str::trim`med and blank rows skipped.
pub fn from_csv(text: &str) -> Result<Vec<JobRecord>, CsvError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, h)) if h.trim() == HEADER => {}
        _ => return Err(err(1, "missing or wrong header")),
    }
    let mut jobs = Vec::new();
    for (idx, raw) in lines {
        let raw = raw.trim();
        if !raw.is_empty() {
            jobs.push(parse_row(raw).map_err(|message| err(idx + 1, message))?);
        }
    }
    Ok(jobs)
}

fn err(line: usize, message: &str) -> CsvError {
    CsvError {
        line,
        message: message.to_string(),
    }
}

/// One non-blank, trimmed row: `str::split(',')` has 7 fields, each
/// valid, or the error is the first check that fails in the order
/// field count, id, start, end, end ≥ start, state, exit code, ml
/// flag, GPUs.
fn parse_row(row: &str) -> Result<JobRecord, &'static str> {
    // A row that parses has exactly 7 fields: a comma in the last one
    // fails its GPU parse. So the count is taken only on failure.
    parse_fields(row).map_err(|e| {
        if row.bytes().filter(|&b| b == b',').count() == 6 {
            e
        } else {
            "expected 7 fields"
        }
    })
}

fn parse_fields(row: &str) -> Result<JobRecord, &'static str> {
    let mut fields = row.as_bytes().splitn(7, |&b| b == b',');
    let mut field = || fields.next().ok_or("expected 7 fields");
    let id = decimal(field()?).ok_or("bad id")?;
    let start = decimal(field()?).ok_or("bad start_us")?;
    let end = decimal(field()?).ok_or("bad end_us")?;
    if end < start {
        return Err("end before start");
    }
    let state = match field()? {
        b"COMPLETED" => JobState::Completed,
        b"FAILED" => JobState::UserFailed,
        b"GPU_FAILED" => JobState::GpuFailed,
        _ => return Err("bad state"),
    };
    let exit_code = exit_code(field()?).ok_or("bad exit code")?;
    let ml = match field()? {
        b"0" => false,
        b"1" => true,
        _ => return Err("bad ml flag"),
    };
    // The delimiters are ASCII, so every split point is a char boundary.
    let list = &row[row.len() - field()?.len()..];
    let mut gpus = Vec::with_capacity(1 + list.bytes().filter(|&b| b == b';').count());
    for part in list.split(';').filter(|p| !p.is_empty()) {
        let slash = part.bytes().position(|b| b == b'/').ok_or("bad gpu id")?;
        let node = decimal(&part.as_bytes()[..slash])
            .and_then(|n| u32::try_from(n).ok())
            .ok_or("bad node id")?;
        let pci: PciAddr = part[slash + 1..].parse().map_err(|_| "bad pci")?;
        gpus.push(GpuId::new(NodeId(node), pci));
    }
    if gpus.is_empty() {
        return Err("job without GPUs");
    }
    Ok(JobRecord {
        id,
        gpus,
        start: Timestamp::from_micros(start),
        end: Timestamp::from_micros(end),
        state,
        exit_code,
        ml,
    })
}

/// A `u64` in decimal with an optional leading `+` (what `str::parse`
/// accepts).
fn decimal(field: &[u8]) -> Option<u64> {
    let digits = field.strip_prefix(b"+").unwrap_or(field);
    if digits.is_empty() {
        return None;
    }
    let mut value: u64 = 0;
    for &b in digits {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        value = value.checked_mul(10)?.checked_add(u64::from(d))?;
    }
    Some(value)
}

/// An `i32` in decimal with an optional leading `+` or `-`.
fn exit_code(field: &[u8]) -> Option<i32> {
    let value = match field.strip_prefix(b"-") {
        Some(magnitude) if !magnitude.starts_with(b"+") => {
            -i64::try_from(decimal(magnitude)?).ok()?
        }
        Some(_) => return None,
        None => i64::try_from(decimal(field)?).ok()?,
    };
    i32::try_from(value).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_xid::Duration;
    use proptest::prelude::*;

    /// The reader `from_csv` replaced, kept as its oracle: split rows on
    /// `,`, `;` and `/`, and parse each field with `str::parse`.
    fn oracle_from_csv(text: &str) -> Result<Vec<JobRecord>, CsvError> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, h)) if h.trim() == HEADER => {}
            _ => return Err(err(1, "missing or wrong header")),
        }
        let mut jobs = Vec::new();
        for (idx, raw) in lines {
            let line_no = idx + 1;
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            let fields: Vec<&str> = raw.split(',').collect();
            if fields.len() != 7 {
                return Err(err(line_no, "expected 7 fields"));
            }
            let id: u64 = fields[0].parse().map_err(|_| err(line_no, "bad id"))?;
            let start: u64 = fields[1].parse().map_err(|_| err(line_no, "bad start_us"))?;
            let end: u64 = fields[2].parse().map_err(|_| err(line_no, "bad end_us"))?;
            if end < start {
                return Err(err(line_no, "end before start"));
            }
            let state = match fields[3] {
                "COMPLETED" => JobState::Completed,
                "FAILED" => JobState::UserFailed,
                "GPU_FAILED" => JobState::GpuFailed,
                _ => return Err(err(line_no, "bad state")),
            };
            let exit_code: i32 = fields[4].parse().map_err(|_| err(line_no, "bad exit code"))?;
            let ml = match fields[5] {
                "0" => false,
                "1" => true,
                _ => return Err(err(line_no, "bad ml flag")),
            };
            let mut gpus = Vec::new();
            for part in fields[6].split(';').filter(|p| !p.is_empty()) {
                let (node, pci) = part
                    .split_once('/')
                    .ok_or_else(|| err(line_no, "bad gpu id"))?;
                let node: u32 = node.parse().map_err(|_| err(line_no, "bad node id"))?;
                let mut hex = pci.split(':');
                let pci = (|| {
                    Some(PciAddr::new(
                        u16::from_str_radix(hex.next()?, 16).ok()?,
                        u8::from_str_radix(hex.next()?, 16).ok()?,
                        u8::from_str_radix(hex.next()?, 16).ok()?,
                    ))
                })()
                .filter(|_| hex.next().is_none())
                .ok_or_else(|| err(line_no, "bad pci"))?;
                gpus.push(GpuId::new(NodeId(node), pci));
            }
            if gpus.is_empty() {
                return Err(err(line_no, "job without GPUs"));
            }
            jobs.push(JobRecord {
                id,
                gpus,
                start: Timestamp::from_micros(start),
                end: Timestamp::from_micros(end),
                state,
                exit_code,
                ml,
            });
        }
        Ok(jobs)
    }

    /// Text a mutation splices in: signs, leading zeros, integer-range
    /// edges, hex digits of both cases, line endings, Unicode
    /// whitespace, delimiters, and non-ASCII characters.
    const TOKENS: &[&str] = &[
        "+", "-", "0", "00", "+0", "-0", "++1", "-+1", "+-1",
        "18446744073709551615", "18446744073709551616", "4294967295", "4294967296",
        "2147483647", "2147483648", "-2147483648", "-2147483649", "00000000000000000000042",
        "FFFF", "fFfF", "C1", "c1", "10000", "100", "+ff", "0x1", "g",
        "\r", "\r\n", "\n", "\u{a0}", "\u{2003}", "\u{3000}", "\u{85}", "\u{feff}", " ", "\t",
        ";;", ";", ",", ",x", "/", "//", ":", "::", "",
        "é", "日本", "\u{1F600}", "٣",
        "COMPLETED", "FAILED", "GPU_FAILED", "completed", "1", "2",
    ];

    fn is_delimiter(c: char) -> bool {
        matches!(c, ',' | ';' | '/' | ':' | '\n')
    }

    /// Byte offset where the `n`-th field (counted modulo the number of
    /// fields after the header) starts, and where it ends.
    fn field_span(text: &str, n: usize) -> Option<(usize, usize)> {
        let body = text.find('\n')? + 1;
        let starts: Vec<usize> = std::iter::once(body)
            .chain(
                text[body..]
                    .char_indices()
                    .filter(|&(_, c)| is_delimiter(c))
                    .map(|(i, c)| body + i + c.len_utf8()),
            )
            .collect();
        let lo = starts[n % starts.len()];
        let hi = text[lo..].find(is_delimiter).map_or(text.len(), |i| lo + i);
        Some((lo, hi))
    }

    /// Apply mutation `kind` at `at` with `token` (body only, so most
    /// mutated tables still get past the header).
    fn mutate(text: &mut String, kind: u8, at: usize, token: &str) {
        let body = text.find('\n').map_or(text.len(), |i| i + 1);
        let mut pos = body + at % (text.len() - body + 1);
        while !text.is_char_boundary(pos) {
            pos -= 1;
        }
        match kind {
            0 => text.insert_str(pos, token),
            1 => {
                if let Some((lo, hi)) = field_span(text, at) {
                    text.replace_range(lo..hi, token);
                }
            }
            2 => {
                if let Some((lo, _)) = field_span(text, at) {
                    text.insert_str(lo, token);
                }
            }
            3 => {
                if let Some(c) = text[pos..].chars().next() {
                    text.replace_range(pos..pos + c.len_utf8(), "");
                }
            }
            4 => {
                let upper = text[body..].to_uppercase();
                text.replace_range(body.., &upper);
            }
            _ => *text = text.replace('\n', "\r\n"),
        }
    }

    /// One job: `(id, start, length)`, `(state, exit code, ml)`, and
    /// `(node, domain, bus, device)` per GPU.
    type Draw = ((u64, u64, u64), (u8, i32, bool), Vec<(u32, u16, u8, u8)>);

    fn table(draws: &[Draw]) -> Vec<JobRecord> {
        draws
            .iter()
            .map(|((id, start, len), (state, exit_code, ml), gpus)| JobRecord {
                id: *id,
                gpus: gpus
                    .iter()
                    .map(|&(node, domain, bus, device)| {
                        GpuId::new(NodeId(node), PciAddr::new(domain, bus, device))
                    })
                    .collect(),
                start: Timestamp::from_micros(*start),
                end: Timestamp::from_micros(start.saturating_add(*len)),
                state: [JobState::Completed, JobState::UserFailed, JobState::GpuFailed]
                    [usize::from(*state % 3)],
                exit_code: *exit_code,
                ml: *ml,
            })
            .collect()
    }

    #[test]
    fn every_token_in_every_field_matches_the_oracle() {
        let text = to_csv(&sample_jobs());
        let fields = text.matches(is_delimiter).count();
        for token in TOKENS {
            for n in 0..fields {
                for kind in [1, 2] {
                    let mut mutated = text.clone();
                    mutate(&mut mutated, kind, n, token);
                    assert_eq!(
                        from_csv(&mutated),
                        oracle_from_csv(&mutated),
                        "kind {kind}, field {n}, token {token:?}: {mutated:?}"
                    );
                }
            }
        }
    }

    proptest! {
        /// On generated tables and any sequence of byte mutations the
        /// reader returns exactly the oracle's `Result`: the same jobs,
        /// or the same line and message.
        #[test]
        fn reader_matches_the_split_and_parse_oracle(
            draws in prop::collection::vec(
                (
                    (any::<u64>(), 0u64..1 << 40, 0u64..1 << 36),
                    (0u8..3, any::<i32>(), any::<bool>()),
                    prop::collection::vec(
                        (0u32..4_000, any::<u16>(), any::<u8>(), any::<u8>()),
                        0..4,
                    ),
                ),
                0..8,
            ),
            mutations in prop::collection::vec((0u8..6, 0usize..4_096, 0usize..TOKENS.len()), 0..6),
        ) {
            let mut text = to_csv(&table(&draws));
            prop_assert_eq!(from_csv(&text), oracle_from_csv(&text));
            for (kind, at, token) in mutations {
                mutate(&mut text, kind, at, TOKENS[token]);
                prop_assert_eq!(from_csv(&text), oracle_from_csv(&text), "on {:?}", text);
            }
        }

        /// `to_csv` → `from_csv` gives back every job with at least one GPU.
        #[test]
        fn round_trip_preserves_every_field(
            draws in prop::collection::vec(
                (
                    (any::<u64>(), any::<u64>(), any::<u64>()),
                    (0u8..3, any::<i32>(), any::<bool>()),
                    prop::collection::vec(
                        (any::<u32>(), any::<u16>(), any::<u8>(), any::<u8>()),
                        1..5,
                    ),
                ),
                0..20,
            ),
        ) {
            let jobs = table(&draws);
            prop_assert_eq!(from_csv(&to_csv(&jobs)), Ok(jobs));
        }
    }

    fn sample_jobs() -> Vec<JobRecord> {
        vec![
            JobRecord {
                id: 1,
                gpus: vec![GpuId::at_slot(NodeId(3), 0), GpuId::at_slot(NodeId(3), 1)],
                start: Timestamp::from_secs(100),
                end: Timestamp::from_secs(4_000),
                state: JobState::Completed,
                exit_code: 0,
                ml: true,
            },
            JobRecord {
                id: 2,
                gpus: vec![GpuId::at_slot(NodeId(7), 2)],
                start: Timestamp::from_secs(50) + Duration::from_micros(123),
                end: Timestamp::from_secs(99),
                state: JobState::GpuFailed,
                exit_code: 139,
                ml: false,
            },
        ]
    }

    #[test]
    fn round_trip_preserves_everything() {
        let jobs = sample_jobs();
        let csv = to_csv(&jobs);
        let parsed = from_csv(&csv).expect("parses");
        assert_eq!(parsed.len(), 2);
        for (a, b) in jobs.iter().zip(&parsed) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.gpus, b.gpus);
            assert_eq!(a.start, b.start);
            assert_eq!(a.end, b.end);
            assert_eq!(a.state, b.state);
            assert_eq!(a.exit_code, b.exit_code);
            assert_eq!(a.ml, b.ml);
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_csv("").is_err());
        assert!(from_csv("wrong,header\n").is_err());
        let bad_fields = format!("{HEADER}\n1,2,3\n");
        assert!(from_csv(&bad_fields).is_err());
        let bad_state = format!("{HEADER}\n1,0,5,RUNNING,0,0,1/0000:07:00\n");
        assert!(from_csv(&bad_state).is_err());
        let end_before_start = format!("{HEADER}\n1,10,5,COMPLETED,0,0,1/0000:07:00\n");
        assert!(from_csv(&end_before_start).is_err());
        let no_gpus = format!("{HEADER}\n1,0,5,COMPLETED,0,0,\n");
        assert!(from_csv(&no_gpus).is_err());
    }

    #[test]
    fn skips_blank_lines_and_reports_line_numbers() {
        let csv = format!("{HEADER}\n\n1,0,5,COMPLETED,0,1,4/0000:47:00\n");
        let jobs = from_csv(&csv).expect("parses");
        assert_eq!(jobs.len(), 1);
        assert!(jobs[0].ml);
        let bad = format!("{HEADER}\n1,0,5,COMPLETED,0,0,4/0000:47:00\nx,y\n");
        let e = from_csv(&bad).unwrap_err();
        assert_eq!(e.line, 3);
    }
}
