//! # dr-logscan — log extraction substrate
//!
//! Stage I of the paper's pipeline (Figure 4) extracts GPU error events
//! from 202 GB of raw syslog text using regular-expression patterns built
//! from NVIDIA's XID message catalog. This crate reproduces that stage
//! from scratch:
//!
//! - [`regex`]: a self-contained regular-expression engine — recursive-
//!   descent parser → Thompson NFA → a bounded backtracker (BitState) for
//!   short haystacks and a Pike VM for long ones, both with capture
//!   groups. Supports the constructs the XID patterns need: literals,
//!   `.`, classes with ranges and negation, escapes
//!   (`\d \w \s \D \W \S`), anchors `^ $`, alternation, capturing and
//!   non-capturing groups, and greedy quantifiers `* + ? {m} {m,} {m,n}`.
//!   Guaranteed linear-time matching (BitState runs each instruction at
//!   each position at most once), which matters when scanning hundreds
//!   of gigabytes.
//! - [`syslog`]: the classic syslog line model (`Mon dd hh:mm:ss host ...`)
//!   including **monotonic year inference** — syslog timestamps carry no
//!   year, so the scanner tracks month rollovers across a multi-year
//!   campaign, exactly the hazard a real field study must handle.
//! - [`extract`]: the XID pattern set and the extractor that turns raw
//!   text lines back into structured [`dr_xid::ErrorRecord`]s.

pub mod extract;
pub mod regex;
pub mod syslog;

pub use extract::{BaselineExtractor, ExtractStats, XidExtractor};
pub use regex::{Match, MatchScratch, Regex, RegexError};
pub use syslog::{parse_header, RawHeader, SyslogLine, SyslogScanner};
