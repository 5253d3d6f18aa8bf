//! A self-contained regular-expression engine.
//!
//! Pipeline: pattern text → AST ([`parse`]) → NFA program ([`compile`]) →
//! execution by one of two linear-time engines ([`Regex::find`]). Both give
//! leftmost-first semantics (the first alternative, greedy or lazy as
//! written, wins) in guaranteed `O(pattern × input)` time — no
//! backtracking blow-ups on hostile log content.
//!
//! Matching operates on bytes; patterns and inputs are expected to be
//! ASCII (true of syslog).
//!
//! ## Execution engines
//!
//! One compiled [`Program`] is run by three engines:
//!
//! - **[`Regex::find_bytes_at_with`]** executes against a caller-owned
//!   [`MatchScratch`], so steady-state matching performs no heap
//!   allocation beyond the returned [`Match`]. It picks one of two
//!   engines per call:
//!   - **BitState**, a bounded backtracker (RE2's, after Cox, "Regular
//!     Expression Matching: the Virtual Machine Approach"), when
//!     `instructions × (haystack bytes after start + 1)` is at most
//!     256 Ki (`BITSTATE_MAX_BITS`, a 32 KiB bitset). It runs the program depth first in priority
//!     order, with one capture-slot array undone on backtrack, and a
//!     visited bitset over `(instruction, position)` so each pair runs at
//!     most once. The first `Match` it reaches is the leftmost-first
//!     answer. Every Stage I call (XID report bodies are ~60–130 bytes)
//!     takes this engine.
//!   - The **Pike VM** otherwise: it simulates all NFA threads in
//!     lock-step with priority ordering. Thread lists and capture slots
//!     live in pooled storage reused across calls; slots are refcounted
//!     and copied on write, so a `Split` shares its slot set instead of
//!     deep-cloning it.
//!
//!   Both classify bytes with classes pre-compiled to 256-bit bitmaps.
//!   A compile-time [`Analysis`] derives a *required literal* (a byte run
//!   every match must contain at a bounded offset) and a start-anchor
//!   flag; both restrict where matches are tried from, memchr-style,
//!   instead of at every input byte. None of this changes observable
//!   behavior: skipped starts are exactly those that provably cannot
//!   reach `Match`, and both engines merge only states with identical
//!   futures. A match test is `find(..).is_some()`; there is no separate
//!   captureless engine.
//!
//! - The **baseline engine** ([`Regex::find_bytes_at_baseline`]) is the
//!   original per-call Pike VM (fresh thread lists, boxed slots deep-
//!   cloned on every transition, linear class scans, no prefilter). It is
//!   kept as the differential-testing oracle and as the "pre" side of the
//!   Stage I throughput benchmark. The Pike VM doubles as the oracle of
//!   BitState in this module's tests.

use std::fmt;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Pattern compilation error with byte offset into the pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegexError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for RegexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "regex error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for RegexError {}

/// Boundary conversion into the workspace-wide data-path error.
impl From<RegexError> for dr_xid::DataError {
    fn from(e: RegexError) -> Self {
        dr_xid::DataError::Pattern {
            offset: e.offset,
            message: e.message,
        }
    }
}

fn err<T>(offset: usize, message: impl Into<String>) -> Result<T, RegexError> {
    Err(RegexError {
        offset,
        message: message.into(),
    })
}

// ---------------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------------

/// Character class: a set of inclusive byte ranges, possibly negated.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ClassSet {
    negated: bool,
    ranges: Vec<(u8, u8)>,
}

impl ClassSet {
    fn matches(&self, b: u8) -> bool {
        let inside = self.ranges.iter().any(|&(lo, hi)| lo <= b && b <= hi);
        inside != self.negated
    }
}

/// A `ClassSet` pre-compiled to a 256-bit membership bitmap: one branch-
/// free load/shift/mask per byte instead of a linear range scan.
#[derive(Clone, Copy, Debug)]
struct ClassBits([u64; 4]);

impl ClassBits {
    fn from_set(set: &ClassSet) -> Self {
        let mut bits = [0u64; 4];
        for b in 0..=255u8 {
            if set.matches(b) {
                if let Some(word) = bits.get_mut((b >> 6) as usize) {
                    *word |= 1u64 << (b & 63);
                }
            }
        }
        ClassBits(bits)
    }

    #[inline]
    fn test(&self, b: u8) -> bool {
        (self.0[(b >> 6) as usize] >> (b & 63)) & 1 != 0
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Ast {
    Empty,
    Literal(u8),
    Any,
    Class(ClassSet),
    Concat(Vec<Ast>),
    Alternate(Vec<Ast>),
    /// `Some(index)` for capturing groups (1-based), `None` for `(?:...)`.
    Group(Box<Ast>, Option<u16>),
    Repeat {
        node: Box<Ast>,
        min: u32,
        max: Option<u32>,
        /// Lazy (non-greedy) repetition: prefer the shortest match.
        lazy: bool,
    },
    AnchorStart,
    AnchorEnd,
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'p> {
    pat: &'p [u8],
    pos: usize,
    next_group: u16,
}

impl<'p> Parser<'p> {
    fn new(pat: &'p str) -> Self {
        Parser {
            pat: pat.as_bytes(),
            pos: 0,
            next_group: 1,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.pat.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn parse(mut self) -> Result<(Ast, u16), RegexError> {
        let ast = self.alternate()?;
        if self.pos != self.pat.len() {
            return err(self.pos, "unexpected ')'");
        }
        Ok((ast, self.next_group - 1))
    }

    fn alternate(&mut self) -> Result<Ast, RegexError> {
        let first = self.concat()?;
        if !self.eat(b'|') {
            return Ok(first);
        }
        let mut branches = vec![first];
        loop {
            branches.push(self.concat()?);
            if !self.eat(b'|') {
                break;
            }
        }
        Ok(Ast::Alternate(branches))
    }

    fn concat(&mut self) -> Result<Ast, RegexError> {
        let mut items = Vec::new();
        while let Some(b) = self.peek() {
            if b == b'|' || b == b')' {
                break;
            }
            items.push(self.repeat()?);
        }
        Ok(match items.pop() {
            None => Ast::Empty,
            Some(only) if items.is_empty() => only,
            Some(last) => {
                items.push(last);
                Ast::Concat(items)
            }
        })
    }

    fn repeat(&mut self) -> Result<Ast, RegexError> {
        let atom_start = self.pos;
        let atom = self.atom()?;
        let (min, max) = match self.peek() {
            Some(b'*') => {
                self.pos += 1;
                (0, None)
            }
            Some(b'+') => {
                self.pos += 1;
                (1, None)
            }
            Some(b'?') => {
                self.pos += 1;
                (0, Some(1))
            }
            Some(b'{') => {
                // Only treat as a counted repeat if it looks like {m[,n]}.
                if let Some((min, max, consumed)) = self.try_counted_repeat() {
                    self.pos += consumed;
                    (min, max)
                } else {
                    return Ok(atom);
                }
            }
            _ => return Ok(atom),
        };
        // A trailing '?' makes the quantifier lazy (non-greedy).
        let lazy = self.eat(b'?');
        if matches!(atom, Ast::AnchorStart | Ast::AnchorEnd) {
            return err(atom_start, "cannot repeat an anchor");
        }
        if let Some(mx) = max {
            if mx < min {
                return err(atom_start, "repeat max below min");
            }
        }
        Ok(Ast::Repeat {
            node: Box::new(atom),
            min,
            max,
            lazy,
        })
    }

    /// Parse `{m}`, `{m,}`, or `{m,n}` starting at the current `{`.
    /// Returns `(min, max, bytes_consumed)` or `None` if it isn't a
    /// well-formed counted repeat (then `{` is a literal).
    fn try_counted_repeat(&self) -> Option<(u32, Option<u32>, usize)> {
        let rest = &self.pat[self.pos..];
        let close = rest.iter().position(|&b| b == b'}')?;
        let inner = &rest[1..close];
        let inner = std::str::from_utf8(inner).ok()?;
        let (min_s, max_s) = match inner.split_once(',') {
            None => (inner, None),
            Some((a, b)) => (a, Some(b)),
        };
        let min: u32 = min_s.parse().ok()?;
        let max = match max_s {
            None => Some(min),
            Some("") => None,
            Some(s) => Some(s.parse().ok()?),
        };
        // Guard against pathological expansion sizes.
        if min > 1_000 || max.is_some_and(|m| m > 1_000) {
            return None;
        }
        Some((min, max, close + 1))
    }

    fn atom(&mut self) -> Result<Ast, RegexError> {
        let start = self.pos;
        match self.bump() {
            None => err(start, "expected atom"),
            Some(b'(') => {
                let cap = if self.peek() == Some(b'?') {
                    // Only (?: ... ) is supported.
                    self.pos += 1;
                    if !self.eat(b':') {
                        return err(self.pos, "unsupported group flag (only (?:) )");
                    }
                    None
                } else {
                    let idx = self.next_group;
                    if idx > 255 {
                        return err(start, "too many capture groups");
                    }
                    self.next_group += 1;
                    Some(idx)
                };
                let inner = self.alternate()?;
                if !self.eat(b')') {
                    return err(self.pos, "missing ')'");
                }
                Ok(Ast::Group(Box::new(inner), cap))
            }
            Some(b'[') => self.class(start),
            Some(b'.') => Ok(Ast::Any),
            Some(b'^') => Ok(Ast::AnchorStart),
            Some(b'$') => Ok(Ast::AnchorEnd),
            Some(b'\\') => self.escape(start),
            Some(b @ (b'*' | b'+' | b'?')) => {
                err(start, format!("dangling quantifier '{}'", b as char))
            }
            Some(b) => Ok(Ast::Literal(b)),
        }
    }

    fn escape(&mut self, start: usize) -> Result<Ast, RegexError> {
        match self.bump() {
            None => err(start, "trailing backslash"),
            Some(b'd') => Ok(Ast::Class(class_digit(false))),
            Some(b'D') => Ok(Ast::Class(class_digit(true))),
            Some(b'w') => Ok(Ast::Class(class_word(false))),
            Some(b'W') => Ok(Ast::Class(class_word(true))),
            Some(b's') => Ok(Ast::Class(class_space(false))),
            Some(b'S') => Ok(Ast::Class(class_space(true))),
            Some(b'n') => Ok(Ast::Literal(b'\n')),
            Some(b't') => Ok(Ast::Literal(b'\t')),
            Some(b'r') => Ok(Ast::Literal(b'\r')),
            Some(b) if b.is_ascii_alphanumeric() => {
                err(start, format!("unknown escape '\\{}'", b as char))
            }
            Some(b) => Ok(Ast::Literal(b)),
        }
    }

    fn class(&mut self, start: usize) -> Result<Ast, RegexError> {
        let negated = self.eat(b'^');
        let mut ranges: Vec<(u8, u8)> = Vec::new();
        // A ']' immediately after '[' (or '[^') is a literal.
        if self.eat(b']') {
            ranges.push((b']', b']'));
        }
        loop {
            let lo = match self.bump() {
                None => return err(start, "unterminated class"),
                Some(b']') => break,
                Some(b'\\') => match self.bump() {
                    None => return err(start, "trailing backslash in class"),
                    Some(b'd') => {
                        ranges.extend_from_slice(&class_digit(false).ranges);
                        continue;
                    }
                    Some(b'w') => {
                        ranges.extend_from_slice(&class_word(false).ranges);
                        continue;
                    }
                    Some(b's') => {
                        ranges.extend_from_slice(&class_space(false).ranges);
                        continue;
                    }
                    Some(b'n') => b'\n',
                    Some(b't') => b'\t',
                    Some(b) => b,
                },
                Some(b) => b,
            };
            // Range lo-hi, unless '-' is trailing (literal).
            if self.peek() == Some(b'-') && self.pat.get(self.pos + 1) != Some(&b']') {
                self.pos += 1; // consume '-'
                let hi = match self.bump() {
                    None => return err(start, "unterminated class range"),
                    Some(b'\\') => match self.bump() {
                        None => return err(start, "trailing backslash in class"),
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        Some(b) => b,
                    },
                    Some(b) => b,
                };
                if hi < lo {
                    return err(start, "invalid class range (hi < lo)");
                }
                ranges.push((lo, hi));
            } else {
                ranges.push((lo, lo));
            }
        }
        if ranges.is_empty() {
            return err(start, "empty character class");
        }
        Ok(Ast::Class(ClassSet { negated, ranges }))
    }
}

fn class_digit(negated: bool) -> ClassSet {
    ClassSet {
        negated,
        ranges: vec![(b'0', b'9')],
    }
}

fn class_word(negated: bool) -> ClassSet {
    ClassSet {
        negated,
        ranges: vec![(b'0', b'9'), (b'A', b'Z'), (b'a', b'z'), (b'_', b'_')],
    }
}

fn class_space(negated: bool) -> ClassSet {
    ClassSet {
        negated,
        ranges: vec![
            (b' ', b' '),
            (b'\t', b'\t'),
            (b'\n', b'\n'),
            (0x0b, 0x0c),
            (b'\r', b'\r'),
        ],
    }
}

// ---------------------------------------------------------------------------
// Compile-time pattern analysis
// ---------------------------------------------------------------------------

/// A byte run that every match must contain, at an offset from the match
/// start bounded by `[min_off, max_off]` (`max_off == None` means
/// unbounded: the run appears somewhere at or after `min_off`).
#[derive(Clone, Debug)]
struct RequiredLit {
    bytes: Vec<u8>,
    min_off: usize,
    max_off: Option<usize>,
}

/// What the optimizer can assume about every match of the pattern.
#[derive(Clone, Debug, Default)]
struct Analysis {
    required: Option<RequiredLit>,
    anchored_start: bool,
}

/// `(min, max)` number of input bytes the node can consume; `None` max
/// means unbounded. Saturating arithmetic: counted repeats nest.
fn len_bounds(ast: &Ast) -> (usize, Option<usize>) {
    match ast {
        Ast::Empty | Ast::AnchorStart | Ast::AnchorEnd => (0, Some(0)),
        Ast::Literal(_) | Ast::Any | Ast::Class(_) => (1, Some(1)),
        Ast::Group(inner, _) => len_bounds(inner),
        Ast::Concat(items) => items.iter().fold((0, Some(0)), |(lo, hi), it| {
            let (ilo, ihi) = len_bounds(it);
            (
                lo.saturating_add(ilo),
                hi.zip(ihi).map(|(a, b)| a.saturating_add(b)),
            )
        }),
        Ast::Alternate(branches) => {
            let mut lo = usize::MAX;
            let mut hi = Some(0usize);
            for b in branches {
                let (blo, bhi) = len_bounds(b);
                lo = lo.min(blo);
                hi = hi.zip(bhi).map(|(a, c)| a.max(c));
            }
            (if lo == usize::MAX { 0 } else { lo }, hi)
        }
        Ast::Repeat { node, min, max, .. } => {
            let (nlo, nhi) = len_bounds(node);
            let lo = nlo.saturating_mul(*min as usize);
            let hi = match (max, nhi) {
                (Some(m), Some(h)) => Some(h.saturating_mul(*m as usize)),
                _ => None,
            };
            (lo, hi)
        }
    }
}

/// Walks the AST along its single mandatory path, collecting maximal
/// literal byte runs together with their offset bounds from the match
/// start. Alternations and optional repeats flush the current run (their
/// contents are not mandatory) and only widen the offset bounds.
struct LitScan {
    runs: Vec<RequiredLit>,
    cur: Vec<u8>,
    cur_lo: usize,
    cur_hi: Option<usize>,
    lo: usize,
    hi: Option<usize>,
}

impl LitScan {
    fn flush(&mut self) {
        if !self.cur.is_empty() {
            self.runs.push(RequiredLit {
                bytes: std::mem::take(&mut self.cur),
                min_off: self.cur_lo,
                max_off: self.cur_hi,
            });
        }
    }

    fn advance(&mut self, lo: usize, hi: Option<usize>) {
        self.lo = self.lo.saturating_add(lo);
        self.hi = self.hi.zip(hi).map(|(a, b)| a.saturating_add(b));
    }

    fn push_byte(&mut self, b: u8) {
        if self.cur.is_empty() {
            self.cur_lo = self.lo;
            self.cur_hi = self.hi;
        }
        self.cur.push(b);
        self.advance(1, Some(1));
    }

    /// Node contributes no mandatory literal: end the current run and
    /// advance the offset bounds by the node's length bounds.
    fn skip(&mut self, ast: &Ast) {
        self.flush();
        let (lo, hi) = len_bounds(ast);
        self.advance(lo, hi);
    }

    fn walk(&mut self, ast: &Ast) {
        match ast {
            Ast::Empty | Ast::AnchorStart | Ast::AnchorEnd => {}
            Ast::Literal(b) => self.push_byte(*b),
            Ast::Any | Ast::Class(_) => self.skip(ast),
            Ast::Concat(items) => {
                for it in items {
                    self.walk(it);
                }
            }
            Ast::Group(inner, _) => self.walk(inner),
            Ast::Alternate(_) => self.skip(ast),
            Ast::Repeat { node, min, max, .. } => {
                // Mandatory copies mirror what the compiler emits.
                for _ in 0..*min {
                    self.walk(node);
                }
                if *max != Some(*min) {
                    self.flush();
                    let (_, nhi) = len_bounds(node);
                    let opt_hi = match (max, nhi) {
                        (Some(m), Some(h)) => Some(h.saturating_mul((m - min) as usize)),
                        _ => None,
                    };
                    self.advance(0, opt_hi);
                }
            }
        }
    }
}

/// Does every match necessarily begin at input offset 0 (i.e. every path
/// through the pattern passes `^` before consuming a byte)? Conservative:
/// `false` never breaks anything, it only disables the anchor fast path.
fn starts_anchored(ast: &Ast) -> bool {
    match ast {
        Ast::AnchorStart => true,
        Ast::Group(inner, _) => starts_anchored(inner),
        Ast::Concat(items) => {
            for it in items {
                if starts_anchored(it) {
                    return true;
                }
                // Keep looking through zero-width prefixes only.
                if len_bounds(it).1 != Some(0) {
                    return false;
                }
            }
            false
        }
        Ast::Alternate(branches) => branches.iter().all(starts_anchored),
        Ast::Repeat { node, min, .. } => *min >= 1 && starts_anchored(node),
        _ => false,
    }
}

fn analyze(ast: &Ast) -> Analysis {
    let mut scan = LitScan {
        runs: Vec::new(),
        cur: Vec::new(),
        cur_lo: 0,
        cur_hi: Some(0),
        lo: 0,
        hi: Some(0),
    };
    scan.walk(ast);
    scan.flush();
    // Prefer runs with a bounded offset window (they allow skipping start
    // positions, not just whole-input rejection); among candidates take
    // the longest. Length-1 windowed runs are weak filters, so a longer
    // unbounded run beats them.
    let required = scan
        .runs
        .iter()
        .max_by_key(|r| (r.bytes.len() >= 2 && r.max_off.is_some(), r.bytes.len()))
        .cloned();
    Analysis {
        required,
        anchored_start: starts_anchored(ast),
    }
}

// ---------------------------------------------------------------------------
// Compiler: AST -> NFA program
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Inst {
    /// Match one byte exactly.
    Byte(u8),
    /// Match any byte except newline.
    Any,
    /// Match a byte in the indexed class.
    Class(u32),
    /// Try `a` first (higher priority), then `b`.
    Split(u32, u32),
    Jmp(u32),
    /// Record the current input offset into capture slot `n`.
    Save(u16),
    AssertStart,
    AssertEnd,
    Match,
}

struct Program {
    insts: Vec<Inst>,
    classes: Vec<ClassSet>,
    /// Bitmap form of `classes`, same indices.
    class_bits: Vec<ClassBits>,
    n_groups: u16,
    analysis: Analysis,
}

struct Compiler {
    insts: Vec<Inst>,
    classes: Vec<ClassSet>,
}

impl Compiler {
    fn push(&mut self, i: Inst) -> u32 {
        self.insts.push(i);
        (self.insts.len() - 1) as u32
    }

    fn here(&self) -> u32 {
        self.insts.len() as u32
    }

    fn class_id(&mut self, c: ClassSet) -> u32 {
        if let Some(idx) = self.classes.iter().position(|x| *x == c) {
            idx as u32
        } else {
            self.classes.push(c);
            (self.classes.len() - 1) as u32
        }
    }

    fn compile(&mut self, ast: &Ast) {
        match ast {
            Ast::Empty => {}
            Ast::Literal(b) => {
                self.push(Inst::Byte(*b));
            }
            Ast::Any => {
                self.push(Inst::Any);
            }
            Ast::Class(c) => {
                let id = self.class_id(c.clone());
                self.push(Inst::Class(id));
            }
            Ast::AnchorStart => {
                self.push(Inst::AssertStart);
            }
            Ast::AnchorEnd => {
                self.push(Inst::AssertEnd);
            }
            Ast::Concat(items) => {
                for item in items {
                    self.compile(item);
                }
            }
            Ast::Group(inner, cap) => {
                if let Some(idx) = cap {
                    self.push(Inst::Save(idx * 2));
                    self.compile(inner);
                    self.push(Inst::Save(idx * 2 + 1));
                } else {
                    self.compile(inner);
                }
            }
            Ast::Alternate(branches) => {
                // Chain of splits; each branch jumps to the common end.
                let mut jmp_ends = Vec::new();
                for (i, branch) in branches.iter().enumerate() {
                    if i + 1 < branches.len() {
                        let split = self.push(Inst::Split(0, 0));
                        let body = self.here();
                        self.compile(branch);
                        jmp_ends.push(self.push(Inst::Jmp(0)));
                        let next = self.here();
                        self.insts[split as usize] = Inst::Split(body, next);
                    } else {
                        self.compile(branch);
                    }
                }
                let end = self.here();
                for j in jmp_ends {
                    self.insts[j as usize] = Inst::Jmp(end);
                }
            }
            Ast::Repeat { node, min, max, lazy } => self.compile_repeat(node, *min, *max, *lazy),
        }
    }

    fn compile_repeat(&mut self, node: &Ast, min: u32, max: Option<u32>, lazy: bool) {
        // Split priority encodes greediness: the preferred branch comes
        // first, so greedy prefers the body and lazy prefers the exit.
        let split = |body: u32, out: u32| {
            if lazy {
                Inst::Split(out, body)
            } else {
                Inst::Split(body, out)
            }
        };
        // Mandatory copies.
        for _ in 0..min {
            self.compile(node);
        }
        match max {
            None => {
                // Kleene tail: L1: Split(body, out); body; Jmp(L1); out:
                let l1 = self.push(Inst::Split(0, 0));
                let body = self.here();
                self.compile(node);
                self.push(Inst::Jmp(l1));
                let out = self.here();
                self.insts[l1 as usize] = split(body, out);
            }
            Some(mx) => {
                // (mx - min) optional copies, each skippable to the end.
                let mut splits = Vec::new();
                for _ in min..mx {
                    let s = self.push(Inst::Split(0, 0));
                    let body = self.here();
                    splits.push((s, body));
                    self.compile(node);
                }
                let out = self.here();
                for (s, body) in splits {
                    self.insts[s as usize] = split(body, out);
                }
            }
        }
    }
}

fn compile(ast: &Ast, n_groups: u16) -> Program {
    let mut c = Compiler {
        insts: Vec::new(),
        classes: Vec::new(),
    };
    c.push(Inst::Save(0));
    c.compile(ast);
    c.push(Inst::Save(1));
    c.push(Inst::Match);
    let class_bits = c.classes.iter().map(ClassBits::from_set).collect();
    Program {
        insts: c.insts,
        classes: c.classes,
        class_bits,
        n_groups,
        analysis: analyze(ast),
    }
}

// ---------------------------------------------------------------------------
// Reusable match scratch: pooled thread lists + capture slots
// ---------------------------------------------------------------------------

type Slots = Box<[Option<usize>]>;

/// Pooled capture-slot storage. Each live slot set is a `width`-sized
/// region of `data`, identified by a `u32` id, with a reference count.
/// `Split` transitions share a set by bumping its refcount; `Save` writes
/// copy-on-write when the set is shared. Freed regions go on a free list
/// and are reused, so a scanning loop reaches a steady state where no
/// allocation happens at all.
struct SlotPool {
    width: usize,
    data: Vec<Option<usize>>,
    refs: Vec<u32>,
    free: Vec<u32>,
}

impl SlotPool {
    fn reset(&mut self, width: usize) {
        self.width = width;
        self.data.clear();
        self.refs.clear();
        self.free.clear();
    }

    // dr-lint: hot(begin)
    /// Allocate a slot set with every slot unset, refcount 1.
    fn alloc_blank(&mut self) -> u32 {
        match self.free.pop() {
            Some(id) => {
                let base = id as usize * self.width;
                self.data[base..base + self.width].fill(None);
                self.refs[id as usize] = 1;
                id
            }
            None => {
                let id = self.refs.len() as u32;
                self.data.resize(self.data.len() + self.width, None);
                self.refs.push(1);
                id
            }
        }
    }

    #[inline]
    fn retain(&mut self, id: u32) {
        if let Some(r) = self.refs.get_mut(id as usize) {
            *r += 1;
        }
    }

    #[inline]
    fn release(&mut self, id: u32) {
        let r = &mut self.refs[id as usize];
        *r -= 1;
        if *r == 0 {
            self.free.push(id);
        }
    }

    /// Set one slot, copy-on-write: in place when exclusively owned,
    /// otherwise into a fresh copy (the caller's reference moves to it).
    fn with_slot_set(&mut self, id: u32, slot: usize, pos: usize) -> u32 {
        if self.refs[id as usize] == 1 {
            self.data[id as usize * self.width + slot] = Some(pos);
            return id;
        }
        self.refs[id as usize] -= 1;
        let new_id = match self.free.pop() {
            Some(n) => {
                self.refs[n as usize] = 1;
                n
            }
            None => {
                let n = self.refs.len() as u32;
                self.data.resize(self.data.len() + self.width, None);
                self.refs.push(1);
                n
            }
        };
        let src = id as usize * self.width;
        let dst = new_id as usize * self.width;
        self.data.copy_within(src..src + self.width, dst);
        self.data[dst + slot] = Some(pos);
        new_id
    }
    // dr-lint: hot(end)

    #[inline]
    fn get(&self, id: u32, slot: usize) -> Option<usize> {
        self.data.get(id as usize * self.width + slot).copied().flatten()
    }

    /// Copy a slot set out of the pool (used once per successful find).
    fn snapshot(&self, id: u32) -> Slots {
        let base = id as usize * self.width;
        self.data
            .get(base..base + self.width)
            .unwrap_or(&[])
            .to_vec()
            .into_boxed_slice()
    }
}

struct ThreadList {
    /// (pc, slot-pool id), in priority order.
    threads: Vec<(u32, u32)>,
    /// Dense "already added at this step" marker, one per instruction.
    seen: Vec<u32>,
    stamp: u32,
}

impl ThreadList {
    fn prepare(&mut self, n_insts: usize) {
        self.threads.clear();
        if self.seen.len() != n_insts {
            self.seen.clear();
            self.seen.resize(n_insts, 0);
            self.stamp = 0;
        }
    }

    fn begin_step(&mut self) {
        self.threads.clear();
        if self.stamp == u32::MAX {
            self.seen.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
    }
}

/// One entry of BitState's job stack.
#[derive(Clone, Copy, Debug)]
enum Job {
    /// Run the program from instruction `pc` at input offset `pos`.
    Explore { pc: u32, pos: usize },
    /// Backtrack past a `Save`: put capture slot `slot` back to `old`.
    Restore { slot: u16, old: Option<usize> },
}

/// BitState's state: a visited bit per `(instruction, position)`, the job
/// stack, and the capture slots of the path being explored.
#[derive(Default)]
struct BitState {
    visited: Vec<u64>,
    jobs: Vec<Job>,
    caps: Vec<Option<usize>>,
}

/// Caller-owned execution state for both engines of
/// [`Regex::find_bytes_at_with`]: BitState's visited bitset, job stack and
/// capture slots, and the Pike VM's thread lists and capture-slot pool.
/// Create one per scanning loop (or per worker) and pass it to
/// [`Regex::find_bytes_at_with`]; after warm-up, matching allocates
/// nothing but the returned [`Match`].
///
/// A scratch is not tied to a particular `Regex`; it re-sizes itself on
/// first use with each program.
pub struct MatchScratch {
    clist: ThreadList,
    nlist: ThreadList,
    pool: SlotPool,
    bits: BitState,
}

impl Default for MatchScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl MatchScratch {
    pub fn new() -> Self {
        MatchScratch {
            clist: ThreadList {
                threads: Vec::new(),
                seen: Vec::new(),
                stamp: 0,
            },
            nlist: ThreadList {
                threads: Vec::new(),
                seen: Vec::new(),
                stamp: 0,
            },
            pool: SlotPool {
                width: 0,
                data: Vec::new(),
                refs: Vec::new(),
                free: Vec::new(),
            },
            bits: BitState::default(),
        }
    }

    fn prepare(&mut self, n_insts: usize, width: usize) {
        self.clist.prepare(n_insts);
        self.nlist.prepare(n_insts);
        self.pool.reset(width);
    }
}

/// A successful match: the overall span plus capture-group spans.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Match {
    slots: Slots,
    n_groups: u16,
    /// Overall span, resolved at construction so `span()` cannot panic.
    start: usize,
    end: usize,
}

impl Match {
    /// Overall match span `(start, end)` as byte offsets.
    pub fn span(&self) -> (usize, usize) {
        (self.start, self.end)
    }

    /// Span of capture group `i` (1-based; 0 is the whole match), if it
    /// participated in the match.
    pub fn group_span(&self, i: usize) -> Option<(usize, usize)> {
        if i > self.n_groups as usize {
            return None;
        }
        match (self.slots.get(2 * i), self.slots.get(2 * i + 1)) {
            (Some(&Some(s)), Some(&Some(e))) => Some((s, e)),
            _ => None,
        }
    }

    /// Text of capture group `i` within `haystack`.
    pub fn group<'h>(&self, haystack: &'h str, i: usize) -> Option<&'h str> {
        self.group_span(i).and_then(|(s, e)| haystack.get(s..e))
    }
}

/// First occurrence of `needle` in `hay` at index `>= from`.
fn find_sub(hay: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    let n = needle.len();
    if n == 0 {
        return (from <= hay.len()).then_some(from);
    }
    if from.saturating_add(n) > hay.len() {
        return None;
    }
    let first = needle[0];
    let last = hay.len() - n;
    let mut i = from;
    while i <= last {
        // Skip to the next candidate first byte.
        match hay[i..=last].iter().position(|&b| b == first) {
            None => return None,
            Some(off) => i += off,
        }
        if &hay[i..i + n] == needle {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Where a match can start, from the program's [`Analysis`]: only at
/// offset 0 when start-anchored, and only where the required literal
/// occurs inside its offset window. Positions are asked for in increasing
/// order; the first literal occurrence at or after the last search point
/// is cached.
struct Starts<'a> {
    input: &'a [u8],
    anchored: bool,
    lit: Option<&'a RequiredLit>,
    /// Cached occurrence of the literal; valid once `lit_fresh`.
    lit_next: usize,
    lit_fresh: bool,
    /// The literal does not occur at or after the last search point.
    lit_done: bool,
}

impl<'a> Starts<'a> {
    fn new(prog: &'a Program, input: &'a [u8]) -> Self {
        Starts {
            input,
            anchored: prog.analysis.anchored_start,
            lit: prog.analysis.required.as_ref(),
            lit_next: 0,
            lit_fresh: false,
            lit_done: false,
        }
    }

    /// The first position `>= pos` at which a match could start, or
    /// `None` when no match can start at `pos` or later.
    fn next(&mut self, pos: usize) -> Option<usize> {
        if self.anchored && pos > 0 {
            return None;
        }
        let Some(rl) = self.lit else {
            return Some(pos);
        };
        let need = pos + rl.min_off;
        if !self.lit_done && (!self.lit_fresh || self.lit_next < need) {
            match find_sub(self.input, &rl.bytes, need) {
                Some(l) => {
                    self.lit_next = l;
                    self.lit_fresh = true;
                }
                None => self.lit_done = true,
            }
        }
        if self.lit_done {
            return None;
        }
        match rl.max_off {
            // The first position whose window reaches the occurrence.
            Some(mx) if self.lit_next > pos + mx => Some(self.lit_next - mx),
            _ => Some(pos),
        }
    }
}

/// BitState's size limit in visited bits, `instructions × positions`
/// (RE2's: a 32 KiB bitset). Longer haystacks go to the Pike VM.
const BITSTATE_MAX_BITS: usize = 256 * 1024;

/// A compiled regular expression.
pub struct Regex {
    prog: Program,
    pattern: String,
}

impl fmt::Debug for Regex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Regex({:?})", self.pattern)
    }
}

impl Regex {
    /// Compile `pattern`.
    pub fn new(pattern: &str) -> Result<Regex, RegexError> {
        let (ast, n_groups) = Parser::new(pattern).parse()?;
        Ok(Regex {
            prog: compile(&ast, n_groups),
            pattern: pattern.to_string(),
        })
    }

    /// The source pattern.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Number of capture groups.
    pub fn group_count(&self) -> u16 {
        self.prog.n_groups
    }

    /// Leftmost match in `haystack`, if any. Convenience wrapper that
    /// allocates a throwaway scratch; loops should hold a
    /// [`MatchScratch`] and call [`Regex::find_with`].
    pub fn find(&self, haystack: &str) -> Option<Match> {
        self.find_bytes(haystack.as_bytes())
    }

    /// Leftmost match using caller-owned scratch (allocation-free after
    /// warm-up).
    pub fn find_with(&self, haystack: &str, scratch: &mut MatchScratch) -> Option<Match> {
        self.find_bytes_at_with(haystack.as_bytes(), 0, scratch)
    }

    /// Leftmost match over raw bytes.
    pub fn find_bytes(&self, input: &[u8]) -> Option<Match> {
        self.find_bytes_at(input, 0)
    }

    /// Leftmost match over raw bytes, starting the scan at `start`.
    /// `^` still anchors to the true beginning of `input`.
    pub fn find_bytes_at(&self, input: &[u8], start: usize) -> Option<Match> {
        let mut scratch = MatchScratch::new();
        self.find_bytes_at_with(input, start, &mut scratch)
    }

    /// Leftmost match over raw bytes starting at `start`, executed
    /// against caller-owned scratch. Runs BitState when
    /// `instructions × (input.len() − start + 1)` is at most 256 Ki bits
    /// (`BITSTATE_MAX_BITS`), the Pike VM otherwise; both use prefiltered
    /// start positions and bitmap classes, and allocate nothing after
    /// warm-up but the returned [`Match`]. Behavior is identical to
    /// [`Regex::find_bytes_at_baseline`].
    pub fn find_bytes_at_with(
        &self,
        input: &[u8],
        start: usize,
        scratch: &mut MatchScratch,
    ) -> Option<Match> {
        if start > input.len() {
            return None;
        }
        // Every match begins at offset 0; a later scan start can't hit it.
        if self.prog.analysis.anchored_start && start > 0 {
            return None;
        }
        if self.fits_bitstate(input.len() - start) {
            self.find_bitstate(input, start, &mut scratch.bits)
        } else {
            self.find_pike(input, start, scratch)
        }
    }

    /// Whether BitState's visited bitset covers a haystack of `rest`
    /// bytes after the start offset.
    fn fits_bitstate(&self, rest: usize) -> bool {
        self.prog.insts.len().saturating_mul(rest + 1) <= BITSTATE_MAX_BITS
    }

    /// BitState: depth-first search in priority order over
    /// `(instruction, position)` pairs, each run at most once. `Split(a,
    /// b)` continues at `a` and leaves `b` on the job stack; `Save` leaves
    /// a job that restores the slot's old value, so backtracking undoes
    /// it. The first `Match` reached is the Pike VM's leftmost-first
    /// result. The visited bits are kept across the start positions of
    /// one call: a pair that failed from an earlier start fails from a
    /// later one too, since only captures depend on the start.
    fn find_bitstate(&self, input: &[u8], start: usize, st: &mut BitState) -> Option<Match> {
        let prog = &self.prog;
        let len = input.len();
        // Positions `start..=len`, one row of bits per instruction.
        let width = len - start + 1;
        let n_bits = prog.insts.len() * width;
        st.visited.clear();
        st.visited.resize(n_bits.div_ceil(64), 0);
        st.caps.clear();
        st.caps.resize(2 * (prog.n_groups as usize + 1), None);
        st.jobs.clear();
        let BitState {
            visited,
            jobs,
            caps,
        } = st;
        let mut starts = Starts::new(prog, input);
        let mut from = start;
        let mut found = false;
        // dr-lint: hot(begin)
        'starts: while let Some(at) = starts.next(from) {
            jobs.push(Job::Explore { pc: 0, pos: at });
            while let Some(job) = jobs.pop() {
                let (mut pc, mut pos) = match job {
                    Job::Explore { pc, pos } => (pc, pos),
                    Job::Restore { slot, old } => {
                        caps[slot as usize] = old;
                        continue;
                    }
                };
                loop {
                    let bit = pc as usize * width + (pos - start);
                    let word = &mut visited[bit / 64];
                    let mask = 1u64 << (bit % 64);
                    if *word & mask != 0 {
                        break;
                    }
                    *word |= mask;
                    match &prog.insts[pc as usize] {
                        Inst::Byte(b) => {
                            if input.get(pos) != Some(b) {
                                break;
                            }
                            pos += 1;
                        }
                        Inst::Any => {
                            if input.get(pos).is_none_or(|&b| b == b'\n') {
                                break;
                            }
                            pos += 1;
                        }
                        Inst::Class(id) => {
                            let class = &prog.class_bits[*id as usize];
                            if !input.get(pos).is_some_and(|&b| class.test(b)) {
                                break;
                            }
                            pos += 1;
                        }
                        Inst::Split(a, b) => {
                            jobs.push(Job::Explore { pc: *b, pos });
                            pc = *a;
                            continue;
                        }
                        Inst::Jmp(t) => {
                            pc = *t;
                            continue;
                        }
                        Inst::Save(slot) => {
                            let slot = *slot;
                            let old = caps[slot as usize];
                            jobs.push(Job::Restore { slot, old });
                            caps[slot as usize] = Some(pos);
                        }
                        Inst::AssertStart => {
                            if pos != 0 {
                                break;
                            }
                        }
                        Inst::AssertEnd => {
                            if pos != len {
                                break;
                            }
                        }
                        Inst::Match => {
                            found = true;
                            break 'starts;
                        }
                    }
                    pc += 1;
                }
            }
            if at >= len {
                break;
            }
            from = at + 1;
        }
        // dr-lint: hot(end)
        if !found {
            return None;
        }
        match (caps[0], caps[1]) {
            (Some(s), Some(e)) => Some(Match {
                slots: caps.as_slice().into(),
                n_groups: prog.n_groups,
                start: s,
                end: e,
            }),
            // A match path always saved slot 0/1; treat anything else as
            // no match rather than panicking.
            _ => None,
        }
    }

    /// The Pike VM behind [`Regex::find_bytes_at_with`] for haystacks too
    /// long for BitState: prefiltered seeding, pooled copy-on-write
    /// capture slots.
    fn find_pike(&self, input: &[u8], start: usize, scratch: &mut MatchScratch) -> Option<Match> {
        let prog = &self.prog;
        let n_slots = 2 * (prog.n_groups as usize + 1);
        scratch.prepare(prog.insts.len(), n_slots);
        let MatchScratch {
            clist, nlist, pool, ..
        } = scratch;
        let len = input.len();
        let mut starts = Starts::new(prog, input);
        let mut matched: Option<u32> = None;
        let mut pos = start;

        clist.begin_step();
        loop {
            // dr-lint: hot(begin)
            // --- Seeding: decide whether a start thread at `pos` could
            // possibly reach Match; skip it otherwise. ---
            let mut seed = matched.is_none();
            if seed {
                match starts.next(pos) {
                    None => {
                        // No match can start at `pos` or later.
                        seed = false;
                        if clist.threads.is_empty() {
                            break;
                        }
                    }
                    Some(at) if at > pos => {
                        seed = false;
                        if clist.threads.is_empty() {
                            // Fast-forward to the next viable start.
                            pos = at;
                            seed = true;
                        }
                    }
                    Some(_) => {}
                }
            }
            if seed {
                let sid = pool.alloc_blank();
                add_thread(prog, clist, pool, 0, pos, len, sid);
            }
            if clist.threads.is_empty() && matched.is_some() {
                break;
            }

            // --- Step every thread over the byte at `pos`. ---
            nlist.begin_step();
            let byte = input.get(pos).copied();
            let tcount = clist.threads.len();
            let mut i = 0;
            while i < tcount {
                let (pc, sid) = clist.threads[i];
                match &prog.insts[pc as usize] {
                    Inst::Byte(b) => {
                        if byte == Some(*b) {
                            add_thread(prog, nlist, pool, pc + 1, pos + 1, len, sid);
                        } else {
                            pool.release(sid);
                        }
                    }
                    Inst::Any => {
                        if byte.is_some_and(|b| b != b'\n') {
                            add_thread(prog, nlist, pool, pc + 1, pos + 1, len, sid);
                        } else {
                            pool.release(sid);
                        }
                    }
                    Inst::Class(id) => {
                        if byte.is_some_and(|b| prog.class_bits[*id as usize].test(b)) {
                            add_thread(prog, nlist, pool, pc + 1, pos + 1, len, sid);
                        } else {
                            pool.release(sid);
                        }
                    }
                    Inst::Match => {
                        // Highest-priority match at this step: keep it,
                        // cut lower-priority threads.
                        if let Some(old) = matched.replace(sid) {
                            pool.release(old);
                        }
                        let mut j = i + 1;
                        while j < tcount {
                            pool.release(clist.threads[j].1);
                            j += 1;
                        }
                        break;
                    }
                    // Eps transitions were resolved by add_thread.
                    Inst::Split(..) | Inst::Jmp(..) | Inst::Save(..) | Inst::AssertStart
                    // dr-lint: allow(panic-reachability): add_thread resolves every eps inst
                    | Inst::AssertEnd => unreachable!("eps inst in stepped list"),
                }
                i += 1;
            }
            std::mem::swap(clist, nlist);
            if clist.threads.is_empty() && matched.is_some() {
                break;
            }
            if pos >= len {
                break;
            }
            pos += 1;
            // dr-lint: hot(end)
        }

        let sid = matched?;
        let (start, end) = match (pool.get(sid, 0), pool.get(sid, 1)) {
            (Some(s), Some(e)) => (s, e),
            // A match thread always saved slot 0/1; treat anything else
            // as no match rather than panicking.
            _ => return None,
        };
        Some(Match {
            slots: pool.snapshot(sid),
            n_groups: prog.n_groups,
            start,
            end,
        })
    }

    // -----------------------------------------------------------------
    // Baseline engine (pre-optimization), kept as differential oracle
    // -----------------------------------------------------------------

    /// Leftmost match over raw bytes starting at `start`, executed by the
    /// original per-call Pike VM: fresh thread lists and boxed capture
    /// slots every call, deep-cloned slots on every transition, linear
    /// class-range scans, a start thread seeded at every byte. Kept
    /// verbatim as the differential-test oracle and the benchmark's
    /// "pre" engine. Must behave identically to
    /// [`Regex::find_bytes_at_with`].
    pub fn find_bytes_at_baseline(&self, input: &[u8], start: usize) -> Option<Match> {
        let n_slots = 2 * (self.prog.n_groups as usize + 1);
        let mut clist = BaselineThreadList::new(self.prog.insts.len());
        let mut nlist = BaselineThreadList::new(self.prog.insts.len());
        let mut matched: Option<Slots> = None;

        clist.begin_step();
        for pos in start..=input.len() {
            // Seed a fresh start thread (lowest priority) unless a match
            // was already found — leftmost semantics.
            if matched.is_none() {
                let slots = vec![None; n_slots].into_boxed_slice();
                add_thread_baseline(&self.prog, &mut clist, 0, pos, input.len(), slots);
            }
            if clist.threads.is_empty() && matched.is_some() {
                break;
            }

            nlist.begin_step();
            let byte = input.get(pos).copied();
            // Iterate by index: list is already eps-closed.
            let mut i = 0;
            while i < clist.threads.len() {
                let (pc, ref slots) = clist.threads[i];
                match &self.prog.insts[pc as usize] {
                    Inst::Byte(b) => {
                        if byte == Some(*b) {
                            let s = slots.clone();
                            add_thread_baseline(
                                &self.prog,
                                &mut nlist,
                                pc + 1,
                                pos + 1,
                                input.len(),
                                s,
                            );
                        }
                    }
                    Inst::Any => {
                        if byte.is_some_and(|b| b != b'\n') {
                            let s = slots.clone();
                            add_thread_baseline(
                                &self.prog,
                                &mut nlist,
                                pc + 1,
                                pos + 1,
                                input.len(),
                                s,
                            );
                        }
                    }
                    Inst::Class(id) => {
                        if byte.is_some_and(|b| self.prog.classes[*id as usize].matches(b)) {
                            let s = slots.clone();
                            add_thread_baseline(
                                &self.prog,
                                &mut nlist,
                                pc + 1,
                                pos + 1,
                                input.len(),
                                s,
                            );
                        }
                    }
                    Inst::Match => {
                        matched = Some(slots.clone());
                        break;
                    }
                    Inst::Split(..) | Inst::Jmp(..) | Inst::Save(..) | Inst::AssertStart
                    // dr-lint: allow(panic-reachability): add_thread_baseline resolves every eps inst
                    | Inst::AssertEnd => unreachable!("eps inst in stepped list"),
                }
                i += 1;
            }
            std::mem::swap(&mut clist, &mut nlist);
            if clist.threads.is_empty() && matched.is_some() {
                break;
            }
        }

        matched.and_then(|slots| {
            let (start, end) = match (slots[0], slots[1]) {
                (Some(s), Some(e)) => (s, e),
                _ => return None,
            };
            Some(Match {
                slots,
                n_groups: self.prog.n_groups,
                start,
                end,
            })
        })
    }
}

// dr-lint: hot(begin)
/// Add `pc` to `list`, following epsilon transitions. `pos` is the current
/// input offset (for Save/anchors), `len` the input length. The caller's
/// reference to `sid` is consumed: it ends up owned by a queued thread,
/// or released.
fn add_thread(
    prog: &Program,
    list: &mut ThreadList,
    pool: &mut SlotPool,
    pc: u32,
    pos: usize,
    len: usize,
    sid: u32,
) {
    if list.seen[pc as usize] == list.stamp {
        pool.release(sid);
        return;
    }
    list.seen[pc as usize] = list.stamp;
    match &prog.insts[pc as usize] {
        Inst::Jmp(t) => add_thread(prog, list, pool, *t, pos, len, sid),
        Inst::Split(a, b) => {
            pool.retain(sid);
            add_thread(prog, list, pool, *a, pos, len, sid);
            add_thread(prog, list, pool, *b, pos, len, sid);
        }
        Inst::Save(slot) => {
            let nid = pool.with_slot_set(sid, *slot as usize, pos);
            add_thread(prog, list, pool, pc + 1, pos, len, nid);
        }
        Inst::AssertStart => {
            if pos == 0 {
                add_thread(prog, list, pool, pc + 1, pos, len, sid);
            } else {
                pool.release(sid);
            }
        }
        Inst::AssertEnd => {
            if pos == len {
                add_thread(prog, list, pool, pc + 1, pos, len, sid);
            } else {
                pool.release(sid);
            }
        }
        _ => list.threads.push((pc, sid)),
    }
}
// dr-lint: hot(end)

/// Baseline thread list: per-call allocation, boxed slots per thread.
struct BaselineThreadList {
    threads: Vec<(u32, Slots)>,
    seen: Vec<u32>,
    stamp: u32,
}

impl BaselineThreadList {
    fn new(n_insts: usize) -> Self {
        BaselineThreadList {
            threads: Vec::new(),
            seen: vec![0; n_insts],
            stamp: 0,
        }
    }

    fn begin_step(&mut self) {
        self.threads.clear();
        self.stamp += 1;
    }
}

/// Baseline epsilon closure: deep-clones `slots` at every `Split`.
fn add_thread_baseline(
    prog: &Program,
    list: &mut BaselineThreadList,
    pc: u32,
    pos: usize,
    len: usize,
    slots: Slots,
) {
    if list.seen[pc as usize] == list.stamp {
        return;
    }
    list.seen[pc as usize] = list.stamp;
    match &prog.insts[pc as usize] {
        Inst::Jmp(t) => add_thread_baseline(prog, list, *t, pos, len, slots),
        Inst::Split(a, b) => {
            add_thread_baseline(prog, list, *a, pos, len, slots.clone());
            add_thread_baseline(prog, list, *b, pos, len, slots);
        }
        Inst::Save(slot) => {
            let mut s = slots;
            s[*slot as usize] = Some(pos);
            add_thread_baseline(prog, list, pc + 1, pos, len, s);
        }
        Inst::AssertStart => {
            if pos == 0 {
                add_thread_baseline(prog, list, pc + 1, pos, len, slots);
            }
        }
        Inst::AssertEnd => {
            if pos == len {
                add_thread_baseline(prog, list, pc + 1, pos, len, slots);
            }
        }
        _ => list.threads.push((pc, slots)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pat: &str, text: &str) -> Option<(usize, usize)> {
        Regex::new(pat).unwrap().find(text).map(|m| m.span())
    }

    #[test]
    fn literals_and_any() {
        assert_eq!(m("abc", "xxabcxx"), Some((2, 5)));
        assert_eq!(m("a.c", "abc"), Some((0, 3)));
        assert_eq!(m("a.c", "a\nc"), None);
        assert_eq!(m("abc", "abd"), None);
    }

    #[test]
    fn anchors() {
        assert_eq!(m("^abc", "abcd"), Some((0, 3)));
        assert_eq!(m("^abc", "xabc"), None);
        assert_eq!(m("abc$", "xabc"), Some((1, 4)));
        assert_eq!(m("abc$", "abcx"), None);
        assert_eq!(m("^$", ""), Some((0, 0)));
    }

    #[test]
    fn quantifiers_are_greedy() {
        assert_eq!(m("a*", "aaab"), Some((0, 3)));
        assert_eq!(m("a+", "baaab"), Some((1, 4)));
        assert_eq!(m("a?b", "ab"), Some((0, 2)));
        assert_eq!(m("a?b", "b"), Some((0, 1)));
        assert_eq!(m("a+", "b"), None);
    }

    #[test]
    fn counted_repeats() {
        assert_eq!(m("a{3}", "aaaa"), Some((0, 3)));
        assert_eq!(m("a{3}", "aa"), None);
        assert_eq!(m("a{2,}", "aaaa"), Some((0, 4)));
        assert_eq!(m("a{1,3}", "aaaa"), Some((0, 3)));
        assert_eq!(m("\\d{4}-\\d{2}", "on 2024-05 we"), Some((3, 10)));
        // Malformed counted repeats are literal braces.
        assert_eq!(m("a{x}", "a{x}"), Some((0, 4)));
    }

    #[test]
    fn classes() {
        assert_eq!(m("[abc]+", "zzbcaz"), Some((2, 5)));
        assert_eq!(m("[a-f0-9]+", "xxdeadbeef99x"), Some((2, 12)));
        assert_eq!(m("[^0-9]+", "12ab34"), Some((2, 4)));
        assert_eq!(m("[]a]+", "]a]"), Some((0, 3)));
        assert_eq!(m("[a-]+", "a-a"), Some((0, 3)));
        assert_eq!(m("[\\d]+", "ab123"), Some((2, 5)));
    }

    #[test]
    fn escapes() {
        assert_eq!(m(r"\d+", "abc123def"), Some((3, 6)));
        assert_eq!(m(r"\w+", "  hi_there "), Some((2, 10)));
        assert_eq!(m(r"\s+", "ab  cd"), Some((2, 4)));
        assert_eq!(m(r"\D+", "12ab34"), Some((2, 4)));
        assert_eq!(m(r"a\.b", "a.b"), Some((0, 3)));
        assert_eq!(m(r"a\.b", "axb"), None);
        assert_eq!(m(r"\(x\)", "(x)"), Some((0, 3)));
    }

    #[test]
    fn alternation_prefers_leftmost() {
        assert_eq!(m("cat|dog", "hotdog"), Some((3, 6)));
        assert_eq!(m("ab|abc", "abc"), Some((0, 2))); // first branch wins
        assert_eq!(m("abc|ab", "abc"), Some((0, 3)));
        assert_eq!(m("(?:red|blue) fish", "one blue fish"), Some((4, 13)));
    }

    #[test]
    fn leftmost_beats_longer_later_match() {
        assert_eq!(m("a+", "baaa_aaaa"), Some((1, 4)));
    }

    #[test]
    fn capture_groups() {
        let re = Regex::new(r"(\d+)-(\d+)").unwrap();
        let mm = re.find("order 123-456 shipped").unwrap();
        assert_eq!(mm.span(), (6, 13));
        assert_eq!(mm.group("order 123-456 shipped", 1), Some("123"));
        assert_eq!(mm.group("order 123-456 shipped", 2), Some("456"));
        assert_eq!(mm.group_span(3), None);
        assert_eq!(re.group_count(), 2);
    }

    #[test]
    fn optional_group_not_participating() {
        let re = Regex::new(r"a(b)?c").unwrap();
        let mm = re.find("ac").unwrap();
        assert_eq!(mm.group_span(1), None);
        let mm = re.find("abc").unwrap();
        assert_eq!(mm.group("abc", 1), Some("b"));
    }

    #[test]
    fn nested_groups() {
        let re = Regex::new(r"((a+)(b+))c").unwrap();
        let text = "xaabbc";
        let mm = re.find(text).unwrap();
        assert_eq!(mm.group(text, 1), Some("aabb"));
        assert_eq!(mm.group(text, 2), Some("aa"));
        assert_eq!(mm.group(text, 3), Some("bb"));
    }

    #[test]
    fn greedy_group_captures_last_iteration() {
        let re = Regex::new(r"(a)+").unwrap();
        let mm = re.find("aaa").unwrap();
        assert_eq!(mm.span(), (0, 3));
        assert_eq!(mm.group("aaa", 1), Some("a"));
        assert_eq!(mm.group_span(1), Some((2, 3)));
    }

    #[test]
    fn pathological_pattern_is_linear() {
        // (a+)+b against a^40 kills a backtracker; the Pike VM shrugs.
        let re = Regex::new("(a+)+b").unwrap();
        let text = "a".repeat(40);
        assert!(re.find(&text).is_none());
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(Regex::new("(").is_err());
        assert!(Regex::new(")").is_err());
        assert!(Regex::new("[abc").is_err());
        assert!(Regex::new("*a").is_err());
        assert!(Regex::new(r"\q").is_err());
        assert!(Regex::new("a{3,1}").is_err());
        assert!(Regex::new("^*").is_err());
        let e = Regex::new("[z-a]").unwrap_err();
        assert!(e.message.contains("range"));
    }

    #[test]
    fn nvrm_line_pattern_works_end_to_end() {
        let re = Regex::new(
            r"NVRM: Xid \(PCI:([0-9a-f]+:[0-9a-f]+:[0-9a-f]+)\): (\d+), (.*)$",
        )
        .unwrap();
        let line = "Jan  2 03:04:05 gpub042 kernel: NVRM: Xid (PCI:0000:c1:00): 79, \
                    pid=2731, GPU has fallen off the bus.";
        let mm = re.find(line).unwrap();
        assert_eq!(mm.group(line, 1), Some("0000:c1:00"));
        assert_eq!(mm.group(line, 2), Some("79"));
        assert_eq!(mm.group(line, 3), Some("pid=2731, GPU has fallen off the bus."));
    }

    #[test]
    fn lazy_quantifiers_prefer_short_matches() {
        assert_eq!(m("a*?", "aaa"), Some((0, 0)));
        assert_eq!(m("a+?", "aaa"), Some((0, 1)));
        assert_eq!(m("a??b", "ab"), Some((0, 2)));
        assert_eq!(m("<.*?>", "<a><bb>"), Some((0, 3)));
        assert_eq!(m("<.*>", "<a><bb>"), Some((0, 7)));
        assert_eq!(m("a{1,3}?", "aaa"), Some((0, 1)));
        // Lazy still has to satisfy what follows.
        assert_eq!(m("a+?b", "aaab"), Some((0, 4)));
    }

    #[test]
    fn find_at_respects_caret_anchor() {
        let re = Regex::new("^ab").unwrap();
        assert!(re.find_bytes_at(b"abab", 0).is_some());
        // Starting the scan later must not re-anchor ^ to the offset.
        assert!(re.find_bytes_at(b"abab", 2).is_none());
        assert!(re.find_bytes_at_baseline(b"abab", 2).is_none());
    }

    #[test]
    fn scratch_is_reusable_across_finds_and_patterns() {
        let re1 = Regex::new(r"(\d+)-(\d+)").unwrap();
        let re2 = Regex::new(r"[a-z]+").unwrap();
        let mut scratch = MatchScratch::new();
        for _ in 0..3 {
            let mm = re1.find_with("order 123-456 shipped", &mut scratch).unwrap();
            assert_eq!(mm.span(), (6, 13));
            assert_eq!(mm.group("order 123-456 shipped", 1), Some("123"));
            let mm = re2.find_with("99 bottles", &mut scratch).unwrap();
            assert_eq!(mm.span(), (3, 10));
            assert!(re1.find_with("7-8", &mut scratch).is_some());
            assert!(re1.find_with("no digits here", &mut scratch).is_none());
        }
    }

    #[test]
    fn analysis_finds_required_literal() {
        // Long leading literal, window [0, 0].
        let re = Regex::new(r"kernel: NVRM: Xid \(PCI:([0-9a-f]+)\): (\d+)").unwrap();
        let rl = re.prog.analysis.required.as_ref().unwrap();
        assert_eq!(rl.bytes, b"kernel: NVRM: Xid (PCI:".to_vec());
        assert_eq!((rl.min_off, rl.max_off), (0, Some(0)));
        assert!(!re.prog.analysis.anchored_start);

        // Variable-width prefix: window present but shifted.
        let re = Regex::new(r"\d{1,3} gpub(\d+)").unwrap();
        let rl = re.prog.analysis.required.as_ref().unwrap();
        assert_eq!(rl.bytes, b" gpub".to_vec());
        assert_eq!((rl.min_off, rl.max_off), (1, Some(3)));

        // Unbounded prefix: min offset only.
        let re = Regex::new(r"\d+ gpub(\d+)").unwrap();
        let rl = re.prog.analysis.required.as_ref().unwrap();
        assert_eq!(rl.bytes, b" gpub".to_vec());
        assert_eq!((rl.min_off, rl.max_off), (1, None));

        // Alternation contributes no required literal.
        let re = Regex::new(r"cat|dog").unwrap();
        assert!(re.prog.analysis.required.is_none());

        // Anchored-start detection.
        assert!(Regex::new(r"^gpub\d+").unwrap().prog.analysis.anchored_start);
        assert!(Regex::new(r"(?:^a)+x").unwrap().prog.analysis.anchored_start);
        assert!(!Regex::new(r"a^b").unwrap().prog.analysis.anchored_start);
        assert!(!Regex::new(r"(?:^a)*x").unwrap().prog.analysis.anchored_start);
    }

    #[test]
    fn prefilter_rejects_and_skips_correctly() {
        let re = Regex::new(r"NVRM: Xid \((\w+)\)").unwrap();
        // Literal absent: must reject without matching.
        assert!(re.find("a long line about nothing in particular").is_none());
        // Literal deep in the line: match found at the right offset.
        let line = "x".repeat(100) + "NVRM: Xid (foo) trailer";
        let mm = re.find(&line).unwrap();
        assert_eq!(mm.span().0, 100);
        // Several occurrences; first viable one wins (leftmost).
        let line = "NVRM: Xid (} NVRM: Xid (ok)";
        let mm = re.find(line).unwrap();
        assert_eq!(mm.group(line, 1), Some("ok"));
    }

    #[test]
    fn optimized_agrees_with_baseline_on_tricky_cases() {
        let cases: &[(&str, &str)] = &[
            ("a*", ""),
            ("a*", "aaa"),
            ("", "abc"),
            ("^", "abc"),
            ("$", "abc"),
            ("(a*)(a*)", "aaa"),
            ("(a|ab)(c|bcd)", "abcd"),
            ("x*y", "xxxz"),
            ("ab", "ab"),
            ("(b)?", "ab"),
            ("a{2,4}", "aaaaa"),
            ("gpub(\\d+)", "Jan  2 03:04:05 gpub042 kernel: hi"),
            ("^gpub", "gpubgpub"),
        ];
        let mut scratch = MatchScratch::new();
        for (pat, text) in cases {
            let re = Regex::new(pat).unwrap();
            for start in 0..=text.len() {
                let fast = re.find_bytes_at_with(text.as_bytes(), start, &mut scratch);
                let slow = re.find_bytes_at_baseline(text.as_bytes(), start);
                assert_eq!(
                    fast.as_ref().map(|m| m.span()),
                    slow.as_ref().map(|m| m.span()),
                    "span mismatch: {pat:?} on {text:?} at {start}"
                );
                assert_eq!(fast, slow, "capture mismatch: {pat:?} on {text:?} at {start}");
            }
            assert_eq!(
                re.find(text).is_some(),
                re.find_bytes_at_baseline(text.as_bytes(), 0).is_some(),
                "match mismatch: {pat:?} on {text:?}"
            );
        }
    }

    /// Brute-force reference matcher for a restricted AST (no captures),
    /// used to cross-check the production find path on random inputs.
    mod reference {
        /// Does `pat` match some prefix of `text` starting at 0? Returns
        /// all possible end offsets (the backtracking closure).
        pub fn ends(pat: &[Tok], text: &[u8]) -> Vec<usize> {
            match pat.split_first() {
                None => vec![0],
                Some((tok, rest)) => {
                    let mut out = Vec::new();
                    match tok {
                        Tok::Byte(b) => {
                            if text.first() == Some(b) {
                                for e in ends(rest, &text[1..]) {
                                    out.push(e + 1);
                                }
                            }
                        }
                        Tok::Star(b) => {
                            let mut k = 0;
                            loop {
                                for e in ends(rest, &text[k..]) {
                                    out.push(e + k);
                                }
                                if text.get(k) == Some(b) {
                                    k += 1;
                                } else {
                                    break;
                                }
                            }
                        }
                    }
                    out.sort_unstable();
                    out.dedup();
                    out
                }
            }
        }

        #[derive(Clone, Copy, Debug)]
        pub enum Tok {
            Byte(u8),
            Star(u8),
        }

        /// Unanchored reference match.
        pub fn is_match(pat: &[Tok], text: &[u8]) -> bool {
            (0..=text.len()).any(|i| !ends(pat, &text[i..]).is_empty())
        }
    }

    proptest::proptest! {
        /// The production find path agrees with a brute-force backtracker
        /// on random patterns built from literals and starred literals
        /// over {a, b}.
        #[test]
        fn vm_agrees_with_reference(
            toks in proptest::collection::vec((0..2u8, proptest::bool::ANY), 1..8),
            text in proptest::collection::vec(0..2u8, 0..12),
        ) {
            use reference::Tok;
            let mut pattern = String::new();
            let mut ref_pat = Vec::new();
            for (byte, star) in &toks {
                let ch = (b'a' + byte) as char;
                pattern.push(ch);
                if *star {
                    pattern.push('*');
                    ref_pat.push(Tok::Star(b'a' + byte));
                } else {
                    ref_pat.push(Tok::Byte(b'a' + byte));
                }
            }
            let text: Vec<u8> = text.iter().map(|b| b'a' + b).collect();
            let text_str = String::from_utf8(text.clone()).unwrap();
            let re = Regex::new(&pattern).unwrap();
            proptest::prop_assert_eq!(
                re.find(&text_str).is_some(),
                reference::is_match(&ref_pat, &text),
                "pattern {} on {:?}", pattern, text_str
            );
        }
    }

    #[test]
    fn empty_pattern_matches_empty_prefix() {
        assert_eq!(m("", "abc"), Some((0, 0)));
        assert_eq!(m("x*", "abc"), Some((0, 0)));
    }

    // -----------------------------------------------------------------
    // Three-engine differential: BitState, the Pike VM and the baseline
    // -----------------------------------------------------------------

    /// SplitMix64, so one proptest seed drives a whole batch of cases.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
            &xs[self.below(xs.len())]
        }
    }

    /// BitState, the Pike VM, the baseline VM and the dispatching front
    /// door return the same `Option<Match>` (overall span and every
    /// capture slot) at every start offset of `hay`.
    fn engines_agree(re: &Regex, hay: &[u8], scratch: &mut MatchScratch) {
        for start in 0..=hay.len() {
            let base = re.find_bytes_at_baseline(hay, start);
            let bits = re.find_bitstate(hay, start, &mut scratch.bits);
            let pike = re.find_pike(hay, start, scratch);
            let front = re.find_bytes_at_with(hay, start, scratch);
            let hay_text = String::from_utf8_lossy(hay);
            let ctx = || format!("{:?} on {hay_text:?} at {start}", re.pattern());
            assert_eq!(bits, base, "BitState vs baseline: {}", ctx());
            assert_eq!(pike, base, "Pike VM vs baseline: {}", ctx());
            assert_eq!(front, base, "find_bytes_at_with vs baseline: {}", ctx());
        }
    }

    /// Patterns whose priorities the engines could plausibly get wrong.
    const TRICKY: &[&str] = &[
        "(a*)*", "(a|)+", "(?:)*", "(a*)+b", "(a*?)*", "((a)|b)+", "(?:(a)|b)*",
        "ab|abc", "abc|ab", "(a|ab)(c|bcd)(d*)", "(a+?)(a*)", "(a??)(a*)", "(a*?)(a+?)$",
        "(^a|b$)", "(?:^|b)(a*?)$", "(a|^)(b|$)", "(^)*a", "($)+", "(a{2,}?)(a{0,2})",
        "(a{0,3}){2}", "((?:a|)*)b", "(.*?)(a|b)$", "(?:(a)|(b)|)+c",
    ];

    /// A random pattern over `{a, b, c}`: lazy and greedy quantifiers,
    /// counted repeats, loops that can match empty, anchors inside groups
    /// and alternations, and prioritized alternation.
    fn gen_pattern(rng: &mut Mix, depth: usize) -> String {
        let atoms = ["a", "b", "c", "", ".", "[ab]", "[^a]", r"\d", "^", "$", "(?:)"];
        let quants = [
            "", "", "", "*", "+", "?", "*?", "+?", "??", "{2}", "{0,2}", "{1,3}?", "{2,}",
        ];
        let mut out = String::new();
        for _ in 0..1 + rng.below(3) {
            let mut piece = if depth > 0 && rng.below(3) == 0 {
                let inner = gen_pattern(rng, depth - 1);
                match rng.below(4) {
                    0 => format!("({inner})"),
                    1 => format!("(?:{inner})"),
                    2 => format!("({inner}|{})", gen_pattern(rng, depth - 1)),
                    _ => format!("(?:{inner}|)"),
                }
            } else {
                (*rng.pick(&atoms)).to_string()
            };
            // Anchors and the empty atom cannot take a quantifier bare.
            if !matches!(piece.as_str(), "^" | "$" | "") {
                piece.push_str(*rng.pick(&quants));
            }
            out.push_str(&piece);
        }
        if rng.below(4) == 0 {
            out = format!("{out}|{}", gen_pattern(rng, depth.saturating_sub(1)));
        }
        out
    }

    fn gen_haystack(rng: &mut Mix) -> Vec<u8> {
        (0..rng.below(12)).map(|_| *rng.pick(b"aaabbc1\n")).collect()
    }

    #[test]
    fn tricky_patterns_agree_across_engines() {
        let mut rng = Mix(7);
        let mut scratch = MatchScratch::new();
        for pat in TRICKY {
            let re = Regex::new(pat).unwrap();
            for hay in ["", "a", "aa", "ab", "abc", "abcd", "aab", "ba", "bab", "aaac"] {
                engines_agree(&re, hay.as_bytes(), &mut scratch);
            }
            for _ in 0..20 {
                engines_agree(&re, &gen_haystack(&mut rng), &mut scratch);
            }
        }
    }

    /// The production patterns: the syslog header, the NVRM envelope and
    /// the 14 body patterns, as the extractor's modules declare them.
    fn production_patterns() -> Vec<&'static str> {
        let mut pats = vec![crate::syslog::HEADER_PATTERN, crate::extract::NVRM_PATTERN];
        pats.extend(crate::extract::body_pattern_table().into_iter().map(|(_, p, ..)| p));
        pats
    }

    /// A valid XID report line for `xid`, then up to three mutations:
    /// byte runs spliced in (envelope tokens, digits, hex, non-ASCII),
    /// deletions, duplicated spans, and truncation.
    fn mutated_xid_line(rng: &mut Mix) -> String {
        use dr_xid::time::Duration;
        use dr_xid::{ErrorDetail, ErrorRecord, GpuId, NodeId, Timestamp, Xid};
        let xid = *rng.pick(&Xid::ALL);
        let rec = ErrorRecord::new(
            Timestamp::EPOCH + Duration::from_secs(rng.next() % 50_000_000),
            GpuId::at_slot(NodeId(rng.below(300) as u32), rng.below(8)),
            xid,
            ErrorDetail::new(rng.next() as u16, rng.next() as u32),
        );
        let mut line = dr_xid::syslog::format_line(&rec, rng.below(3) as u32 * 4242);
        let tokens = [
            "pid='<unknown>', ", "pid=<unknown>, ", "pid=, ", ", , ", "PCI:", "0000:", "):",
            "9", "70000", "ffff", "C1", "é", "\u{1F4A9}", "$", "(", ")", "'", "<", ">",
        ];
        for _ in 0..rng.below(4) {
            let at = rng.below(line.len() + 1);
            let at = (0..=at).rev().find(|&i| line.is_char_boundary(i)).unwrap_or(0);
            match rng.below(4) {
                0 | 1 => line.insert_str(at, *rng.pick(&tokens)),
                2 => {
                    let end = (at + 1 + rng.below(6)).min(line.len());
                    if let Some(cut) = line.get(at..end).map(str::to_string) {
                        line.replace_range(at..end, if rng.below(2) == 0 { "" } else { &cut });
                        if rng.below(2) == 0 {
                            line.insert_str(at, &cut);
                        }
                    }
                }
                _ => line.truncate(at),
            }
        }
        line
    }

    proptest::proptest! {
        /// Generated patterns × short haystacks: all engines agree.
        #[test]
        fn generated_patterns_agree_across_engines(seed in proptest::prelude::any::<u64>()) {
            let mut rng = Mix(seed);
            let mut scratch = MatchScratch::new();
            for _ in 0..6 {
                let pat = gen_pattern(&mut rng, 2);
                // The grammar only builds valid patterns.
                let re = Regex::new(&pat).unwrap_or_else(|e| panic!("{pat:?}: {e}"));
                for _ in 0..5 {
                    engines_agree(&re, &gen_haystack(&mut rng), &mut scratch);
                }
            }
        }

        /// Production patterns × mutated XID lines, on the whole line and
        /// on the body after the header, as the extractor runs them.
        #[test]
        fn production_patterns_agree_on_mutated_xid_lines(seed in proptest::prelude::any::<u64>()) {
            let mut rng = Mix(seed);
            let mut scratch = MatchScratch::new();
            let line = mutated_xid_line(&mut rng);
            let body = line.find("kernel: ").map_or("", |i| &line[i..]);
            for pat in production_patterns() {
                let re = Regex::new(pat).unwrap();
                engines_agree(&re, line.as_bytes(), &mut scratch);
                engines_agree(&re, body.as_bytes(), &mut scratch);
            }
        }
    }

    #[test]
    fn dispatch_switches_engines_at_the_bit_limit() {
        let re = Regex::new(crate::extract::NVRM_PATTERN).unwrap();
        // The longest haystack (after the start offset) BitState takes.
        let max_rest = BITSTATE_MAX_BITS / re.prog.insts.len() - 1;
        let body = "kernel: NVRM: Xid (PCI:0000:0f:00): 95, pid='<unknown>', Uncontained: ";
        for len in [max_rest - 1, max_rest, max_rest + 1, max_rest + 2] {
            let hay = format!("{body}{}", "x".repeat(len - body.len()));
            let hay = hay.as_bytes();
            for start in [0, 1, 2] {
                let bitstate = hay.len() - start <= max_rest;
                assert_eq!(re.fits_bitstate(hay.len() - start), bitstate);
                // A fresh scratch shows which engine ran.
                let mut scratch = MatchScratch::new();
                let got = re.find_bytes_at_with(hay, start, &mut scratch);
                assert_eq!(!scratch.bits.visited.is_empty(), bitstate, "len {len} start {start}");
                assert_eq!(scratch.clist.seen.is_empty(), bitstate, "len {len} start {start}");
                assert_eq!(got, re.find_bytes_at_baseline(hay, start));
                assert_eq!(got, re.find_pike(hay, start, &mut MatchScratch::new()));
                assert_eq!(got, re.find_bitstate(hay, start, &mut BitState::default()));
                // Only the start-0 haystack holds the envelope.
                assert_eq!(got.map(|m| m.span()), (start == 0).then_some((0, hay.len())));
            }
        }
    }
}
