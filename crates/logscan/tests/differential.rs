//! Differential tests pinning the optimized Stage I fast paths to their
//! original implementations:
//!
//! - the prefiltered, scratch-reusing front door (`find_bytes_at_with`)
//!   vs the plain per-call Pike VM (`find_bytes_at_baseline`), over
//!   generated patterns × syslog-ish inputs, comparing full matches
//!   (overall span plus every capture-group span) at every start offset.
//!   These inputs are at most 64 bytes, well inside BitState's bit limit,
//!   so this pins the bounded backtracker (BitState), not the scratch Pike
//!   VM; `regex.rs`'s unit tests compare all three engines and cover both
//!   sides of the limit;
//! - the byte-level syslog header decoder vs the regex oracle
//!   (`parse_header_oracle`), over well-formed headers, near-misses, and
//!   random mutations.
//!
//! Each property exists twice: a `proptest` version (shrinking, broader
//! exploration under `cargo test`) and a deterministic plain `#[test]`
//! version driven by an inline SplitMix64 generator, so the differential
//! coverage runs even in environments where proptest is unavailable.

use dr_logscan::regex::{MatchScratch, Regex};
use dr_logscan::syslog::{parse_header, parse_header_oracle};
use proptest::prelude::*;

/// Minimal deterministic PRNG (SplitMix64) so the plain tests need no
/// external crates.
struct Rng(u64);

impl Rng {
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

/// Generate a random valid pattern from a small grammar covering the
/// constructs the XID pattern set uses: literals, escapes, classes,
/// anchors, alternation, groups, and greedy quantifiers (including
/// empty-match-capable ones like `a*`).
fn gen_pattern(rng: &mut Rng, depth: usize) -> String {
    let atoms = [
        "a", "b", "g", "p", "u", "1", "7", ":", " ", r"\d", r"\w", r"\s", r"\D",
        "[a-z]", "[0-9a-f]", "[^x]", r"\(", r"\.", ".",
    ];
    let mut out = String::new();
    let n = 1 + rng.below(4);
    for _ in 0..n {
        let mut piece = if depth > 0 && rng.below(5) == 0 {
            // Grouped subpattern, possibly an alternation.
            let inner = gen_pattern(rng, depth - 1);
            match rng.below(3) {
                0 => format!("({inner})"),
                1 => format!("(?:{inner})"),
                _ => {
                    let other = gen_pattern(rng, depth - 1);
                    format!("(?:{inner}|{other})")
                }
            }
        } else {
            (*rng.pick(&atoms)).to_string()
        };
        match rng.below(8) {
            0 => piece.push('*'),
            1 => piece.push('+'),
            2 => piece.push('?'),
            3 => piece.push_str("{1,3}"),
            _ => {}
        }
        out.push_str(&piece);
    }
    // Occasionally anchor one or both ends.
    if rng.below(4) == 0 {
        out.insert(0, '^');
    }
    if rng.below(4) == 0 {
        out.push('$');
    }
    out
}

/// Generate syslog-ish haystacks: fragments of real-looking log lines
/// glued with random separators, so literal prefilters sometimes hit,
/// sometimes near-miss.
fn gen_input(rng: &mut Rng) -> String {
    let frags = [
        "Jan  2 03:04:05 ",
        "gpub042 ",
        "kernel: NVRM: Xid (PCI:0000:c1:00): 79, ",
        "pid=1, ",
        "GPU has fallen off the bus.",
        "aaab",
        "ab",
        "",
        "7 gpub7",
        "0x1f",
        " ",
        "::",
        "xyzzy",
    ];
    let mut out = String::new();
    for _ in 0..rng.below(5) {
        out.push_str(*rng.pick(&frags));
    }
    out.truncate(64);
    out
}

/// Full-match equality (overall span plus every capture group) between
/// the optimized engine and the baseline VM, at one start offset.
fn assert_engines_agree(re: &Regex, pat: &str, input: &str, scratch: &mut MatchScratch) {
    let bytes = input.as_bytes();
    for start in 0..=bytes.len() {
        let fast = re.find_bytes_at_with(bytes, start, scratch);
        let base = re.find_bytes_at_baseline(bytes, start);
        match (&fast, &base) {
            (None, None) => {}
            (Some(f), Some(b)) => {
                assert_eq!(
                    f.span(),
                    b.span(),
                    "span divergence: pattern {pat:?} input {input:?} start {start}"
                );
                for g in 0..=re.group_count() as usize {
                    assert_eq!(
                        f.group_span(g),
                        b.group_span(g),
                        "group {g} divergence: pattern {pat:?} input {input:?} start {start}"
                    );
                }
            }
            _ => panic!(
                "match/no-match divergence: pattern {pat:?} input {input:?} start {start}: \
                 fast={fast:?} base={base:?}"
            ),
        }
        if start == 0 {
            assert_eq!(
                re.find(input).is_some(),
                base.is_some(),
                "find divergence: pattern {pat:?} input {input:?}"
            );
        }
    }
}

#[test]
fn engine_matches_baseline_on_generated_patterns() {
    let mut rng = Rng(0x5eed_cafe);
    let mut scratch = MatchScratch::new();
    let mut compiled = 0;
    for _ in 0..300 {
        let pat = gen_pattern(&mut rng, 2);
        let Ok(re) = Regex::new(&pat) else { continue };
        compiled += 1;
        for _ in 0..8 {
            let input = gen_input(&mut rng);
            assert_engines_agree(&re, &pat, &input, &mut scratch);
        }
    }
    // The grammar builds valid patterns by construction; make sure the
    // test did not silently degenerate.
    assert!(compiled >= 250, "only {compiled} of 300 patterns compiled");
}

#[test]
fn engine_matches_baseline_on_stage1_patterns() {
    // The exact production patterns, against inputs that hit, near-miss,
    // and miss their required literals.
    let patterns = [
        r"kernel: NVRM: Xid \(PCI:([0-9a-f]{4}:[0-9a-f]{2}:[0-9a-f]{2})\): (\d+), (?:pid=('?<?\w+>?'?), )?(.*)$",
        r"^([A-Z][a-z][a-z]) +(\d{1,2}) (\d{2}):(\d{2}):(\d{2}) gpub(\d+) (.*)$",
        r"GPCCLIENT_T1_(\d+) faulted @ 0x7f_([0-9a-f]+)",
        r"\(DBE\) has been detected on bank (\d+) row 0x([0-9a-f]+)",
        r"NVLink: fatal error detected on link (\d+) \(0x([0-9a-f]+),",
        r"GPU has fallen off the bus",
        r"RPC response from GPU(\d+) GSP! Expected function (\d+)",
    ];
    let inputs = [
        "Jan  2 03:04:05 gpub042 kernel: NVRM: Xid (PCI:0000:c1:00): 79, pid=1, GPU has fallen off the bus.",
        "kernel: NVRM: Xid (PCI:0000:c1:00): 63, pid='<unknown>', Row Remapper: remapping row 0x1f in bank 2",
        "kernel: NVRM: Xid (PCI:zzzz:c1:00): 63, x",
        "NVLink: fatal error detected on link 3 (0x4a,",
        "RPC response from GPU7 GSP! Expected function 76",
        "GPU has fallen off the busGPU has fallen off the bus",
        "kernel: NVRM: Xid",
        "",
        "completely unrelated noise line without the literal",
    ];
    let mut scratch = MatchScratch::new();
    for pat in patterns {
        let re = Regex::new(pat).unwrap();
        for input in inputs {
            assert_engines_agree(&re, pat, input, &mut scratch);
        }
    }
}

/// A structurally valid header the mutation tests start from.
fn gen_headerish(rng: &mut Rng) -> String {
    let months = [
        "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct",
        "Nov", "Dec", "Jxn", "jan", "JAN", "Xyz",
    ];
    let hosts = ["gpub042", "gpub7", "gpub", "gpua042", "loginnode", "gpub99999999999"];
    let bodies = ["kernel: hello", "", "x", "body with\nnewline"];
    let day = rng.below(135); // 0..135: in-range, out-of-range, 3-digit
    let sep = if rng.below(3) == 0 { " " } else { "  " };
    format!(
        "{m}{sep}{day} {h:02}:{mi:02}:{s:02} {host} {body}",
        m = rng.pick(&months),
        h = rng.below(30),
        mi = rng.below(70),
        s = rng.below(70),
        host = rng.pick(&hosts),
        body = rng.pick(&bodies),
    )
}

#[test]
fn header_parser_matches_oracle_on_generated_headers() {
    let mut rng = Rng(0xfeed_f00d);
    let mut accepted = 0;
    for _ in 0..2000 {
        let mut line = gen_headerish(&mut rng);
        // Half the time, corrupt one byte to probe near-miss rejection.
        if rng.below(2) == 0 && !line.is_empty() {
            let i = rng.below(line.len());
            if line.is_char_boundary(i) && line.is_char_boundary(i + 1) {
                let b = b" 0:gxQ\n"[rng.below(7)];
                line.replace_range(i..i + 1, std::str::from_utf8(&[b]).unwrap());
            }
        }
        let fast = parse_header(&line);
        let oracle = parse_header_oracle(&line);
        assert_eq!(fast, oracle, "divergence on {line:?}");
        if fast.is_some() {
            accepted += 1;
        }
    }
    // Sanity: the generator must exercise both accept and reject paths.
    assert!(accepted > 100, "only {accepted} of 2000 headers accepted");
}

// ---------------------------------------------------------------------------
// proptest versions: broader exploration + shrinking under `cargo test`.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn prop_engine_matches_baseline(
        seed in any::<u64>(),
        input in "[ -~]{0,48}",
    ) {
        let mut rng = Rng(seed);
        let pat = gen_pattern(&mut rng, 2);
        if let Ok(re) = Regex::new(&pat) {
            let mut scratch = MatchScratch::new();
            assert_engines_agree(&re, &pat, &input, &mut scratch);
        }
    }

    #[test]
    fn prop_header_parser_matches_oracle(line in "[ -~\n]{0,64}") {
        prop_assert_eq!(parse_header(&line), parse_header_oracle(&line));
    }

    #[test]
    fn prop_header_parser_accepts_well_formed(
        day in 1u8..=28,
        hour in 0u8..=23,
        minute in 0u8..=59,
        second in 0u8..=59,
        host in 0u32..=9999,
        body in "[ -~]{0,32}",
    ) {
        let line = format!(
            "Mar {day:>2} {hour:02}:{minute:02}:{second:02} gpub{host} {body}"
        );
        let h = parse_header(&line);
        prop_assert_eq!(h, parse_header_oracle(&line));
        let h = h.expect("well-formed header must parse");
        prop_assert!(h.time_fields_valid());
        prop_assert_eq!(h.host, host);
    }
}
