//! Lexed source files, `#[cfg(test)]` region detection, and the
//! in-source allow-comment grammar.
//!
//! Allow comments the linter recognizes:
//!
//! ```text
//! // dr-lint: allow(<lint-id>): reason            (this line and the next)
//! // dr-lint: allow-file(<lint-id>): reason       (the whole file)
//! ```
//!
//! The reason clause is required by convention, not by the parser — the
//! annotation is the audit trail for why a forbidden construct is safe
//! here.

use crate::lexer::{lex, Token, TokenKind};
use std::collections::BTreeSet;

/// One lexed file plus lint-relevant structure.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    pub text: String,
    pub tokens: Vec<Token>,
    /// Inclusive token-index ranges covered by `#[cfg(test)]` / `#[test]`
    /// items.
    test_regions: Vec<(usize, usize)>,
    allow_file: BTreeSet<String>,
    /// (lint id, line) pairs granted by same/next-line allow comments.
    allow_lines: BTreeSet<(String, u32)>,
}

impl SourceFile {
    pub fn new(path: impl Into<String>, text: impl Into<String>) -> SourceFile {
        let path = path.into();
        let text = text.into();
        let tokens = lex(&text);
        let test_regions = find_test_regions(&tokens, &text);
        let (allow_file, allow_lines) = parse_allow_comments(&tokens, &text);
        SourceFile {
            path,
            text,
            tokens,
            test_regions,
            allow_file,
            allow_lines,
        }
    }

    pub fn tok_text(&self, t: &Token) -> &str {
        t.text(&self.text)
    }

    /// Whether the token at `idx` is inside test-only code.
    pub fn in_test_region(&self, idx: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(lo, hi)| lo <= idx && idx <= hi)
    }

    /// Whether a diagnostic of `lint` at `line` is waived by an allow
    /// comment.
    pub fn is_allowed(&self, lint: &str, line: u32) -> bool {
        self.allow_file.contains(lint) || self.allow_lines.contains(&(lint.to_string(), line))
    }
}

/// Find items annotated `#[cfg(test)]` or `#[test]` and return the token
/// ranges they span (attribute through closing brace/semicolon).
fn find_test_regions(tokens: &[Token], text: &str) -> Vec<(usize, usize)> {
    // Work on the comment-free view, mapping back to full-token indices.
    let sig: Vec<usize> = (0..tokens.len())
        .filter(|&i| tokens[i].kind != TokenKind::Comment)
        .collect();
    let t = |k: usize| -> &str {
        sig.get(k).map_or("", |&i| tokens[i].text(text))
    };

    let mut regions = Vec::new();
    let mut k = 0;
    while k < sig.len() {
        let is_attr = t(k) == "#" && t(k + 1) == "[";
        let is_test_attr = is_attr
            && ((t(k + 2) == "cfg" && t(k + 3) == "(" && t(k + 4) == "test")
                || (t(k + 2) == "test" && t(k + 3) == "]"));
        if !is_test_attr {
            k += 1;
            continue;
        }
        let region_start = sig[k];
        let mut j = skip_attribute(&sig, tokens, text, k);
        // Further attributes on the same item (e.g. `#[should_panic]`).
        while t_at(&sig, tokens, text, j) == "#" && t_at(&sig, tokens, text, j + 1) == "[" {
            j = skip_attribute(&sig, tokens, text, j);
        }
        let end = skip_item(&sig, tokens, text, j);
        let region_end = if end > 0 && end <= sig.len() {
            sig[end - 1]
        } else {
            *sig.last().unwrap_or(&region_start)
        };
        regions.push((region_start, region_end));
        k = end;
    }
    regions
}

fn t_at<'a>(sig: &[usize], tokens: &[Token], text: &'a str, k: usize) -> &'a str {
    sig.get(k).map_or("", |&i| tokens[i].text(text))
}

/// From the index of a `#`, step past the matching `]`.
fn skip_attribute(sig: &[usize], tokens: &[Token], text: &str, k: usize) -> usize {
    let mut j = k + 1; // at '['
    let mut depth = 0i32;
    while j < sig.len() {
        match t_at(sig, tokens, text, j) {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    sig.len()
}

/// Step past one item: to the `;` that ends it, or past the matching `}`
/// of its body.
fn skip_item(sig: &[usize], tokens: &[Token], text: &str, k: usize) -> usize {
    let mut j = k;
    let mut depth = 0i32;
    while j < sig.len() {
        match t_at(sig, tokens, text, j) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" => {
                let mut braces = 0i32;
                while j < sig.len() {
                    match t_at(sig, tokens, text, j) {
                        "{" => braces += 1,
                        "}" => {
                            braces -= 1;
                            if braces == 0 {
                                return j + 1;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                return sig.len();
            }
            ";" if depth <= 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    sig.len()
}

fn parse_allow_comments(
    tokens: &[Token],
    text: &str,
) -> (BTreeSet<String>, BTreeSet<(String, u32)>) {
    let mut allow_file = BTreeSet::new();
    let mut allow_lines = BTreeSet::new();
    for tok in tokens.iter().filter(|t| t.kind == TokenKind::Comment) {
        let body = tok.text(text);
        let Some(pos) = body.find("dr-lint:") else {
            continue;
        };
        let rest = body[pos + "dr-lint:".len()..].trim_start();
        if let Some(arg) = rest.strip_prefix("allow-file(") {
            if let Some(id) = arg.split(')').next() {
                allow_file.insert(id.trim().to_string());
            }
        } else if let Some(arg) = rest.strip_prefix("allow(") {
            if let Some(id) = arg.split(')').next() {
                let id = id.trim().to_string();
                allow_lines.insert((id.clone(), tok.line));
                allow_lines.insert((id, tok.line + 1));
            }
        }
    }
    (allow_file, allow_lines)
}

/// All lintable sources of a workspace, plus root metadata.
#[derive(Clone, Debug)]
pub struct Workspace {
    pub files: Vec<SourceFile>,
    /// Shipped `.scn` scenario files as `(workspace-relative path, text)`.
    /// Carried separately from `files` so the Rust lexer and the Rust
    /// passes never see them; only `scenario-hygiene` reads this.
    pub scenarios: Vec<(String, String)>,
}

impl Workspace {
    pub fn from_files(files: Vec<SourceFile>) -> Workspace {
        Workspace {
            files,
            scenarios: Vec::new(),
        }
    }

    /// Attach shipped `.scn` scenarios (see [`Workspace::scenarios`]).
    pub fn with_scenarios(mut self, scenarios: Vec<(String, String)>) -> Workspace {
        self.scenarios = scenarios;
        self
    }

    /// Exact-path lookup (paths are workspace-relative).
    pub fn file(&self, path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.path == path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::TokenKind;

    fn idents_outside_tests(f: &SourceFile) -> Vec<String> {
        f.tokens
            .iter()
            .enumerate()
            .filter(|(i, t)| t.kind == TokenKind::Ident && !f.in_test_region(*i))
            .map(|(_, t)| f.tok_text(t).to_string())
            .collect()
    }

    #[test]
    fn cfg_test_mod_is_a_test_region() {
        let f = SourceFile::new(
            "x.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn inner() { hidden(); }\n}\nfn after() {}\n",
        );
        let ids = idents_outside_tests(&f);
        assert!(ids.contains(&"live".to_string()));
        assert!(ids.contains(&"after".to_string()));
        assert!(!ids.contains(&"hidden".to_string()));
    }

    #[test]
    fn test_attr_fn_is_a_test_region() {
        let f = SourceFile::new(
            "x.rs",
            "#[test]\n#[should_panic]\nfn boom() { hidden(); }\nfn live() {}\n",
        );
        let ids = idents_outside_tests(&f);
        assert!(!ids.contains(&"hidden".to_string()));
        assert!(ids.contains(&"live".to_string()));
    }

    #[test]
    fn cfg_test_use_item_ends_at_semicolon() {
        let f = SourceFile::new(
            "x.rs",
            "#[cfg(test)]\nuse std::collections::HashMap;\nfn live() {}\n",
        );
        let ids = idents_outside_tests(&f);
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(ids.contains(&"live".to_string()));
    }

    #[test]
    fn allow_comment_covers_same_and_next_line() {
        let f = SourceFile::new(
            "x.rs",
            "// dr-lint: allow(determinism): keyed lookup only\nlet m = 1;\nlet n = 2;\n",
        );
        assert!(f.is_allowed("determinism", 1));
        assert!(f.is_allowed("determinism", 2));
        assert!(!f.is_allowed("determinism", 3));
        assert!(!f.is_allowed("panic-reachability", 2));
    }

    #[test]
    fn allow_file_covers_everything() {
        let f = SourceFile::new("x.rs", "// dr-lint: allow-file(unit-hygiene): CLI glue\n");
        assert!(f.is_allowed("unit-hygiene", 999));
        assert!(!f.is_allowed("determinism", 1));
    }
}
