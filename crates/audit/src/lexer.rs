//! A minimal self-contained Rust lexer, sufficient for the concurrency
//! pass.
//!
//! The workspace builds offline (no registry access), so vendoring
//! `proc-macro2`/`syn` is off the table; the pass only needs a token
//! stream that is faithful about the things that trip naive `grep`-style
//! checks:
//!
//! * comments (line, doc, and nested block comments) produce no tokens —
//!   a `.lock()` in a doc example is not an acquisition;
//! * string, raw-string, byte-string, and char literals are single
//!   tokens — `"send()"` inside a message string is not a call;
//! * lifetimes are distinguished from char literals;
//! * multi-character operators (`==`, `!=`, `::`, …) are single tokens,
//!   so `!=` is never misread as `!` plus `=`;
//! * float literals are distinguished from integers, field access, and
//!   ranges (`1.0` vs `x.0` vs `0..1`).
//!
//! [`strip_test_code`] then removes `#[cfg(test)]` / `#[test]` items so
//! the pass only sees non-test library code.

/// The kind of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword.
    Ident,
    /// A lifetime (`'a`), including the quote.
    Lifetime,
    /// An integer literal.
    Int,
    /// A floating-point literal.
    Float,
    /// A string, raw string, byte string, or char literal.
    Literal,
    /// An operator or delimiter, possibly multi-character.
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Tok {
    /// What kind of token this is.
    pub kind: TokKind,
    /// The token's text, verbatim (literals are truncated to their
    /// opening delimiter — the pass never looks inside them).
    pub text: String,
    /// 1-based line number where the token starts.
    pub line: u32,
}

impl Tok {
    fn new(kind: TokKind, text: impl Into<String>, line: u32) -> Self {
        Tok {
            kind,
            text: text.into(),
            line,
        }
    }

    /// Whether this is a punct token with exactly this text.
    pub fn is_punct(&self, text: &str) -> bool {
        self.kind == TokKind::Punct && self.text == text
    }

    /// Whether this is an identifier with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }
}

/// Multi-character operators, longest first so maximal munch works.
const MULTI_PUNCT: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>", "..",
];

/// Lexes `source` into tokens, discarding comments and whitespace.
///
/// The lexer is total: any byte sequence produces *some* token stream
/// (unterminated literals run to end of input). That keeps the pass
/// robust on fixture files and mid-edit source.
pub fn lex(source: &str) -> Vec<Tok> {
    let chars: Vec<char> = source.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = chars.len();

    // Advances past `count` chars, bumping the line counter on newlines.
    macro_rules! advance {
        ($i:expr, $count:expr) => {{
            for k in 0..$count {
                if chars.get($i + k) == Some(&'\n') {
                    line += 1;
                }
            }
            $i += $count;
        }};
    }

    while i < n {
        let c = chars[i];

        if c.is_whitespace() {
            advance!(i, 1);
            continue;
        }

        // Line comments (incl. doc comments).
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            while i < n && chars[i] != '\n' {
                i += 1;
            }
            continue;
        }

        // Block comments, nested.
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 1usize;
            advance!(i, 2);
            while i < n && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    advance!(i, 2);
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    advance!(i, 2);
                } else {
                    advance!(i, 1);
                }
            }
            continue;
        }

        // Identifiers, keywords, and prefixed literals (r"", b"", br#""#).
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let word: String = chars[start..i].iter().collect();
            // Raw/byte string prefixes: the ident runs straight into a
            // quote or `#"` run.
            let is_literal_prefix = matches!(word.as_str(), "r" | "b" | "br" | "rb" | "c" | "cr");
            if is_literal_prefix && matches!(chars.get(i), Some('"') | Some('#')) {
                let tok_line = line;
                if word.contains('r') {
                    // Raw form (no escapes): count hashes, then scan for
                    // `"` followed by the same number of hashes.
                    let mut hashes = 0usize;
                    while chars.get(i) == Some(&'#') {
                        hashes += 1;
                        i += 1;
                    }
                    if chars.get(i) == Some(&'"') {
                        advance!(i, 1);
                        'raw: while i < n {
                            if chars[i] == '"' {
                                let mut ok = true;
                                for k in 0..hashes {
                                    if chars.get(i + 1 + k) != Some(&'#') {
                                        ok = false;
                                        break;
                                    }
                                }
                                if ok {
                                    advance!(i, 1 + hashes);
                                    break 'raw;
                                }
                            }
                            advance!(i, 1);
                        }
                    }
                    toks.push(Tok::new(TokKind::Literal, format!("{word}\"…\""), tok_line));
                    continue;
                }
                // Non-raw byte string: ordinary escape rules.
                advance!(i, 1); // opening quote
                while i < n {
                    if chars[i] == '\\' {
                        advance!(i, 2);
                    } else if chars[i] == '"' {
                        advance!(i, 1);
                        break;
                    } else {
                        advance!(i, 1);
                    }
                }
                toks.push(Tok::new(TokKind::Literal, format!("{word}\"…\""), tok_line));
                continue;
            }
            toks.push(Tok::new(TokKind::Ident, word, line));
            continue;
        }

        // String literals.
        if c == '"' {
            let tok_line = line;
            advance!(i, 1);
            while i < n {
                if chars[i] == '\\' {
                    advance!(i, 2);
                } else if chars[i] == '"' {
                    advance!(i, 1);
                    break;
                } else {
                    advance!(i, 1);
                }
            }
            toks.push(Tok::new(TokKind::Literal, "\"…\"", tok_line));
            continue;
        }

        // Lifetime or char literal.
        if c == '\'' {
            let next = chars.get(i + 1).copied();
            let after = chars.get(i + 2).copied();
            let is_lifetime =
                matches!(next, Some(ch) if ch.is_alphabetic() || ch == '_') && after != Some('\'');
            if is_lifetime {
                let start = i;
                i += 1;
                while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                toks.push(Tok::new(TokKind::Lifetime, text, line));
                continue;
            }
            // Char literal: consume to the closing quote.
            let tok_line = line;
            advance!(i, 1);
            if chars.get(i) == Some(&'\\') {
                advance!(i, 2);
            } else if i < n {
                advance!(i, 1);
            }
            // Unicode escapes (`'\u{1F600}'`) leave residue before the
            // closing quote; scan to it defensively.
            while i < n && chars[i] != '\'' {
                advance!(i, 1);
            }
            if i < n {
                advance!(i, 1);
            }
            toks.push(Tok::new(TokKind::Literal, "'…'", tok_line));
            continue;
        }

        // Numbers.
        if c.is_ascii_digit() {
            let start = i;
            let tok_line = line;
            let mut is_float = false;
            if c == '0' && matches!(chars.get(i + 1), Some('x') | Some('o') | Some('b')) {
                i += 2;
                while i < n && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
            } else {
                while i < n && (chars[i].is_ascii_digit() || chars[i] == '_') {
                    i += 1;
                }
                // A fractional part only if `.` is followed by a digit —
                // `0..1` is a range and `1.max(2)` a method call.
                if chars.get(i) == Some(&'.')
                    && matches!(chars.get(i + 1), Some(d) if d.is_ascii_digit())
                {
                    is_float = true;
                    i += 1;
                    while i < n && (chars[i].is_ascii_digit() || chars[i] == '_') {
                        i += 1;
                    }
                }
                // Exponent.
                if matches!(chars.get(i), Some('e') | Some('E')) {
                    let mut k = i + 1;
                    if matches!(chars.get(k), Some('+') | Some('-')) {
                        k += 1;
                    }
                    if matches!(chars.get(k), Some(d) if d.is_ascii_digit()) {
                        is_float = true;
                        i = k;
                        while i < n && (chars[i].is_ascii_digit() || chars[i] == '_') {
                            i += 1;
                        }
                    }
                }
                // Type suffix (`1.0f64`, `1u32`).
                if matches!(chars.get(i), Some(ch) if ch.is_ascii_alphabetic()) {
                    let suffix_start = i;
                    while i < n && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                    let suffix: String = chars[suffix_start..i].iter().collect();
                    if suffix.starts_with('f') {
                        is_float = true;
                    }
                }
            }
            let text: String = chars[start..i].iter().collect();
            let kind = if is_float {
                TokKind::Float
            } else {
                TokKind::Int
            };
            toks.push(Tok::new(kind, text, tok_line));
            continue;
        }

        // Multi-character operators, longest first.
        let mut matched = false;
        for op in MULTI_PUNCT {
            let len = op.len();
            if i + len <= n && chars[i..i + len].iter().collect::<String>() == **op {
                toks.push(Tok::new(TokKind::Punct, *op, line));
                i += len;
                matched = true;
                break;
            }
        }
        if matched {
            continue;
        }

        toks.push(Tok::new(TokKind::Punct, c.to_string(), line));
        advance!(i, 1);
    }
    toks
}

/// Removes test-only items from a token stream: any item annotated
/// `#[cfg(test)]` or `#[test]` (including whole `mod tests { … }`
/// blocks) disappears, so the pass only judges non-test library code.
///
/// Attributes mentioning `test` under a `not(…)` (e.g.
/// `#[cfg(not(test))]`) are kept — that code *is* the production build.
pub fn strip_test_code(toks: &[Tok]) -> Vec<Tok> {
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct("#") && toks.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            // Collect the attribute's tokens, bracket-balanced.
            let attr_start = i;
            let mut k = i + 2;
            let mut depth = 1usize;
            while k < toks.len() && depth > 0 {
                if toks[k].is_punct("[") {
                    depth += 1;
                } else if toks[k].is_punct("]") {
                    depth -= 1;
                }
                k += 1;
            }
            let attr = &toks[attr_start + 2..k.saturating_sub(1)];
            let mentions_test = attr.iter().any(|t| t.is_ident("test"));
            let negated = attr.iter().any(|t| t.is_ident("not"));
            if mentions_test && !negated {
                // Skip this attribute, any further attributes, and the
                // item they annotate.
                i = k;
                while i < toks.len()
                    && toks[i].is_punct("#")
                    && toks.get(i + 1).is_some_and(|t| t.is_punct("["))
                {
                    let mut depth = 1usize;
                    i += 2;
                    while i < toks.len() && depth > 0 {
                        if toks[i].is_punct("[") {
                            depth += 1;
                        } else if toks[i].is_punct("]") {
                            depth -= 1;
                        }
                        i += 1;
                    }
                }
                i = skip_item(toks, i);
                continue;
            }
            // A non-test attribute: keep it verbatim.
            out.extend_from_slice(&toks[attr_start..k]);
            i = k;
            continue;
        }
        out.push(toks[i].clone());
        i += 1;
    }
    out
}

/// Skips one item starting at `i`: to the matching `}` of its first
/// brace block, or through a terminating `;` for brace-less items
/// (`use`, type aliases, extern fns).
fn skip_item(toks: &[Tok], mut i: usize) -> usize {
    while i < toks.len() {
        if toks[i].is_punct(";") {
            return i + 1;
        }
        if toks[i].is_punct("{") {
            let mut depth = 1usize;
            i += 1;
            while i < toks.len() && depth > 0 {
                if toks[i].is_punct("{") {
                    depth += 1;
                } else if toks[i].is_punct("}") {
                    depth -= 1;
                }
                i += 1;
            }
            return i;
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(toks: &[Tok]) -> Vec<&str> {
        toks.iter().map(|t| t.text.as_str()).collect()
    }

    #[test]
    fn comments_and_strings_produce_no_calls() {
        let toks = lex(r#"
            // a comment mentioning unwrap()
            /* block /* nested */ still comment panic! */
            let msg = "do not unwrap() this";
        "#);
        assert!(!toks.iter().any(|t| t.is_ident("unwrap")));
        assert!(!toks.iter().any(|t| t.is_ident("panic")));
        assert!(toks.iter().any(|t| t.is_ident("msg")));
    }

    #[test]
    fn multi_char_operators_are_single_tokens() {
        let toks = lex("a == b != c <= d => e :: f");
        let puncts: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Punct)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(puncts, vec!["==", "!=", "<=", "=>", "::"]);
    }

    #[test]
    fn floats_vs_ints_vs_ranges() {
        let toks = lex("1.0 2 0..3 x.0 4e-2 5f64 6u32");
        let kinds: Vec<TokKind> = toks
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Float | TokKind::Int))
            .map(|t| t.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                TokKind::Float, // 1.0
                TokKind::Int,   // 2
                TokKind::Int,   // 0
                TokKind::Int,   // 3
                TokKind::Int,   // 0 (tuple access)
                TokKind::Float, // 4e-2
                TokKind::Float, // 5f64
                TokKind::Int,   // 6u32
            ]
        );
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; }");
        assert!(toks.iter().any(|t| t.kind == TokKind::Lifetime));
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Literal).count(),
            1
        );
    }

    #[test]
    fn raw_strings_swallow_their_content() {
        let toks = lex(r##"let s = r#"panic! inside "quotes" here"#; let t = 1;"##);
        assert!(!toks.iter().any(|t| t.is_ident("panic")));
        assert!(toks.iter().any(|t| t.is_ident("t")));
    }

    #[test]
    fn cfg_test_modules_are_stripped() {
        let toks = lex(r#"
            pub fn lib_code() { helper(); }
            #[cfg(test)]
            mod tests {
                #[test]
                fn boom() { panic!("fine in tests"); }
            }
            pub fn more_lib() {}
        "#);
        let stripped = strip_test_code(&toks);
        assert!(!stripped.iter().any(|t| t.is_ident("panic")));
        assert!(stripped.iter().any(|t| t.is_ident("lib_code")));
        assert!(stripped.iter().any(|t| t.is_ident("more_lib")));
    }

    #[test]
    fn cfg_not_test_is_kept() {
        let toks = lex(r#"
            #[cfg(not(test))]
            fn production_only() { work(); }
        "#);
        let stripped = strip_test_code(&toks);
        assert!(stripped.iter().any(|t| t.is_ident("production_only")));
    }

    #[test]
    fn test_fn_with_extra_attributes_is_stripped() {
        let toks = lex(r#"
            #[test]
            #[should_panic(expected = "boom")]
            fn explodes() { body(); }
            fn kept() {}
        "#);
        let stripped = strip_test_code(&toks);
        assert!(!stripped.iter().any(|t| t.is_ident("explodes")));
        assert!(stripped.iter().any(|t| t.is_ident("kept")));
    }

    #[test]
    fn lexer_is_total_on_garbage() {
        let _ = lex("\"unterminated");
        let _ = lex("r#\"unterminated raw");
        let _ = lex("'");
        let _ = lex("/* unterminated block");
        let _ = lex("\u{0}\u{1}\u{7f}");
    }

    #[test]
    fn line_numbers_survive_multiline_tokens() {
        let toks = lex("let a = \"two\nlines\";\nlet b = 1;");
        let b = toks.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 3);
        assert_eq!(texts(&toks[..2]), vec!["let", "a"]);
    }
}
