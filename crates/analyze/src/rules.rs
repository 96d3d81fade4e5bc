//! The lint rule engine: four rules over the lexed token stream, with
//! file-scoped allowlist pragmas.
//!
//! | rule | what it forbids |
//! |---|---|
//! | `no-panic-on-untrusted-input` | `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!`/`assert!`-family calls and slice-index expressions inside the declared untrusted-decode surface |
//! | `unsafe-audit` | `unsafe` outside an allowlisted `sys` module, and any `unsafe` block not preceded by a `// SAFETY:` comment |
//! | `no-lossy-casts-in-length-math` | bare `as u32` (always) and `as usize` fed by 64-bit wire integers (`get_u64_le`/`get_varint`/`u64`) in wire/codec/diff length arithmetic |
//! | `lock-discipline` | `.lock().unwrap()` / `.lock().expect(..)` in non-test monitor code (the house rule is poison recovery via `PoisonError::into_inner`), plus `Ordering::Relaxed` outside the counter allowlist |
//!
//! A file can opt out of one rule with a **file-scoped pragma**:
//!
//! ```text
//! // sst-analyze: allow(<rule>) reason="why this file is exempt"
//! ```
//!
//! The reason is mandatory; a malformed pragma is itself a finding
//! (`pragma-syntax`). Pragmas are deliberately file-granular — for
//! single-line grandfathering use the committed baseline instead, so
//! the rule keeps firing on *new* code in the same file.

use crate::lexer::{lex, Comment, Lexed, TokKind, Token};
use std::collections::BTreeSet;

/// Every rule the engine knows, in display order.
pub const RULES: &[&str] = &[
    "no-panic-on-untrusted-input",
    "unsafe-audit",
    "no-lossy-casts-in-length-math",
    "lock-discipline",
    "pragma-syntax",
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (one of [`RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Short token-level description (`expect`, `slice-index`, …).
    pub what: String,
    /// Stable content-addressed id: `rule:path:what#occurrence`.
    /// Line-free, so findings survive unrelated edits above them.
    pub fingerprint: String,
}

/// How much of a file belongs to a rule's surface.
#[derive(Debug, Clone)]
pub enum Scope {
    /// Every non-test token of the file.
    All,
    /// Only tokens inside named functions whose name contains one of
    /// these substrings (innermost or any enclosing named fn).
    Fns(Vec<&'static str>),
}

/// The declared untrusted-decode surface plus per-rule file scopes.
#[derive(Debug, Clone)]
pub struct RuleConfig {
    /// (`path suffix`, scope) pairs for `no-panic-on-untrusted-input`.
    pub untrusted_surface: Vec<(&'static str, Scope)>,
    /// Path suffixes where the lossy-cast rule applies.
    pub length_math_files: Vec<&'static str>,
    /// Path prefixes where `lock-discipline` applies.
    pub lock_paths: Vec<&'static str>,
    /// Path suffixes whose `Ordering::Relaxed` uses are known counters.
    pub relaxed_counter_files: Vec<&'static str>,
    /// Module name whose contents may hold `unsafe` blocks.
    pub unsafe_module: &'static str,
}

impl RuleConfig {
    /// The workspace's declared surfaces (see ISSUE 10 / README).
    pub fn workspace() -> Self {
        RuleConfig {
            untrusted_surface: vec![
                // The snapshot codec decodes raw collector bytes end to
                // end: the whole file is surface.
                ("crates/monitor/src/codec.rs", Scope::All),
                // wire.rs: only the decode half — encode fns document
                // intentional caller-bug panics (oversize frames).
                (
                    "crates/monitor/src/wire.rs",
                    Scope::Fns(vec!["decode", "push", "next_seq_frame", "try_frame"]),
                ),
                // diff.rs: the apply half mutates state from network
                // bytes; the diff-building half reads only trusted
                // local state.
                ("crates/monitor/src/diff.rs", Scope::Fns(vec!["apply"])),
                // summary.rs: the patch appliers `apply_diff` hands
                // each decoded section to.
                (
                    "crates/monitor/src/summary.rs",
                    Scope::Fns(vec!["apply_patch"]),
                ),
                // The fault-injection proxy forwards a hostile
                // back-channel verbatim: whole file.
                ("crates/monitor/src/fault.rs", Scope::All),
                // transport.rs: the session/dispatch paths that touch
                // frames from live sockets (`pump` also covers
                // `pump_ready_session`).
                (
                    "crates/monitor/src/transport.rs",
                    Scope::Fns(vec![
                        "drain_intake",
                        "settle_failed",
                        "pump",
                        "run",
                        "dispatch",
                        "accept",
                    ]),
                ),
            ],
            length_math_files: vec![
                "crates/monitor/src/wire.rs",
                "crates/monitor/src/codec.rs",
                "crates/monitor/src/diff.rs",
            ],
            lock_paths: vec!["crates/monitor/"],
            relaxed_counter_files: vec![
                // The rayon shim's `next` round-robin cursor and
                // `steals` observability counter: values are advisory,
                // never synchronizing.
                "crates/shims/rayon/src/lib.rs",
            ],
            unsafe_module: "sys",
        }
    }
}

/// File-scoped pragmas parsed out of comments, plus any syntax
/// findings they produced.
struct Pragmas {
    allowed: BTreeSet<String>,
    findings: Vec<(u32, String)>,
}

fn parse_pragmas(comments: &[Comment]) -> Pragmas {
    let mut allowed = BTreeSet::new();
    let mut findings = Vec::new();
    for c in comments {
        // Anchored at comment start, so prose *mentioning* the pragma
        // syntax (like this module's docs) is not itself a pragma.
        let Some(rest) = c.text.trim_start().strip_prefix("sst-analyze:") else {
            continue;
        };
        let rest = rest.trim();
        let ok = (|| {
            let rest = rest.strip_prefix("allow(")?;
            let close = rest.find(')')?;
            let rule = rest[..close].trim().to_string();
            if !RULES.contains(&rule.as_str()) {
                return None;
            }
            let tail = rest[close + 1..].trim();
            let reason = tail.strip_prefix("reason=\"")?;
            let end = reason.find('"')?;
            if reason[..end].trim().is_empty() {
                return None;
            }
            Some(rule)
        })();
        match ok {
            Some(rule) => {
                allowed.insert(rule);
            }
            None => findings.push((
                c.line,
                format!(
                    "malformed pragma (want `sst-analyze: allow(<rule>) reason=\"...\"`): {rest}"
                ),
            )),
        }
    }
    Pragmas { allowed, findings }
}

/// Keywords that can legitimately precede `[` without it being an
/// index expression (`&mut [0u8; 4]`, `return [a, b]`, …).
const NON_INDEX_IDENTS: &[&str] = &[
    "mut", "return", "break", "in", "match", "if", "else", "as", "dyn", "impl", "where", "move",
    "ref", "const", "static", "box", "yield",
];

struct FileLint<'a> {
    path: &'a str,
    cfg: &'a RuleConfig,
    lexed: &'a Lexed,
    allowed: &'a BTreeSet<String>,
    findings: Vec<Finding>,
}

impl FileLint<'_> {
    fn emit(&mut self, rule: &'static str, line: u32, what: impl Into<String>) {
        if self.allowed.contains(rule) {
            return;
        }
        self.findings.push(Finding {
            rule,
            path: self.path.to_string(),
            line,
            what: what.into(),
            fingerprint: String::new(), // filled by `number_fingerprints`
        });
    }

    fn surface_scope(&self) -> Option<&Scope> {
        self.cfg
            .untrusted_surface
            .iter()
            .find(|(suffix, _)| self.path.ends_with(suffix))
            .map(|(_, s)| s)
    }

    fn in_surface(&self, tok: &Token, scope: &Scope) -> bool {
        if tok.ctx.test {
            return false;
        }
        match scope {
            Scope::All => true,
            Scope::Fns(names) => tok
                .ctx
                .fns
                .iter()
                .any(|f| names.iter().any(|n| f.contains(n))),
        }
    }

    fn ident_at(&self, i: usize) -> Option<&str> {
        match self.lexed.tokens.get(i).map(|t| &t.kind) {
            Some(TokKind::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    fn punct_at(&self, i: usize, c: char) -> bool {
        matches!(self.lexed.tokens.get(i).map(|t| &t.kind), Some(TokKind::Punct(p)) if *p == c)
    }

    /// Rule (a): panic paths and slice indexing in the untrusted
    /// surface.
    fn no_panic_on_untrusted_input(&mut self) {
        const RULE: &str = "no-panic-on-untrusted-input";
        let Some(scope) = self.surface_scope().cloned() else {
            return;
        };
        let toks = &self.lexed.tokens;
        for i in 0..toks.len() {
            let tok = &toks[i];
            if tok.attr || !self.in_surface(tok, &scope) {
                continue;
            }
            match &tok.kind {
                // `.unwrap(` / `.expect(` — a method call, not a
                // fn named unwrap_or etc. (full-ident match).
                TokKind::Ident(s)
                    if (s == "unwrap" || s == "expect")
                        && i > 0
                        && self.punct_at(i - 1, '.')
                        && self.punct_at(i + 1, '(') =>
                {
                    self.emit(RULE, tok.line, s.clone());
                }
                TokKind::Ident(s)
                    if matches!(
                        s.as_str(),
                        "panic"
                            | "unreachable"
                            | "todo"
                            | "unimplemented"
                            | "assert"
                            | "assert_eq"
                            | "assert_ne"
                    ) && self.punct_at(i + 1, '!') =>
                {
                    self.emit(RULE, tok.line, format!("{s}!"));
                }
                TokKind::Punct('[') => {
                    // Index expression heuristic: `[` directly after an
                    // identifier, `)`, or `]` is indexing; after
                    // operators, `=`, `(`, `,`, `#`, keywords, … it is
                    // an array/slice literal or type.
                    let Some(prev) = (i > 0).then(|| &toks[i - 1]) else {
                        continue;
                    };
                    if prev.attr {
                        continue;
                    }
                    let indexing = match &prev.kind {
                        TokKind::Ident(s) => !NON_INDEX_IDENTS.contains(&s.as_str()),
                        TokKind::Punct(')') | TokKind::Punct(']') => true,
                        _ => false,
                    };
                    if indexing {
                        self.emit(RULE, tok.line, "slice-index");
                    }
                }
                _ => {}
            }
        }
    }

    /// Rule (b): `unsafe` location + `// SAFETY:` comments. Applies to
    /// every file in the workspace walk.
    fn unsafe_audit(&mut self) {
        const RULE: &str = "unsafe-audit";
        for tok in &self.lexed.tokens {
            if tok.attr || tok.ctx.test {
                continue;
            }
            let TokKind::Ident(s) = &tok.kind else {
                continue;
            };
            if s != "unsafe" {
                continue;
            }
            if !tok.ctx.in_mod(self.cfg.unsafe_module) {
                self.emit(
                    RULE,
                    tok.line,
                    format!("unsafe outside a `{}` module", self.cfg.unsafe_module),
                );
            }
            // Every unsafe block — allowlisted module or not — needs a
            // SAFETY comment in the dozen lines above it.
            let documented = self.lexed.comments.iter().any(|c| {
                c.line <= tok.line && tok.line - c.line <= 12 && c.text.contains("SAFETY")
            });
            if !documented {
                self.emit(
                    RULE,
                    tok.line,
                    "unsafe block without a `// SAFETY:` comment",
                );
            }
        }
    }

    /// Rule (c): lossy narrowing casts in wire/codec length math.
    fn no_lossy_casts_in_length_math(&mut self) {
        const RULE: &str = "no-lossy-casts-in-length-math";
        if !self
            .cfg
            .length_math_files
            .iter()
            .any(|suffix| self.path.ends_with(suffix))
        {
            return;
        }
        let toks = &self.lexed.tokens;
        for (i, tok) in toks.iter().enumerate() {
            if tok.attr || tok.ctx.test {
                continue;
            }
            if !matches!(&tok.kind, TokKind::Ident(s) if s == "as") {
                continue;
            }
            let Some(target) = self.ident_at(i + 1) else {
                continue;
            };
            match target {
                // Narrowing to u32 in a wire file is length math by
                // definition (frame length fields are u32).
                "u32" | "u16" => {
                    self.emit(RULE, tok.line, format!("as {target}"));
                }
                // `as usize` is lossy only when fed a 64-bit wire
                // integer; detect the idioms that read one.
                "usize" => {
                    let from_u64 = (i.saturating_sub(8)..i).any(|j| {
                        matches!(
                            self.ident_at(j),
                            Some("u64") | Some("get_u64_le") | Some("get_varint")
                        )
                    });
                    if from_u64 {
                        self.emit(RULE, tok.line, "as usize (from u64 wire integer)");
                    }
                }
                _ => {}
            }
        }
    }

    /// Rule (d): `.lock().unwrap()` / `.lock().expect(` and
    /// `Ordering::Relaxed` outside the counter allowlist.
    fn lock_discipline(&mut self) {
        const RULE: &str = "lock-discipline";
        let in_lock_scope = self
            .cfg
            .lock_paths
            .iter()
            .any(|prefix| self.path.starts_with(prefix));
        let relaxed_allowed = self
            .cfg
            .relaxed_counter_files
            .iter()
            .any(|suffix| self.path.ends_with(suffix));
        let toks = &self.lexed.tokens;
        for (i, tok) in toks.iter().enumerate() {
            if tok.attr || tok.ctx.test {
                continue;
            }
            match &tok.kind {
                // `.lock().unwrap()` / `.lock().expect(`
                TokKind::Ident(s)
                    if s == "lock"
                        && in_lock_scope
                        && i > 0
                        && self.punct_at(i - 1, '.')
                        && self.punct_at(i + 1, '(')
                        && self.punct_at(i + 2, ')')
                        && self.punct_at(i + 3, '.') =>
                {
                    if let Some(m) = self.ident_at(i + 4) {
                        if m == "unwrap" || m == "expect" {
                            self.emit(
                                RULE,
                                tok.line,
                                format!(
                                    ".lock().{m}() — recover poison via PoisonError::into_inner"
                                ),
                            );
                        }
                    }
                }
                TokKind::Ident(s)
                    if s == "Relaxed"
                        && (in_lock_scope || self.path.contains("shims/rayon"))
                        && !relaxed_allowed
                        && i >= 2
                        && self.punct_at(i - 1, ':')
                        && self.punct_at(i - 2, ':')
                        && self.ident_at(i.saturating_sub(3)) == Some("Ordering") =>
                {
                    self.emit(
                        RULE,
                        tok.line,
                        "Ordering::Relaxed outside the counter allowlist",
                    );
                }
                _ => {}
            }
        }
    }
}

/// Assigns content-addressed fingerprints: the `k`-th occurrence of
/// (rule, path, what) in file order gets `rule:path:what#k`. Stable
/// under edits elsewhere in the file, unlike line numbers.
fn number_fingerprints(findings: &mut [Finding]) {
    use std::collections::BTreeMap;
    let mut seen: BTreeMap<(String, String, String), u32> = BTreeMap::new();
    for f in findings {
        let key = (f.rule.to_string(), f.path.clone(), f.what.clone());
        let k = seen.entry(key).or_insert(0);
        f.fingerprint = format!("{}:{}:{}#{}", f.rule, f.path, f.what, k);
        *k += 1;
    }
}

/// Lints one file's source under `cfg`. `path` is workspace-relative
/// with forward slashes; files under `tests/`, `benches/`, `examples/`
/// are treated as all-test (integration tests never carry
/// `#[cfg(test)]`).
pub fn lint_source(path: &str, src: &str, cfg: &RuleConfig) -> Vec<Finding> {
    let all_test = path
        .split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples" || seg == "fixtures");
    let lexed = lex(src, all_test);
    let pragmas = parse_pragmas(&lexed.comments);
    let mut lint = FileLint {
        path,
        cfg,
        lexed: &lexed,
        allowed: &pragmas.allowed,
        findings: Vec::new(),
    };
    for (line, what) in &pragmas.findings {
        lint.findings.push(Finding {
            rule: "pragma-syntax",
            path: path.to_string(),
            line: *line,
            what: what.clone(),
            fingerprint: String::new(),
        });
    }
    if !all_test {
        lint.no_panic_on_untrusted_input();
        lint.unsafe_audit();
        lint.no_lossy_casts_in_length_math();
        lint.lock_discipline();
    }
    let mut findings = lint.findings;
    findings.sort_by(|a, b| (a.line, a.rule, &a.what).cmp(&(b.line, b.rule, &b.what)));
    number_fingerprints(&mut findings);
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_for(path: &'static str) -> RuleConfig {
        let mut cfg = RuleConfig::workspace();
        cfg.untrusted_surface.push((path, Scope::All));
        cfg.length_math_files.push(path);
        cfg.lock_paths.push(path);
        cfg
    }

    #[test]
    fn panics_in_test_code_are_ignored() {
        let cfg = cfg_for("x.rs");
        let src = r#"
fn decode(b: &[u8]) -> u8 { b[0] }
#[cfg(test)]
mod tests {
    fn t() { x.unwrap(); panic!("fine here"); }
}
"#;
        let f = lint_source("x.rs", src, &cfg);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].what, "slice-index");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn pragma_silences_one_rule_only() {
        let cfg = cfg_for("x.rs");
        let src = r#"
// sst-analyze: allow(no-panic-on-untrusted-input) reason="exercise the pragma"
fn decode(b: &[u8]) -> u8 { let v = b.first().unwrap(); *v as u32 as u8 }
"#;
        let f = lint_source("x.rs", src, &cfg);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-lossy-casts-in-length-math");
    }

    #[test]
    fn malformed_pragma_is_a_finding() {
        let cfg = cfg_for("x.rs");
        for bad in [
            "// sst-analyze: allow(no-such-rule) reason=\"x\"",
            "// sst-analyze: allow(unsafe-audit)",
            "// sst-analyze: allow(unsafe-audit) reason=\"\"",
        ] {
            let f = lint_source("x.rs", &format!("{bad}\nfn ok() {{}}\n"), &cfg);
            assert_eq!(f.len(), 1, "{bad}: {f:?}");
            assert_eq!(f[0].rule, "pragma-syntax");
        }
    }

    #[test]
    fn fingerprints_number_repeats() {
        let cfg = cfg_for("x.rs");
        let src = "fn decode(a: T, b: T) { a.unwrap(); b.unwrap(); }\n";
        let f = lint_source("x.rs", src, &cfg);
        assert_eq!(f.len(), 2);
        assert_eq!(
            f[0].fingerprint,
            "no-panic-on-untrusted-input:x.rs:unwrap#0"
        );
        assert_eq!(
            f[1].fingerprint,
            "no-panic-on-untrusted-input:x.rs:unwrap#1"
        );
    }

    #[test]
    fn every_scoped_surface_name_matches_a_fn_in_its_file() {
        // A renamed or deleted fn must not silently drop code out of
        // the no-panic gate: every `Scope::Fns` name has to match (by
        // substring, as `in_surface` does) some non-test fn of its file.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for (path, scope) in RuleConfig::workspace().untrusted_surface {
            let Scope::Fns(names) = scope else {
                continue;
            };
            let src = std::fs::read_to_string(root.join(path))
                .unwrap_or_else(|e| panic!("read {path}: {e}"));
            let lexed = lex(&src, false);
            let fns: BTreeSet<&str> = lexed
                .tokens
                .iter()
                .filter(|t| !t.ctx.test)
                .flat_map(|t| t.ctx.fns.iter().map(String::as_str))
                .collect();
            for name in names {
                assert!(
                    fns.iter().any(|f| f.contains(name)),
                    "{path}: surface name `{name}` matches no fn (have {fns:?})"
                );
            }
        }
    }

    #[test]
    fn fn_scoped_surface_only_hits_named_fns() {
        let mut cfg = RuleConfig::workspace();
        cfg.untrusted_surface
            .push(("y.rs", Scope::Fns(vec!["decode"])));
        let src = r#"
fn decode_frame(b: &[u8]) { b.get(0).unwrap(); }
fn encode_frame(b: &[u8]) { b.get(0).unwrap(); }
"#;
        let f = lint_source("y.rs", src, &cfg);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn array_literals_and_attrs_are_not_indexing() {
        let cfg = cfg_for("x.rs");
        let src = r#"
#[derive(Clone)]
struct S { f: [u8; 4] }
fn mk() -> [u8; 2] { let x = [0u8, 1]; let y: Vec<[u8; 2]> = vec![]; x }
"#;
        let f = lint_source("x.rs", src, &cfg);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unsafe_needs_sys_module_and_safety_comment() {
        let cfg = RuleConfig::workspace();
        // In `sys` with SAFETY: clean.
        let good = "mod sys {\n fn f() {\n // SAFETY: fine\n unsafe { x() }\n }\n}\n";
        assert!(lint_source("a.rs", good, &cfg).is_empty());
        // In `sys` without SAFETY: one finding.
        let no_comment = "mod sys { fn f() { unsafe { x() } } }";
        let f = lint_source("a.rs", no_comment, &cfg);
        assert_eq!(f.len(), 1);
        assert!(f[0].what.contains("SAFETY"));
        // Outside `sys`, with SAFETY: still a location finding.
        let outside = "fn f() {\n // SAFETY: but wrong place\n unsafe { x() }\n}\n";
        let f = lint_source("a.rs", outside, &cfg);
        assert_eq!(f.len(), 1);
        assert!(f[0].what.contains("outside"));
    }

    #[test]
    fn lossy_casts_flag_u64_reads_not_u32_widening() {
        let cfg = cfg_for("x.rs");
        let src = r#"
fn decode(buf: &mut B) {
    let n = buf.get_u64_le() as usize;
    let w = u32::from_le_bytes(b) as usize;
    let z = v.leading_zeros() as usize;
    let l = payload.len() as u32;
}
"#;
        let f = lint_source("x.rs", src, &cfg);
        let whats: Vec<&str> = f.iter().map(|f| f.what.as_str()).collect();
        assert_eq!(
            whats,
            vec!["as usize (from u64 wire integer)", "as u32"],
            "{f:?}"
        );
    }

    #[test]
    fn lock_discipline_catches_unwrap_and_relaxed() {
        // Workspace config: `crates/monitor/` is lock-scoped but x.rs
        // is not untrusted surface, so rule (a) stays quiet here.
        let cfg = RuleConfig::workspace();
        let src = r#"
fn f(m: &Mutex<u32>) {
    let g = m.lock().unwrap();
    let h = m.lock().expect("poisoned");
    let ok = m.lock().unwrap_or_else(PoisonError::into_inner);
    c.fetch_add(1, Ordering::Relaxed);
}
"#;
        let f = lint_source("crates/monitor/src/x.rs", src, &cfg);
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f[0].what.contains("unwrap"));
        assert!(f[1].what.contains("expect"));
        assert!(f[2].what.contains("Relaxed"));
    }
}
