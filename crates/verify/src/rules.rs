//! The five invariant rules, applied over scanned lines.
//!
//! The engine walks a file once, tracking brace depth, `#[cfg(test)]`
//! scopes, `// minato-verify: hot-path` scopes, and live lock-guard
//! bindings, then applies the per-line rule checks. Precision targets
//! rustfmt-formatted code: statements may wrap across lines (a small
//! statement buffer handles bindings split by rustfmt), but multiple
//! statements jammed onto one line are checked at line granularity.

use crate::config::LockOrder;
use crate::scan::{scan, Line};
use crate::{Rule, Violation};
use std::collections::HashMap;

/// How the rules apply to one file, derived from its workspace path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileClass {
    /// Library code: V3 (lock discipline) applies. True for
    /// `crates/*/src` and root `src/` outside `bin/`.
    pub library: bool,
    /// Panic-free code: V1 (no unwrap/expect) applies. Library code
    /// minus `crates/bench` — the measurement harness terminates on
    /// malformed experiment setups by design, like a binary would.
    pub panic_free: bool,
    /// Doc-comment coverage (V4) applies: the core/exec/pool/cache
    /// public surface.
    pub docs_required: bool,
}

impl FileClass {
    /// Classifies a workspace-relative path (forward slashes).
    pub fn of(rel: &str) -> FileClass {
        let in_src =
            rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/"));
        let library = in_src && !rel.contains("/bin/");
        let panic_free = library && !rel.starts_with("crates/bench/");
        let docs_required = ["core", "exec", "pool", "cache"]
            .iter()
            .any(|c| rel.starts_with(&format!("crates/{c}/src/")));
        FileClass {
            library,
            panic_free,
            docs_required,
        }
    }
}

/// Result of linting one source file.
#[derive(Debug, Default)]
pub struct LintOutcome {
    /// Violations not suppressed by inline allows.
    pub violations: Vec<Violation>,
    /// Inline allow comments found (they count against the budget).
    pub inline_allows: usize,
    /// Malformed inline allow comments (`file:line: problem`).
    pub bad_allow_comments: Vec<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScopeKind {
    Test,
    Hot,
}

#[derive(Debug)]
struct Guard {
    name: String,
    key: String,
    depth: i64,
    line: usize,
}

const V2_PATTERNS: &[&str] = &[
    "Vec::new(",
    "vec![",
    ".to_vec(",
    ".clone()",
    "String::from(",
    "String::new(",
    "format!(",
    "Box::new(",
    ".to_string(",
    ".to_owned(",
];

/// Blocking calls a held guard must not span. Wait-family entries are
/// exempted when they wait *on the held guard itself* (a condvar wait
/// releases its mutex).
const BLOCKING: &[&str] = &[
    ".recv(",
    ".recv_timeout(",
    ".recv_deadline(",
    ".wait(",
    ".wait_for(",
    ".wait_until(",
    "sleep(",
    ".join()",
];

/// Lints one file's source text. `rel` is the workspace-relative path
/// used both for rule scoping ([`FileClass::of`]) and in reports.
pub fn lint_source(rel: &str, text: &str, lock: &LockOrder) -> LintOutcome {
    let class = FileClass::of(rel);
    let lines = scan(text);
    let mut out = LintOutcome::default();
    let allows = inline_allows(rel, &lines, &mut out);

    let mut depth: i64 = 0;
    let mut scopes: Vec<(ScopeKind, i64)> = Vec::new();
    let mut pending_test = false;
    let mut pending_hot = false;
    let mut guards: Vec<Guard> = Vec::new();
    let mut stmt = String::new();
    let mut prev_doc = false;
    let mut attr_open = 0i64;

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = line.code.as_str();
        let trimmed = code.trim();
        let test_at_start = scopes.iter().any(|s| s.0 == ScopeKind::Test);

        if !line.doc && line.comment.contains("minato-verify: hot-path") {
            pending_hot = true;
        }
        if code.contains("#[cfg(test)") || code.contains("#[cfg(all(test") {
            pending_test = true;
        }

        // Brace walk: track depth, attach pending scopes at the first
        // opened brace, retire scopes/guards on close.
        let mut min_depth = depth;
        for c in code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending_test {
                        scopes.push((ScopeKind::Test, depth));
                        pending_test = false;
                        pending_hot = false;
                    } else if pending_hot {
                        scopes.push((ScopeKind::Hot, depth));
                        pending_hot = false;
                    }
                }
                '}' => {
                    depth -= 1;
                    min_depth = min_depth.min(depth);
                    while scopes.last().is_some_and(|s| s.1 > depth) {
                        scopes.pop();
                    }
                }
                // An item ended without a body (`#[cfg(test)] use x;`,
                // `pub mod x;`): pending markers no longer attach.
                ';' if depth == min_depth => {
                    pending_test = false;
                    pending_hot = false;
                }
                _ => {}
            }
        }
        guards.retain(|g| g.depth <= min_depth);
        if let Some(name) = dropped_binding(code) {
            guards.retain(|g| g.name != name);
        }

        let test_active = test_at_start || scopes.iter().any(|s| s.0 == ScopeKind::Test);
        let hot_active = scopes.iter().any(|s| s.0 == ScopeKind::Hot);

        // Statement buffer for bindings wrapped across lines.
        stmt.push(' ');
        stmt.push_str(code);

        if class.library && !test_active {
            check_v3(
                rel,
                lineno,
                code,
                &stmt,
                depth,
                lock,
                &mut guards,
                &allows,
                &mut out,
            );
            if class.panic_free {
                check_v1(rel, lineno, code, &allows, &mut out);
            }
        }
        if hot_active && !test_active {
            check_v2(rel, lineno, code, &allows, &mut out);
        }
        if class.docs_required && !test_active {
            check_v4(rel, lineno, trimmed, prev_doc, &allows, &mut out);
        }
        check_v5(rel, lineno, idx, code, &lines, &allows, &mut out);

        if code.contains(';') || code.contains('{') || code.contains('}') {
            let cut = code
                .rfind([';', '{', '}'])
                .map(|p| &code[p + 1..])
                .unwrap_or("");
            stmt.clear();
            stmt.push_str(cut);
        }

        // V4 doc-comment adjacency: attributes (including multi-line
        // ones) carry the "preceded by docs" flag through to the item;
        // anything else set or reset it.
        if attr_open > 0 {
            attr_open += bracket_delta(code);
        } else if line.doc {
            prev_doc = true;
        } else if trimmed.starts_with("#[") || trimmed.starts_with("#![") {
            attr_open = bracket_delta(code);
        } else if trimmed.is_empty() && !line.comment.is_empty() {
            // A plain comment between docs and item (e.g. a hot-path
            // marker) does not break rustdoc attachment.
        } else {
            prev_doc = false;
        }
    }
    out
}

/// Net `[`/`]` balance of one line, for multi-line attribute tracking.
fn bracket_delta(code: &str) -> i64 {
    code.chars()
        .map(|c| match c {
            '[' => 1,
            ']' => -1,
            _ => 0,
        })
        .sum()
}

type AllowMap = HashMap<usize, Vec<Rule>>;

/// Collects inline `// minato-verify: allow(Vn) reason` comments. A
/// comment on a code line applies to that line; a comment on its own
/// line applies to the next line carrying code.
fn inline_allows(rel: &str, lines: &[Line], out: &mut LintOutcome) -> AllowMap {
    let mut map: AllowMap = HashMap::new();
    for (idx, line) in lines.iter().enumerate() {
        if line.doc {
            // Doc comments *describing* the allow syntax don't count.
            continue;
        }
        let Some(pos) = line.comment.find("minato-verify: allow(") else {
            continue;
        };
        let rest = &line.comment[pos + "minato-verify: allow(".len()..];
        let Some(close) = rest.find(')') else {
            out.bad_allow_comments
                .push(format!("{rel}:{}: unclosed allow(...)", idx + 1));
            continue;
        };
        let Some(rule) = Rule::parse(&rest[..close]) else {
            out.bad_allow_comments.push(format!(
                "{rel}:{}: unknown rule `{}` in allow",
                idx + 1,
                &rest[..close]
            ));
            continue;
        };
        if rest[close + 1..].trim().is_empty() {
            out.bad_allow_comments
                .push(format!("{rel}:{}: allow({rule}) needs a reason", idx + 1));
            continue;
        }
        out.inline_allows += 1;
        let target = if line.code.trim().is_empty() {
            lines[idx + 1..]
                .iter()
                .position(|l| !l.code.trim().is_empty())
                .map(|off| idx + 1 + off + 1)
        } else {
            Some(idx + 1)
        };
        if let Some(t) = target {
            map.entry(t).or_default().push(rule);
        }
    }
    map
}

fn allowed(allows: &AllowMap, line: usize, rule: Rule) -> bool {
    allows.get(&line).is_some_and(|rs| rs.contains(&rule))
}

fn push(out: &mut LintOutcome, allows: &AllowMap, rel: &str, line: usize, rule: Rule, msg: String) {
    if !allowed(allows, line, rule) {
        out.violations.push(Violation {
            file: rel.to_string(),
            line,
            rule,
            msg,
        });
    }
}

fn check_v1(rel: &str, lineno: usize, code: &str, allows: &AllowMap, out: &mut LintOutcome) {
    for pat in [".unwrap()", ".expect("] {
        if code.contains(pat) {
            push(
                out,
                allows,
                rel,
                lineno,
                Rule::V1,
                format!("`{pat}` in library code; propagate the error or allow with a reason"),
            );
        }
    }
}

fn check_v2(rel: &str, lineno: usize, code: &str, allows: &AllowMap, out: &mut LintOutcome) {
    for pat in V2_PATTERNS {
        if code.contains(pat) {
            push(
                out,
                allows,
                rel,
                lineno,
                Rule::V2,
                format!("heap allocation `{pat}` inside a hot-path scope"),
            );
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn check_v3(
    rel: &str,
    lineno: usize,
    code: &str,
    stmt: &str,
    depth: i64,
    lock: &LockOrder,
    guards: &mut Vec<Guard>,
    allows: &AllowMap,
    out: &mut LintOutcome,
) {
    // Acquisitions: blocking lock()/read()/write() plus configured
    // aliases; try_lock is non-blocking and cannot deadlock as the
    // *inner* acquisition, but its guard is tracked as a held lock.
    let mut pats: Vec<(String, bool, Option<String>)> = vec![
        (".lock(".to_string(), true, None),
        (".try_lock(".to_string(), false, None),
        (".read()".to_string(), true, None),
        (".write()".to_string(), true, None),
    ];
    for (method, key) in &lock.aliases {
        pats.push((format!(".{method}("), true, Some(key.clone())));
    }
    let mut acquisitions: Vec<(usize, String, bool)> = Vec::new();
    for (pat, blocking, alias_key) in &pats {
        let mut from = 0;
        while let Some(p) = code[from..].find(pat.as_str()) {
            let at = from + p;
            let key = alias_key.clone().unwrap_or_else(|| receiver_key(code, at));
            acquisitions.push((at, key, *blocking));
            from = at + pat.len();
        }
    }
    acquisitions.sort_by_key(|a| a.0);
    for (_, key, blocking) in &acquisitions {
        if *blocking {
            for g in guards.iter() {
                if !lock.permits(&g.key, key) {
                    push(
                        out,
                        allows,
                        rel,
                        lineno,
                        Rule::V3,
                        format!(
                            "lock `{key}` acquired while holding `{}` (bound line {}); \
                             not in verify/lock_order.toml",
                            g.key, g.line
                        ),
                    );
                }
            }
        }
    }
    // A `let` binding turns the line's (first) acquisition into a held
    // guard, registered at the line's end depth so `if let Some(g) =
    // q.try_lock() {` scopes to the block it opens.
    if let (Some((_, key, _)), Some(name)) = (acquisitions.first(), binding_name(stmt)) {
        guards.push(Guard {
            name,
            key: key.clone(),
            depth,
            line: lineno,
        });
    }

    for pat in BLOCKING {
        let Some(p) = code.find(pat) else { continue };
        if guards.is_empty() {
            continue;
        }
        let waited = if pat.starts_with(".wait") {
            call_args(code, p + pat.len() - 1)
        } else {
            String::new()
        };
        for g in guards.iter() {
            if pat.starts_with(".wait") && contains_word(&waited, &g.name) {
                continue; // Condvar wait releases this guard.
            }
            push(
                out,
                allows,
                rel,
                lineno,
                Rule::V3,
                format!(
                    "blocking call `{}` while holding lock `{}` (bound line {})",
                    pat.trim_matches(|c| c == '.' || c == '('),
                    g.key,
                    g.line
                ),
            );
        }
    }
}

fn check_v4(
    rel: &str,
    lineno: usize,
    trimmed: &str,
    prev_doc: bool,
    allows: &AllowMap,
    out: &mut LintOutcome,
) {
    let Some((kind, name)) = pub_item(trimmed) else {
        return;
    };
    if kind == "mod" && trimmed.ends_with(';') {
        // `pub mod x;` — the file module documents itself with `//!`.
        return;
    }
    if !prev_doc {
        push(
            out,
            allows,
            rel,
            lineno,
            Rule::V4,
            format!("public {kind} `{name}` lacks a doc comment"),
        );
    }
}

fn check_v5(
    rel: &str,
    lineno: usize,
    idx: usize,
    code: &str,
    lines: &[Line],
    allows: &AllowMap,
    out: &mut LintOutcome,
) {
    if !contains_word(code, "unsafe") {
        return;
    }
    let lo = idx.saturating_sub(3);
    let hi = (idx + 2).min(lines.len());
    let documented = lines[lo..hi].iter().any(|l| l.comment.contains("SAFETY:"));
    if !documented {
        push(
            out,
            allows,
            rel,
            lineno,
            Rule::V5,
            "`unsafe` without a nearby `// SAFETY:` comment".to_string(),
        );
    }
}

/// `drop(name)` / `mem::drop(name)` on this line, if any.
fn dropped_binding(code: &str) -> Option<String> {
    let p = code.find("drop(")?;
    if p > 0 {
        let prev = code[..p].chars().next_back();
        if prev.is_some_and(|c| c.is_alphanumeric() || c == '_') && !code[..p].ends_with("::") {
            return None; // e.g. `airdrop(` — not a drop call.
        }
    }
    let inner = call_args(code, p + "drop(".len() - 1);
    let name = inner.trim();
    name.chars()
        .all(|c| c.is_alphanumeric() || c == '_')
        .then(|| name.to_string())
        .filter(|n| !n.is_empty())
}

/// The argument text of the call whose `(` sits at `open`.
fn call_args(code: &str, open: usize) -> String {
    let bytes: Vec<char> = code.chars().collect();
    if bytes.get(open) != Some(&'(') {
        return String::new();
    }
    let mut depth = 0;
    let mut outp = String::new();
    for &c in &bytes[open..] {
        if c == '(' {
            depth += 1;
            if depth == 1 {
                continue;
            }
        }
        if c == ')' {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        outp.push(c);
    }
    outp
}

fn contains_word(text: &str, word: &str) -> bool {
    let mut from = 0;
    while let Some(p) = text[from..].find(word) {
        let at = from + p;
        let before_ok = at == 0
            || !text[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = text[at + word.len()..].chars().next();
        let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        from = at + word.len();
    }
    false
}

/// Extracts the lock key for an acquisition: the last plain identifier
/// of the receiver chain before the `.` at `dot`, skipping index/call
/// groups (`stripes[(h + k) % n].lock()` keys as `stripes`).
fn receiver_key(code: &str, dot: usize) -> String {
    let b: Vec<char> = code[..dot].chars().collect();
    let mut i = b.len();
    let mut last = String::new();
    while i > 0 {
        let c = b[i - 1];
        if c == ')' || c == ']' {
            let (open, close) = if c == ')' { ('(', ')') } else { ('[', ']') };
            let mut depth = 0;
            while i > 0 {
                let ch = b[i - 1];
                if ch == close {
                    depth += 1;
                } else if ch == open {
                    depth -= 1;
                }
                i -= 1;
                if depth == 0 {
                    break;
                }
            }
        } else if c.is_alphanumeric() || c == '_' {
            let end = i;
            while i > 0 && (b[i - 1].is_alphanumeric() || b[i - 1] == '_') {
                i -= 1;
            }
            last = b[i..end].iter().collect();
            break;
        } else if c == '.' || c == ':' {
            i -= 1;
        } else {
            break;
        }
    }
    if last.is_empty() || last == "self" {
        "<unnamed>".to_string()
    } else {
        last
    }
}

/// The bound name of a `let`/`if let`/`while let` statement, if the
/// statement text contains one (`let g`, `let mut g`, `let Some(g)`).
fn binding_name(stmt: &str) -> Option<String> {
    let p = stmt.rfind("let ")?;
    let rest = &stmt[p + 4..];
    let eq = rest.find('=')?;
    let pattern = rest[..eq].trim();
    let pattern = pattern.strip_prefix("mut ").unwrap_or(pattern);
    let inner = pattern
        .split_once('(')
        .map(|(_, tail)| tail)
        .unwrap_or(pattern);
    let name: String = inner
        .trim_start_matches("mut ")
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty() && name != "_").then_some(name)
}

/// Parses `pub <qualifiers> <kind> <name>` item heads. Returns `None`
/// for non-items, `pub(crate)`-scoped items, and `pub use` re-exports.
fn pub_item(trimmed: &str) -> Option<(&'static str, String)> {
    let rest = trimmed.strip_prefix("pub ")?;
    let kinds: &[&str] = &[
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
    ];
    let mut toks = rest.split_whitespace().peekable();
    while let Some(tok) = toks.next() {
        let tok = tok.trim_end_matches(|c: char| !c.is_alphanumeric() && c != '_');
        match tok {
            "use" | "macro" => return None,
            "async" | "unsafe" => continue,
            "extern" => {
                // Skip the ABI string if present.
                if toks.peek().is_some_and(|t| t.starts_with('"')) {
                    toks.next();
                }
                continue;
            }
            "const" => {
                if toks.peek() == Some(&"fn") {
                    continue; // `pub const fn` — qualifier, not item.
                }
                let name = item_name(toks.next()?);
                return Some(("const", name));
            }
            k if kinds.contains(&k) => {
                let kind = kinds.iter().find(|&&x| x == k)?;
                let name = item_name(toks.next()?);
                return Some((kind, name));
            }
            _ => return None,
        }
    }
    None
}

fn item_name(tok: &str) -> String {
    tok.chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_lib(text: &str) -> Vec<Violation> {
        lint_source("crates/core/src/sample.rs", text, &LockOrder::default()).violations
    }

    #[test]
    fn v1_skips_test_modules() {
        let src =
            "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn b() { y.unwrap(); }\n}\n";
        let v = lint_lib(src);
        assert_eq!(v.iter().filter(|v| v.rule == Rule::V1).count(), 1);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn inline_allow_suppresses() {
        let src = "fn a() {\n    x.unwrap(); // minato-verify: allow(V1) invariant: set above\n}\n";
        assert!(lint_lib(src).iter().all(|v| v.rule != Rule::V1));
    }

    #[test]
    fn allow_without_reason_is_rejected() {
        let src = "fn a() {\n    x.unwrap(); // minato-verify: allow(V1)\n}\n";
        let out = lint_source("crates/core/src/s.rs", src, &LockOrder::default());
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.bad_allow_comments.len(), 1);
    }

    #[test]
    fn v3_condvar_wait_on_held_guard_is_fine() {
        let src = "fn a(&self) {\n    let mut g = self.inner.lock();\n    self.not_empty.wait(&mut g);\n}\n";
        assert!(lint_lib(src).is_empty());
    }

    #[test]
    fn v3_sleep_under_guard_fires() {
        let src = "fn a(&self) {\n    let g = self.inner.lock();\n    std::thread::sleep(d);\n}\n";
        let v = lint_lib(src);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].rule, v[0].line), (Rule::V3, 3));
    }

    #[test]
    fn v3_guard_scope_ends_at_block_close() {
        let src = "fn a(&self) {\n    {\n        let g = self.inner.lock();\n    }\n    std::thread::sleep(d);\n}\n";
        assert!(lint_lib(src).is_empty());
    }

    #[test]
    fn v3_drop_releases_guard() {
        let src = "fn a(&self) {\n    let g = self.inner.lock();\n    drop(g);\n    std::thread::sleep(d);\n}\n";
        assert!(lint_lib(src).is_empty());
    }

    #[test]
    fn v3_nested_lock_respects_order_file() {
        let src =
            "fn a(&self) {\n    let g = self.state.lock();\n    let h = self.shard.lock();\n}\n";
        assert_eq!(lint_lib(src).len(), 1);
        let mut lo = LockOrder::default();
        lo.allowed.insert(("state".into(), "shard".into()));
        let v = lint_source("crates/core/src/s.rs", src, &lo).violations;
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn v4_requires_docs_in_core() {
        let src = "/// Documented.\npub fn a() {}\n\npub fn b() {}\n";
        let v = lint_lib(src);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].rule, v[0].line), (Rule::V4, 4));
    }

    #[test]
    fn v4_not_required_outside_core_like_crates() {
        let src = "pub fn b() {}\n";
        let v = lint_source("crates/data/src/s.rs", src, &LockOrder::default()).violations;
        assert!(v.is_empty());
    }

    #[test]
    fn v5_unsafe_needs_safety_comment() {
        let src = "fn a() {\n    let p = unsafe { *x };\n}\n";
        let v = lint_lib(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::V5);
        let ok = "fn a() {\n    // SAFETY: x is valid for reads.\n    let p = unsafe { *x };\n}\n";
        assert!(lint_lib(ok).is_empty());
    }

    #[test]
    fn v2_only_in_hot_scopes() {
        let src = "fn cold() { let v = Vec::new(); }\n// minato-verify: hot-path\nfn hot() {\n    let v = Vec::new();\n}\n";
        let v = lint_lib(src);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].rule, v[0].line), (Rule::V2, 4));
    }

    #[test]
    fn receiver_key_skips_index_groups() {
        assert_eq!(
            receiver_key("class.stripes[(h + k) % n].lock()", 26),
            "stripes"
        );
        assert_eq!(receiver_key("self.inner.lock()", 10), "inner");
        assert_eq!(receiver_key("LIVE_POOLS.lock()", 10), "LIVE_POOLS");
    }
}
