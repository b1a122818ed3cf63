//! Workspace invariant linter for the minato loader.
//!
//! Six PRs in, the loader's correctness rests on concurrency invariants
//! that used to live only in reviewers' heads: reserve-then-publish must
//! never run the device hook under a queue lock, pool bytes must never
//! exceed budget even on unwind, role re-bids happen only at safe
//! points, and the checkpoint codec stays dependency-free. This crate
//! machine-checks the lintable fragment of those invariants with a
//! line-aware scanner (no `syn`/`quote` — the build is offline) and five
//! repo-specific rules:
//!
//! * **V1** — no `.unwrap()` / `.expect(` in non-test, non-example
//!   library code.
//! * **V2** — no heap-allocation constructors (`Vec::new`, `vec![`,
//!   `.to_vec(`, `.clone()`, `String::from`, `format!`, ...) inside
//!   scopes annotated `// minato-verify: hot-path`.
//! * **V3** — no lock guard held across a blocking call (`recv`, `wait`
//!   on a foreign condvar, `sleep`, `join`), and no second blocking lock
//!   acquisition under a held guard unless the (outer, inner) pair is
//!   documented in `verify/lock_order.toml`.
//! * **V4** — every public item in `crates/{core,exec,pool,cache}` has
//!   a doc comment.
//! * **V5** — every `unsafe` token carries a nearby `// SAFETY:` line.
//!
//! Violations are suppressed either by an inline
//! `// minato-verify: allow(Vn) reason` comment or by an entry in
//! `verify/allow.toml`; the combined allow-list is budgeted (at most
//! [`ALLOW_BUDGET`] entries) so suppressions stay a scarce resource.

use std::fmt;
use std::path::{Path, PathBuf};

pub mod config;
pub mod rules;
pub mod scan;

pub use config::{AllowEntry, AllowList, LockOrder};
pub use rules::{lint_source, FileClass};

/// Hard cap on the total number of allow-list entries (inline comments
/// plus `verify/allow.toml` rows) the workspace may carry.
pub const ALLOW_BUDGET: usize = 10;

/// The five workspace invariant rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// No `.unwrap()` / `.expect(` in library code.
    V1,
    /// No heap-allocation constructors in `hot-path` scopes.
    V2,
    /// No lock guard held across a blocking call or an undocumented
    /// second lock acquisition.
    V3,
    /// Public items in core/exec/pool/cache need doc comments.
    V4,
    /// `unsafe` requires a `// SAFETY:` line.
    V5,
}

impl Rule {
    /// Stable rule identifier, as used in allow comments and reports.
    pub fn id(self) -> &'static str {
        match self {
            Rule::V1 => "V1",
            Rule::V2 => "V2",
            Rule::V3 => "V3",
            Rule::V4 => "V4",
            Rule::V5 => "V5",
        }
    }

    /// Parses a rule identifier (`"V1"`..`"V5"`).
    pub fn parse(s: &str) -> Option<Rule> {
        match s.trim() {
            "V1" => Some(Rule::V1),
            "V2" => Some(Rule::V2),
            "V3" => Some(Rule::V3),
            "V4" => Some(Rule::V4),
            "V5" => Some(Rule::V5),
            _ => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable description of the violation.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// Outcome of linting a whole workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations that survived the allow-list, sorted by file/line.
    pub violations: Vec<Violation>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Inline `minato-verify: allow` comments present in the tree.
    pub inline_allows: usize,
    /// Entries in `verify/allow.toml`.
    pub file_allows: usize,
    /// `allow.toml` entries that suppressed nothing (stale).
    pub stale_allows: Vec<String>,
    /// Malformed inline allow comments (missing reason / bad rule id).
    pub bad_allow_comments: Vec<String>,
}

impl Report {
    /// Total allow-list entries counted against [`ALLOW_BUDGET`].
    pub fn allow_entries(&self) -> usize {
        self.inline_allows + self.file_allows
    }
}

/// Collects the `.rs` files the linter scans: every workspace member's
/// `src/` tree (`crates/*/src`, root `src/`). Test trees, examples and
/// benches are not scanned — V1 is scoped to library code by design,
/// and the dynamic detectors cover the rest at runtime. The `shims/`
/// crates model third-party dependencies and are exempt like any other
/// dependency.
pub fn collect_sources(root: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut names: Vec<PathBuf> = std::fs::read_dir(&crates)
            .map_err(|e| format!("read {}: {e}", crates.display()))?
            .filter_map(|d| d.ok().map(|d| d.path()))
            .collect();
        names.sort();
        for krate in names {
            collect_rs(&krate.join("src"), root, &mut out)?;
        }
    }
    collect_rs(&root.join("src"), root, &mut out)?;
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<(String, PathBuf)>) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(|d| d.ok().map(|d| d.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("strip prefix: {e}"))?
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, path));
        }
    }
    Ok(())
}

/// Lints the workspace rooted at `root` (the directory holding
/// `verify/lock_order.toml` and `verify/allow.toml`).
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let lock_order = LockOrder::load(&root.join("verify/lock_order.toml"))?;
    let allow = AllowList::load(&root.join("verify/allow.toml"))?;
    let files = collect_sources(root)?;
    let mut report = Report {
        file_allows: allow.entries.len(),
        ..Report::default()
    };
    let mut used = vec![false; allow.entries.len()];
    for (rel, path) in &files {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let outcome = lint_source(rel, &text, &lock_order);
        report.files_scanned += 1;
        report.inline_allows += outcome.inline_allows;
        report.bad_allow_comments.extend(outcome.bad_allow_comments);
        for v in outcome.violations {
            match allow.matches(&v) {
                Some(i) => used[i] = true,
                None => report.violations.push(v),
            }
        }
    }
    for (i, entry) in allow.entries.iter().enumerate() {
        if !used[i] {
            report.stale_allows.push(format!(
                "{} {} (line {:?}): {}",
                entry.rule.id(),
                entry.file,
                entry.line,
                entry.reason
            ));
        }
    }
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}
