//! The determinism rules and the per-file checker.
//!
//! Rules are tier-aware. The *deterministic* tier (`dr-core`, `dr-sim`,
//! `dr-protocols`, `dr-oracle`) carries every promise of bit-identical
//! replay, so it gets the full set; the *tooling* tier (`dr-bench`,
//! `dr-cli`, `dr-runtime`, `dr-lint`) may read wall clocks and use
//! unordered maps, except in files that feed the replay artifacts
//! (`ScheduleTrace` / `RunReport`), where unordered iteration could leak
//! into recorded schedules.

use crate::tokenizer::{scan, Token, TokenKind};
use crate::{Diagnostic, Tier};

/// Rule: `HashMap`/`HashSet` in deterministic state.
pub const RULE_UNORDERED: &str = "unordered-collections";
/// Rule: wall-clock reads (`Instant`, `SystemTime`, `UNIX_EPOCH`).
pub const RULE_WALL_CLOCK: &str = "wall-clock";
/// Rule: entropy-seeded RNG (`thread_rng`, `rand::random`, `from_entropy`).
pub const RULE_ENTROPY_RNG: &str = "entropy-rng";
/// Rule: deterministic-tier `lib.rs` missing `#![forbid(unsafe_code)]`.
pub const RULE_FORBID_UNSAFE: &str = "missing-forbid-unsafe";
/// Rule: malformed `dr-lint: allow(...)` escape hatch.
pub const RULE_BAD_ALLOW: &str = "bad-allow";
/// Rule: payload binding cloned inside a `send`/`broadcast` call.
pub const RULE_PAYLOAD_CLONE: &str = "payload-clone";
/// Rule: raw `thread::spawn`/`thread::scope`/`thread::Builder` outside the
/// trial fan-out (`dr_bench::par::run_indexed`).
pub const RULE_RAW_THREAD: &str = "raw-thread-spawn";
/// Rule: explicit atomic memory orderings without a justifying allow
/// (`SeqCst` is flagged as a lazy default, weaker orderings as claims
/// that need their invariant stated).
pub const RULE_ATOMIC_ORDERING: &str = "atomic-ordering";
/// Rule: a lock acquired while another guard binding is still live in the
/// same lexical scope (nested-guard deadlock risk).
pub const RULE_LOCK_DISCIPLINE: &str = "lock-discipline";

/// Every rule name, for `allow(...)` validation and docs.
pub const ALL_RULES: &[&str] = &[
    RULE_UNORDERED,
    RULE_WALL_CLOCK,
    RULE_ENTROPY_RNG,
    RULE_FORBID_UNSAFE,
    RULE_BAD_ALLOW,
    RULE_PAYLOAD_CLONE,
    RULE_RAW_THREAD,
    RULE_ATOMIC_ORDERING,
    RULE_LOCK_DISCIPLINE,
];

/// Bindings the `payload-clone` rule treats as message payloads. These are
/// the conventional names protocol code gives to `BitArray`-typed data
/// (matching the tokenizer's type-blind view of the source).
const PAYLOAD_NAMES: &[&str] = &["bits", "values", "payload"];

/// A parsed `// dr-lint: allow(<rule>): <justification>` comment.
struct Allow {
    rule: String,
    /// The single source line this allow suppresses: its own line for a
    /// trailing comment, the next line for a standalone one.
    target_line: usize,
}

/// Extracts allow comments, reporting malformed ones as diagnostics.
fn collect_allows(
    file: &str,
    scanned: &crate::tokenizer::Scan,
    out: &mut Vec<Diagnostic>,
) -> Vec<Allow> {
    let mut allows = Vec::new();
    for c in &scanned.comments {
        // The directive must be the comment's whole purpose: anchored at
        // the start, after the `//`/`/*`/`//!` markers. Prose that merely
        // mentions the syntax mid-sentence is not a directive.
        let body = c.text.trim_start_matches(['/', '*', '!']).trim_start();
        let Some(rest) = body.strip_prefix("dr-lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix("allow") else {
            out.push(Diagnostic {
                file: file.to_string(),
                line: c.line,
                col: c.col,
                rule: RULE_BAD_ALLOW,
                message:
                    "unrecognized dr-lint directive (only `allow(<rule>): <justification>` exists)"
                        .into(),
                suggestion: "write `// dr-lint: allow(<rule>): <why this is sound>`".into(),
            });
            continue;
        };
        let rest = rest.trim_start();
        let (rule, after) = match rest.strip_prefix('(').and_then(|r| r.split_once(')')) {
            Some((rule, after)) => (rule.trim(), after),
            None => {
                out.push(Diagnostic {
                    file: file.to_string(),
                    line: c.line,
                    col: c.col,
                    rule: RULE_BAD_ALLOW,
                    message: "dr-lint allow is missing its `(<rule>)`".into(),
                    suggestion: format!("name one of: {}", ALL_RULES.join(", ")),
                });
                continue;
            }
        };
        if !ALL_RULES.contains(&rule) {
            out.push(Diagnostic {
                file: file.to_string(),
                line: c.line,
                col: c.col,
                rule: RULE_BAD_ALLOW,
                message: format!("dr-lint allow names unknown rule '{rule}'"),
                suggestion: format!("name one of: {}", ALL_RULES.join(", ")),
            });
            continue;
        }
        // The justification is mandatory: a colon followed by non-empty
        // prose. An allow without a reason is itself a diagnostic.
        let justification = after.trim_start().strip_prefix(':').map(str::trim);
        match justification {
            Some(j) if !j.is_empty() => allows.push(Allow {
                rule: rule.to_string(),
                target_line: if c.trailing { c.line } else { c.line + 1 },
            }),
            _ => out.push(Diagnostic {
                file: file.to_string(),
                line: c.line,
                col: c.col,
                rule: RULE_BAD_ALLOW,
                message: format!("dr-lint allow({rule}) has no justification"),
                suggestion: "append `: <why this specific use is deterministic/sound>`".into(),
            }),
        }
    }
    allows
}

/// Whether the ident at `i` completes the path `a::b` ending here (i.e.
/// tokens `[.., Ident(a), ':', ':', tokens[i]]`).
fn path_prefix_is(tokens: &[Token], i: usize, a: &str) -> bool {
    i >= 3
        && tokens[i - 1].is_punct(':')
        && tokens[i - 2].is_punct(':')
        && tokens[i - 3].is_ident(a)
}

/// Checks one file's source against every rule for its tier.
///
/// `is_lib_rs` enables the `missing-forbid-unsafe` check (it only applies
/// to crate roots). Diagnostics suppressed by a well-formed
/// `dr-lint: allow` comment are dropped; malformed allows are reported.
pub fn check_source(file: &str, source: &str, tier: Tier, is_lib_rs: bool) -> Vec<Diagnostic> {
    let scanned = scan(source);
    let mut raw: Vec<Diagnostic> = Vec::new();
    let mut out: Vec<Diagnostic> = Vec::new();
    let allows = collect_allows(file, &scanned, &mut out);

    let tokens = &scanned.tokens;
    // Tooling-tier files only get the unordered-collections rule when
    // they touch the replay artifacts.
    let feeds_replay = tokens
        .iter()
        .any(|t| t.is_ident("ScheduleTrace") || t.is_ident("RunReport"));
    // `.write()`/`.read()` only mean lock acquisition in files that
    // actually use an RwLock (io traits share the method names).
    let has_rwlock = tokens.iter().any(|t| t.is_ident("RwLock"));

    // Whether the current token sits inside a `use` declaration. Imports
    // name orderings without *using* them (`use std::sync::atomic::Ordering`
    // or even `Ordering::Relaxed`), so the atomic-ordering rule must not
    // treat them like call sites.
    let mut in_use = false;

    for (i, t) in tokens.iter().enumerate() {
        if t.is_punct(';') {
            in_use = false;
        }
        if t.kind != TokenKind::Ident {
            continue;
        }
        if t.text == "use" {
            in_use = true;
            continue;
        }
        match t.text.as_str() {
            "HashMap" | "HashSet" => {
                let flagged = match tier {
                    Tier::Deterministic => true,
                    Tier::Tooling => feeds_replay,
                };
                if flagged {
                    let det = if t.text == "HashMap" {
                        "DetMap"
                    } else {
                        "DetSet"
                    };
                    let btree = if t.text == "HashMap" {
                        "BTreeMap"
                    } else {
                        "BTreeSet"
                    };
                    raw.push(Diagnostic {
                        file: file.to_string(),
                        line: t.line,
                        col: t.col,
                        rule: RULE_UNORDERED,
                        message: format!(
                            "{} has random iteration order{}",
                            t.text,
                            if tier == Tier::Tooling {
                                " and this file feeds ScheduleTrace/RunReport"
                            } else {
                                ""
                            }
                        ),
                        suggestion: format!(
                            "use dr_core::collections::{det} (or std::collections::{btree}) so iteration is a pure function of the data"
                        ),
                    });
                }
            }
            "Instant" | "SystemTime" | "UNIX_EPOCH" if tier == Tier::Deterministic => {
                raw.push(Diagnostic {
                    file: file.to_string(),
                    line: t.line,
                    col: t.col,
                    rule: RULE_WALL_CLOCK,
                    message: format!("{} reads the wall clock", t.text),
                    suggestion:
                        "deterministic crates must use simulated time (dr_sim::Ticks); move timing to the tooling tier"
                            .into(),
                });
            }
            // `use std::time::*` can smuggle `Instant`/`SystemTime` in
            // without naming them.
            "time" if tier == Tier::Deterministic && path_prefix_is(tokens, i, "std") => {
                let glob = tokens.get(i + 1).is_some_and(|a| a.is_punct(':'))
                    && tokens.get(i + 2).is_some_and(|a| a.is_punct(':'))
                    && tokens.get(i + 3).is_some_and(|a| a.is_punct('*'));
                if glob {
                    raw.push(Diagnostic {
                        file: file.to_string(),
                        line: t.line,
                        col: t.col,
                        rule: RULE_WALL_CLOCK,
                        message: "glob import of std::time can bring wall-clock types into scope"
                            .into(),
                        suggestion: "import std::time::Duration explicitly if that is all you need"
                            .into(),
                    });
                }
            }
            "thread_rng" | "from_entropy" if tier == Tier::Deterministic => {
                raw.push(Diagnostic {
                    file: file.to_string(),
                    line: t.line,
                    col: t.col,
                    rule: RULE_ENTROPY_RNG,
                    message: format!("{} seeds randomness from OS entropy", t.text),
                    suggestion:
                        "derive every RNG from the run seed (SeedableRng::seed_from_u64 via the simulation builder)"
                            .into(),
                });
            }
            // payload-clone: `<payload>.clone()` inside the argument list
            // of a `.send(...)`/`.broadcast(...)` method call. The shared
            // `BitArray` buffer makes a *message* clone O(1); cloning the
            // payload binding at each call site instead keeps the
            // pre-zero-copy O(k·n) fan-out shape alive in the source and
            // defeats the move-the-binding idiom the simulator is built
            // around.
            "send" | "broadcast"
                if tier == Tier::Deterministic
                    && i >= 1
                    && tokens[i - 1].is_punct('.')
                    && tokens.get(i + 1).is_some_and(|a| a.is_punct('(')) =>
            {
                let call = t.text.clone();
                // Walk the call's parenthesized argument list (struct
                // literal braces inside it do not nest parens).
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < tokens.len() && depth > 0 {
                    let a = &tokens[j];
                    if a.is_punct('(') {
                        depth += 1;
                    } else if a.is_punct(')') {
                        depth -= 1;
                    } else if a.kind == TokenKind::Ident
                        && PAYLOAD_NAMES.contains(&a.text.as_str())
                        && tokens.get(j + 1).is_some_and(|b| b.is_punct('.'))
                        && tokens.get(j + 2).is_some_and(|b| b.is_ident("clone"))
                        && tokens.get(j + 3).is_some_and(|b| b.is_punct('('))
                    {
                        raw.push(Diagnostic {
                            file: file.to_string(),
                            line: a.line,
                            col: a.col,
                            rule: RULE_PAYLOAD_CLONE,
                            message: format!(
                                "`{}.clone()` inside a `{call}` call clones the payload binding per call site",
                                a.text
                            ),
                            suggestion: format!(
                                "BitArray's Clone is an O(1) shared-buffer bump — build the message once, \
                                 move `{}` into it, and clone the message per recipient (retain a copy \
                                 with a clone *outside* the {call} expression if needed)",
                                a.text
                            ),
                        });
                    }
                    j += 1;
                }
            }
            // raw-thread-spawn: trials fan out through one function,
            // `dr_bench::par::run_indexed`. An ad-hoc `thread::spawn` (or
            // a scoped pool via `thread::scope`/`thread::Builder`) ignores
            // `dr`'s `--threads` knob, so the knob stops describing
            // reality. Applies to both tiers —
            // deterministic crates must not thread at all. The only escape
            // is an anchored allow, which `run_indexed` itself carries.
            "spawn" | "scope" | "Builder" if path_prefix_is(tokens, i, "thread") => {
                raw.push(Diagnostic {
                    file: file.to_string(),
                    line: t.line,
                    col: t.col,
                    rule: RULE_RAW_THREAD,
                    message: format!(
                        "thread::{} creates OS threads outside the trial fan-out",
                        t.text
                    ),
                    suggestion: "fan trials out with dr_bench::par::run_indexed; a \
                         genuinely unpoolable thread needs a \
                         `dr-lint: allow(raw-thread-spawn)` with its reason"
                        .into(),
                });
            }
            // atomic-ordering: every explicit ordering at a call site is a
            // claim about the program's happens-before graph. `SeqCst` is
            // flagged as the lazy default (it hides the actual invariant
            // and costs fences); weaker orderings are flagged until the
            // invariant they rely on is stated in an anchored allow.
            "Relaxed" | "Acquire" | "Release" | "AcqRel" | "SeqCst"
                if path_prefix_is(tokens, i, "Ordering") && !in_use =>
            {
                let (message, suggestion) = if t.text == "SeqCst" {
                    (
                        "Ordering::SeqCst is the lazy default, not a justification".to_string(),
                        "pick the weakest ordering the invariant actually needs and state it \
                         with `// dr-lint: allow(atomic-ordering): <invariant>` (DESIGN.md §4); \
                         keep SeqCst only with a written reason"
                            .to_string(),
                    )
                } else {
                    (
                        format!(
                            "Ordering::{} asserts a memory-ordering invariant without stating it",
                            t.text
                        ),
                        "anchor `// dr-lint: allow(atomic-ordering): <why this ordering is \
                         sufficient>` on this line (DESIGN.md §4 has the contract)"
                            .to_string(),
                    )
                };
                raw.push(Diagnostic {
                    file: file.to_string(),
                    line: t.line,
                    col: t.col,
                    rule: RULE_ATOMIC_ORDERING,
                    message,
                    suggestion,
                });
            }
            "random" if tier == Tier::Deterministic && path_prefix_is(tokens, i, "rand") => {
                raw.push(Diagnostic {
                    file: file.to_string(),
                    line: t.line,
                    col: t.col,
                    rule: RULE_ENTROPY_RNG,
                    message: "rand::random draws from the entropy-seeded thread RNG".into(),
                    suggestion:
                        "derive every RNG from the run seed (SeedableRng::seed_from_u64 via the simulation builder)"
                            .into(),
                });
            }
            _ => {}
        }
    }

    // lock-discipline: a tokenizer-level nesting heuristic in the style of
    // `payload-clone`. A guard binding (`let g = x.lock()…`) is live from
    // its statement until `drop(g)` or the end of its block; acquiring
    // another lock while one is live is the two-guard shape that invites
    // ABBA deadlocks, so it
    // needs an anchored allow stating the lock order. Statement-temporary
    // guards (`x.lock().unwrap().push(…)`) do not outlive their statement
    // and are not tracked.
    {
        let mut depth = 0usize;
        let mut guards: Vec<(String, usize)> = Vec::new();
        // Token index where the current statement begins, for spotting
        // `let <name> = … .lock() …;` bindings.
        let mut stmt_start = 0usize;
        for (i, t) in tokens.iter().enumerate() {
            if t.is_punct('{') {
                depth += 1;
                stmt_start = i + 1;
            } else if t.is_punct('}') {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.1 <= depth);
                stmt_start = i + 1;
            } else if t.is_punct(';') {
                stmt_start = i + 1;
            } else if t.is_ident("drop")
                && tokens.get(i + 1).is_some_and(|a| a.is_punct('('))
                && tokens.get(i + 3).is_some_and(|a| a.is_punct(')'))
            {
                if let Some(n) = tokens.get(i + 2) {
                    guards.retain(|g| g.0 != n.text);
                }
            } else if t.kind == TokenKind::Ident
                && (t.text == "lock" || (has_rwlock && (t.text == "write" || t.text == "read")))
                && i >= 1
                && tokens[i - 1].is_punct('.')
                && tokens.get(i + 1).is_some_and(|a| a.is_punct('('))
            {
                if let Some((name, _)) = guards.first() {
                    raw.push(Diagnostic {
                        file: file.to_string(),
                        line: t.line,
                        col: t.col,
                        rule: RULE_LOCK_DISCIPLINE,
                        message: format!(
                            "`.{}()` acquired while guard `{name}` is still live in this scope",
                            t.text
                        ),
                        suggestion: format!(
                            "release `{name}` first (drop({name}) or a narrower block), or \
                             state the global lock order with \
                             `// dr-lint: allow(lock-discipline): <order>`"
                        ),
                    });
                }
                // A `let`-bound guard outlives its statement.
                if tokens.get(stmt_start).is_some_and(|a| a.is_ident("let")) {
                    let mut j = stmt_start + 1;
                    while tokens.get(j).is_some_and(|a| a.is_ident("mut")) {
                        j += 1;
                    }
                    if let Some(name) = tokens.get(j).filter(|a| a.kind == TokenKind::Ident) {
                        guards.push((name.text.clone(), depth));
                    }
                }
            }
        }
    }

    if is_lib_rs && tier == Tier::Deterministic {
        let has_forbid = tokens.windows(4).any(|w| {
            w[0].is_ident("forbid")
                && w[1].is_punct('(')
                && w[2].is_ident("unsafe_code")
                && w[3].is_punct(')')
        });
        if !has_forbid {
            raw.push(Diagnostic {
                file: file.to_string(),
                line: 1,
                col: 1,
                rule: RULE_FORBID_UNSAFE,
                message: "deterministic-tier crate root lacks #![forbid(unsafe_code)]".into(),
                suggestion: "add `#![forbid(unsafe_code)]` at the top of lib.rs".into(),
            });
        }
    }

    // Apply allow suppression: each well-formed allow silences matching
    // diagnostics on exactly its target line.
    for d in raw {
        let suppressed = allows
            .iter()
            .any(|a| a.rule == d.rule && a.target_line == d.line);
        if !suppressed {
            out.push(d);
        }
    }
    out.sort_by_key(|a| (a.line, a.col));
    out
}
