//! The lint catalog and the source-level scanning engine.
//!
//! Each lint is named, individually `--allow`-able on the CLI, and
//! suppressible at a single site with an inline pragma comment:
//!
//! ```text
//! // ses-analyze: allow(lint-name): why this site is fine
//! ```
//!
//! A pragma on line `L` suppresses findings of that lint on lines `L` and
//! `L + 1` (the usual "comment above the offending line" shape).
//!
//! Code under `#[cfg(test)]` / `#[test]` items is exempt from the
//! discipline lints (atomics, panics, wall clock): tests may panic and
//! may use whatever clocks and atomics they need. The exemption is a
//! token-level heuristic — an attribute that mentions `test` without a
//! `not(...)` exempts the item (fn/mod/impl) it precedes.

use crate::lexer::{lex, Token, TokenKind};
use crate::report::Finding;

/// Static description of one lint.
#[derive(Debug, Clone, Copy)]
pub struct LintInfo {
    /// Kebab-case name used by `--allow` and pragmas.
    pub name: &'static str,
    /// One-line description for `--list` and reports.
    pub description: &'static str,
}

/// Every lint the tool knows, in report order.
pub const LINTS: [LintInfo; 6] = [
    LintInfo {
        name: "atomics-confinement",
        description: "atomic types only in the audited lock-free modules \
                      (crates/obs, crates/compat, server metrics, server \
                      shutdown flags) — everywhere else use locks or channels",
    },
    LintInfo {
        name: "unsafe-needs-safety-comment",
        description: "every `unsafe` must be preceded by a `// SAFETY:` \
                      comment (within the three lines above) stating the \
                      obligations and why they hold",
    },
    LintInfo {
        name: "server-panic-discipline",
        description: "no .unwrap()/.expect()/panic! in server \
                      request-handling code outside #[cfg(test)] — answer \
                      structured errors instead of killing the handler",
    },
    LintInfo {
        name: "wall-clock-in-core",
        description: "no Instant::now/SystemTime::now in the deterministic \
                      core/sim layers except allowlisted timing sites — \
                      wall clocks must never steer algorithm decisions",
    },
    LintInfo {
        name: "kernel-unsafe-confinement",
        description: "in crates/core, `unsafe` lives only in the scoring \
                      kernel module (crates/core/src/engine/kernel.rs) — \
                      the rest of the deterministic core stays safe Rust \
                      so the bit-exactness argument has one audit surface",
    },
    LintInfo {
        name: "external-deps",
        description: "every dependency outside crates/compat must be a \
                      workspace or path dependency (the build is offline; \
                      registry deps cannot resolve)",
    },
];

/// Whether `name` is a known lint.
pub fn is_known_lint(name: &str) -> bool {
    LINTS.iter().any(|l| l.name == name)
}

/// Files (path prefixes, `/`-separated, repo-relative) allowed to use
/// atomics directly. Everything here is either model-checked under the
/// shuttle explorer (obs, server metrics), part of the explorer itself
/// (compat), or a documented signal/shutdown flag (server.rs).
const ATOMIC_ALLOWLIST: [&str; 4] = [
    "crates/obs/",
    "crates/compat/",
    "crates/server/src/metrics.rs",
    "crates/server/src/server.rs",
];

/// Server files whose code runs on the request path (panic discipline).
/// Client-side tooling (client.rs, loadgen.rs, replay.rs) may panic: it
/// reports to a human, not to a socket. The core store is included because
/// the registry lazily opens packed tenant files while serving requests —
/// a corrupt file must answer a structured 500, never take the shard down.
/// The durable crate's WAL and recovery paths run under shard locks
/// (every append is on the event hot path, and recovery gates boot), so a
/// torn tail or corrupt segment must come back as a typed `WalError`,
/// never a panic.
const SERVER_REQUEST_PATH: [&str; 7] = [
    "crates/server/src/server.rs",
    "crates/server/src/shard.rs",
    "crates/server/src/http.rs",
    "crates/server/src/metrics.rs",
    "crates/core/src/store.rs",
    "crates/durable/src/wal.rs",
    "crates/durable/src/recover.rs",
];

/// Deterministic layers where wall clocks are confined to allowlisted
/// timing sites (pragma-marked: they feed `SolveStats`/throughput
/// reporting, never algorithm decisions).
const DETERMINISTIC_SCOPES: [&str; 2] = ["crates/core/", "crates/sim/"];

/// Scope of the kernel-unsafe confinement: inside this tree, `unsafe`
/// may appear only in [`KERNEL_MODULE`] (and tests). The chunked scoring
/// kernel is the one place where bounds checks are hand-argued away;
/// keeping every other core module safe keeps that audit surface small.
const KERNEL_UNSAFE_SCOPE: &str = "crates/core/";

/// The single core module allowed to contain `unsafe` code. SAFETY
/// comments are still required there by `unsafe-needs-safety-comment`.
const KERNEL_MODULE: &str = "crates/core/src/engine/kernel.rs";

fn path_in(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| {
        path == p.trim_end_matches('/') || path.starts_with(p) || (p.ends_with(".rs") && path == *p)
    })
}

/// Inline pragma state: which (lint, line) pairs are suppressed.
struct Pragmas {
    /// (lint name, pragma line) pairs; each suppresses its line and the next.
    allows: Vec<(String, usize)>,
}

impl Pragmas {
    fn collect(tokens: &[Token], path: &str, findings: &mut Vec<Finding>) -> Self {
        let mut allows = Vec::new();
        for t in tokens {
            if t.kind != TokenKind::LineComment {
                continue;
            }
            let Some(rest) = t
                .text
                .trim_start_matches('/')
                .trim()
                .strip_prefix("ses-analyze:")
            else {
                continue;
            };
            let rest = rest.trim();
            if let Some(inner) = rest.strip_prefix("allow(").and_then(|r| r.split_once(')')) {
                let name = inner.0.trim();
                if is_known_lint(name) {
                    allows.push((name.to_owned(), t.line));
                } else {
                    findings.push(Finding {
                        lint: "unknown-pragma".to_owned(),
                        file: path.to_owned(),
                        line: t.line,
                        message: format!("pragma names unknown lint `{name}`"),
                    });
                }
            } else {
                findings.push(Finding {
                    lint: "unknown-pragma".to_owned(),
                    file: path.to_owned(),
                    line: t.line,
                    message: "malformed ses-analyze pragma (expected `allow(<lint>): reason`)"
                        .to_owned(),
                });
            }
        }
        Self { allows }
    }

    fn suppressed(&self, lint: &str, line: usize) -> bool {
        self.allows
            .iter()
            .any(|(name, l)| name == lint && (line == *l || line == *l + 1))
    }
}

/// Marks which tokens sit inside `#[test]` / `#[cfg(test)]` items.
fn test_region_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        // Scan the attribute body `#[ … ]`.
        let mut j = i + 2;
        let mut depth = 1;
        let mut mentions_test = false;
        let mut mentions_not = false;
        while j < tokens.len() && depth > 0 {
            if tokens[j].is_punct('[') {
                depth += 1;
            } else if tokens[j].is_punct(']') {
                depth -= 1;
            } else if tokens[j].is_ident("test") {
                mentions_test = true;
            } else if tokens[j].is_ident("not") {
                mentions_not = true;
            }
            j += 1;
        }
        if !mentions_test || mentions_not {
            i = j;
            continue;
        }
        // Exempt region: attribute + following item. Skip any further
        // attributes, then consume to the end of the item: the matching
        // `}` of its first brace, or a `;` at brace depth 0.
        let region_start = i;
        let mut k = j;
        while k < tokens.len() && tokens[k].is_punct('#') {
            // another attribute — skip its [ … ]
            let mut d = 0;
            k += 1;
            if k < tokens.len() && tokens[k].is_punct('[') {
                loop {
                    if k >= tokens.len() {
                        break;
                    }
                    if tokens[k].is_punct('[') {
                        d += 1;
                    } else if tokens[k].is_punct(']') {
                        d -= 1;
                        if d == 0 {
                            k += 1;
                            break;
                        }
                    }
                    k += 1;
                }
            }
        }
        let mut brace = 0i64;
        while k < tokens.len() {
            if tokens[k].is_punct('{') {
                brace += 1;
            } else if tokens[k].is_punct('}') {
                brace -= 1;
                if brace == 0 {
                    k += 1;
                    break;
                }
            } else if tokens[k].is_punct(';') && brace == 0 {
                k += 1;
                break;
            }
            k += 1;
        }
        for m in mask.iter_mut().take(k).skip(region_start) {
            *m = true;
        }
        i = k;
    }
    mask
}

/// Runs every source-level lint over one file. `path` must be
/// repo-relative with `/` separators (it selects which lints apply).
pub fn analyze_source(path: &str, source: &str) -> Vec<Finding> {
    let tokens = lex(source);
    let mut findings = Vec::new();
    let pragmas = Pragmas::collect(&tokens, path, &mut findings);
    let in_test = test_region_mask(&tokens);

    let push = |findings: &mut Vec<Finding>, lint: &str, line: usize, message: String| {
        if !pragmas.suppressed(lint, line) {
            findings.push(Finding {
                lint: lint.to_owned(),
                file: path.to_owned(),
                line,
                message,
            });
        }
    };

    // --- atomics-confinement -------------------------------------------
    if !path_in(path, &ATOMIC_ALLOWLIST) {
        for (idx, t) in tokens.iter().enumerate() {
            if in_test[idx] || t.kind != TokenKind::Ident {
                continue;
            }
            let atomic_type = t.text.starts_with("Atomic") && t.text.len() > "Atomic".len();
            // `…::sync::atomic` path segment (covers `use std::sync::atomic`).
            let atomic_path = t.is_ident("atomic")
                && idx >= 3
                && tokens[idx - 1].is_punct(':')
                && tokens[idx - 2].is_punct(':')
                && tokens[idx - 3].is_ident("sync");
            if atomic_type || atomic_path {
                push(
                    &mut findings,
                    "atomics-confinement",
                    t.line,
                    format!(
                        "`{}` outside the audited lock-free modules — use locks/channels, \
                         or move the code into an allowlisted module",
                        t.text
                    ),
                );
            }
        }
    }

    // --- unsafe-needs-safety-comment -----------------------------------
    for (idx, t) in tokens.iter().enumerate() {
        if !t.is_ident("unsafe") {
            continue;
        }
        // Walk up the contiguous comment block above the `unsafe` (skipping
        // earlier tokens on its own line): any line of it may carry the
        // `SAFETY:` marker, so long multi-line arguments stay legal.
        let mut covered = false;
        let mut expect_line = t.line;
        for p in tokens[..idx].iter().rev() {
            if p.line == t.line {
                continue;
            }
            if p.is_comment() && p.line + 3 >= expect_line {
                if p.text.contains("SAFETY:") {
                    covered = true;
                    break;
                }
                expect_line = p.line;
                continue;
            }
            break;
        }
        if !covered {
            push(
                &mut findings,
                "unsafe-needs-safety-comment",
                t.line,
                "`unsafe` without a `// SAFETY:` comment in the three lines above".to_owned(),
            );
        }
    }

    // --- kernel-unsafe-confinement -------------------------------------
    if path.starts_with(KERNEL_UNSAFE_SCOPE) && path != KERNEL_MODULE {
        for (idx, t) in tokens.iter().enumerate() {
            if in_test[idx] || !t.is_ident("unsafe") {
                continue;
            }
            push(
                &mut findings,
                "kernel-unsafe-confinement",
                t.line,
                format!(
                    "`unsafe` in the deterministic core outside {KERNEL_MODULE} — \
                     move the code into the kernel module or write it in safe Rust"
                ),
            );
        }
    }

    // --- server-panic-discipline ---------------------------------------
    if path_in(path, &SERVER_REQUEST_PATH) {
        for (idx, t) in tokens.iter().enumerate() {
            if in_test[idx] {
                continue;
            }
            let method_call = (t.is_ident("unwrap") || t.is_ident("expect"))
                && idx >= 1
                && tokens[idx - 1].is_punct('.')
                && tokens.get(idx + 1).is_some_and(|n| n.is_punct('('));
            let panic_macro =
                (t.is_ident("panic") || t.is_ident("unreachable") || t.is_ident("todo"))
                    && tokens.get(idx + 1).is_some_and(|n| n.is_punct('!'));
            if method_call || panic_macro {
                push(
                    &mut findings,
                    "server-panic-discipline",
                    t.line,
                    format!(
                        "`{}` on the server request path — answer a structured error \
                         (or pragma-allow a boot-time fail-fast site)",
                        t.text
                    ),
                );
            }
        }
    }

    // --- wall-clock-in-core --------------------------------------------
    if path_in(path, &DETERMINISTIC_SCOPES) {
        for (idx, t) in tokens.iter().enumerate() {
            if in_test[idx] {
                continue;
            }
            let clock_now = t.is_ident("now")
                && idx >= 3
                && tokens[idx - 1].is_punct(':')
                && tokens[idx - 2].is_punct(':')
                && (tokens[idx - 3].is_ident("Instant") || tokens[idx - 3].is_ident("SystemTime"));
            if clock_now {
                push(
                    &mut findings,
                    "wall-clock-in-core",
                    t.line,
                    format!(
                        "`{}::now` in the deterministic layer — clocks may only feed \
                         reporting (pragma-allow such sites), never decisions",
                        tokens[idx - 3].text
                    ),
                );
            }
        }
    }

    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_region_mask_covers_cfg_test_mod() {
        let tokens =
            lex("fn a() {}\n#[cfg(test)]\nmod tests { fn b() { x.unwrap(); } }\nfn c() {}");
        let mask = test_region_mask(&tokens);
        let unwrap_idx = tokens.iter().position(|t| t.is_ident("unwrap")).unwrap();
        let a_idx = tokens.iter().position(|t| t.is_ident("a")).unwrap();
        let c_idx = tokens.iter().position(|t| t.is_ident("c")).unwrap();
        assert!(mask[unwrap_idx]);
        assert!(!mask[a_idx]);
        assert!(!mask[c_idx]);
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let tokens = lex("#[cfg(not(test))]\nfn a() { x.unwrap(); }");
        let mask = test_region_mask(&tokens);
        let unwrap_idx = tokens.iter().position(|t| t.is_ident("unwrap")).unwrap();
        assert!(!mask[unwrap_idx]);
    }

    #[test]
    fn pragma_suppresses_its_line_and_the_next() {
        let src = "\
// ses-analyze: allow(server-panic-discipline): boot-time fail fast
x.expect(\"boot\");
y.expect(\"not covered\");
";
        let f = analyze_source("crates/server/src/server.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn unknown_pragma_is_itself_a_finding() {
        let f = analyze_source(
            "crates/core/src/x.rs",
            "// ses-analyze: allow(no-such-lint): x\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, "unknown-pragma");
    }

    #[test]
    fn kernel_module_and_core_tests_are_exempt_from_unsafe_confinement() {
        let src = "\
// SAFETY: caller guarantees `p` is valid for reads.
pub fn peek(p: *const u8) -> u8 { unsafe { *p } }
";
        // In the kernel module: confinement does not fire (SAFETY present,
        // so nothing fires at all).
        let kernel = analyze_source(KERNEL_MODULE, src);
        assert!(kernel.is_empty(), "{kernel:?}");
        // Anywhere else in core: exactly the confinement finding.
        let stray = analyze_source("crates/core/src/engine/columns.rs", src);
        assert_eq!(stray.len(), 1, "{stray:?}");
        assert_eq!(stray[0].lint, "kernel-unsafe-confinement");
        // Outside core the lint is out of scope.
        let elsewhere = analyze_source("crates/obs/src/peek.rs", src);
        assert!(elsewhere.is_empty(), "{elsewhere:?}");
        // Test code in core may use unsafe (e.g. miri-style probes).
        let in_test = analyze_source(
            "crates/core/src/engine/columns.rs",
            "#[cfg(test)]\nmod tests {\n// SAFETY: test-local.\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n}\n",
        );
        assert!(in_test.is_empty(), "{in_test:?}");
    }

    #[test]
    fn unwrap_or_else_is_not_a_panic_site() {
        let f = analyze_source(
            "crates/server/src/server.rs",
            "let x = lock.lock().unwrap_or_else(|p| p.into_inner());\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
