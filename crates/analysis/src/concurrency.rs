//! Source-level concurrency-discipline lint for the serving stack.
//!
//! The model checker (`revelio-check`) explores interleavings under
//! *sequentially consistent* semantics and detects ordering bugs through
//! vector clocks; what it cannot see is code that never routes through the
//! facade, or a `Relaxed` that the author *meant* as a publication fence.
//! This lint closes that gap at the source level, the same way the tape
//! audits close the shape/stability gap: plain line matching, no syntax
//! tree, so it runs in the `audit` gate with zero dependencies.
//!
//! Two checks:
//!
//! * [`ConcurrencyCheck::RelaxedPublication`] — `Ordering::Relaxed` on an
//!   operation that is not a pure counter access. Relaxed `fetch_add` /
//!   `fetch_sub` / `fetch_max` / `fetch_min` and relaxed `load`s are the
//!   monotonic-counter idiom the stack uses everywhere (metrics, drop
//!   accounting, cache stats) and are exact under quiescence — the model
//!   checker proves that. A relaxed **store** (or `swap` /
//!   `compare_exchange`) is how a publication bug is written: the
//!   seeded-defect suite's histogram-bucket race is exactly a relaxed
//!   store standing in for a `Release` fence.
//! * [`ConcurrencyCheck::FacadeBypass`] — direct `std::sync::atomic` /
//!   `std::sync::Mutex` / `std::sync::mpsc` / `std::thread::spawn` use in
//!   a crate that is supposed to speak [`revelio_check::sync`]. A bypassed
//!   primitive is invisible to the checker, so every new one must either
//!   move onto the facade or carry an explicit [`ConcurrencyAllowance`].
//!
//! Lines inside a trailing `#[cfg(test)] mod …` are skipped (tests
//! legitimately poke internals, e.g. the ring journal's stalled-writer
//! regression rolls the claim counter back with a relaxed store), as are
//! comments.
//!
//! [`revelio_check::sync`]: https://docs.rs/revelio-check

use crate::{ConcurrencyCheck, Diagnostic, DiagnosticKind};

/// A reviewed exemption: a line in `file_suffix` containing
/// `line_contains` is exempt from both checks, for the stated reason.
#[derive(Debug, Clone, Copy)]
pub struct ConcurrencyAllowance {
    /// Matched against the end of the linted file's label.
    pub file_suffix: &'static str,
    /// Substring the exempted line must contain.
    pub line_contains: &'static str,
    /// Why the site is allowed — shown nowhere, reviewed here.
    pub reason: &'static str,
}

/// The reviewed exemptions for this workspace.
pub const WORKSPACE_CONCURRENCY_ALLOWANCES: &[ConcurrencyAllowance] = &[
    ConcurrencyAllowance {
        file_suffix: "runtime/src/pool.rs",
        line_contains: "use std::sync::atomic::AtomicBool;",
        reason: "the cancel flag crosses the facade boundary into \
                 revelio-core's Deadline::with_cancel, which takes the std type",
    },
    ConcurrencyAllowance {
        file_suffix: "runtime/src/pool.rs",
        line_contains: "cancel.store(true, Ordering::Relaxed)",
        reason: "sticky cooperative cancel flag: polled between epochs, \
                 publishes no data, and never resets",
    },
    ConcurrencyAllowance {
        file_suffix: "gateway/src/gateway.rs",
        line_contains: "consecutive_failures.store(0, Ordering::Relaxed)",
        reason: "failure-streak reset: a standalone count compared only \
                 against the threshold, publishing no other data (health \
                 itself is published with Release)",
    },
    ConcurrencyAllowance {
        file_suffix: "gateway/src/gateway.rs",
        line_contains: ".store(s.runtime.",
        reason: "last-poll gauges copied from a backend's stats answer: \
                 each value stands alone and is only read for reporting",
    },
];

/// Lints one source file. `file` is the label used in diagnostics (and
/// matched against allowance suffixes); `facade_required` enables the
/// bypass check — set it for the crates ported onto `revelio_check::sync`
/// (`revelio-trace`, `revelio-runtime`), leave it off for crates that
/// legitimately speak `std` (the server's connection threads, the
/// load generator) where only the `Relaxed` discipline applies.
pub fn lint_concurrency(
    file: &str,
    source: &str,
    facade_required: bool,
    allow: &[ConcurrencyAllowance],
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut cfg_test_armed = false;
    for (idx, raw) in source.lines().enumerate() {
        let lineno = idx + 1;
        let trimmed = raw.trim();
        // Stop at a trailing `#[cfg(test)] mod …`: test internals (seeded
        // counter rollbacks, std fixtures) are out of scope.
        if trimmed.starts_with("#[cfg(test)]") {
            cfg_test_armed = true;
            continue;
        }
        if cfg_test_armed {
            if trimmed.starts_with("mod ") {
                break;
            }
            if !trimmed.starts_with('#') && !trimmed.is_empty() {
                cfg_test_armed = false;
            }
        }
        // Strip line comments (also drops `//!` and `///` doc lines).
        let code = match raw.find("//") {
            Some(pos) => &raw[..pos],
            None => raw,
        };
        if code.trim().is_empty() {
            continue;
        }
        if allow
            .iter()
            .any(|a| file.ends_with(a.file_suffix) && code.contains(a.line_contains))
        {
            continue;
        }

        if code.contains("Ordering::Relaxed") && !is_pure_counter_access(code) {
            diags.push(Diagnostic::container(
                DiagnosticKind::ConcurrencyLint(ConcurrencyCheck::RelaxedPublication),
                format!(
                    "{file}:{lineno}: relaxed ordering outside the pure-counter \
                     idiom (store/swap/CAS must publish with Release/Acquire or \
                     carry a reviewed allowance): `{}`",
                    code.trim()
                ),
            ));
        }

        if facade_required {
            if let Some(pattern) = facade_bypass(code) {
                diags.push(Diagnostic::container(
                    DiagnosticKind::ConcurrencyLint(ConcurrencyCheck::FacadeBypass),
                    format!(
                        "{file}:{lineno}: `{pattern}` bypasses revelio_check::sync, \
                         so the model checker cannot see this primitive: `{}`",
                        code.trim()
                    ),
                ));
            }
        }
    }
    diags
}

/// The counter idiom: relaxed RMW accumulators and relaxed reads. Exact
/// after quiescence (the checker's `metrics_snapshot_is_exact` test), and
/// incapable of standing in for a publication fence by construction.
fn is_pure_counter_access(code: &str) -> bool {
    [
        ".load(",
        ".fetch_add(",
        ".fetch_sub(",
        ".fetch_max(",
        ".fetch_min(",
    ]
    .iter()
    .any(|op| code.contains(op))
}

/// The first `std` concurrency primitive named outside the facade, if any.
fn facade_bypass(code: &str) -> Option<&'static str> {
    [
        "std::sync::atomic",
        "std::sync::Mutex",
        "std::sync::MutexGuard",
        "std::sync::Condvar",
        "std::sync::mpsc",
        "std::thread::spawn",
        "std::thread::Builder",
        "use std::thread",
    ]
    .into_iter()
    .find(|pattern| code.contains(pattern))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(diags: &[Diagnostic]) -> Vec<DiagnosticKind> {
        diags.iter().map(|d| d.kind).collect()
    }

    #[test]
    fn relaxed_counters_and_loads_are_clean() {
        let src = "
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.max_us.fetch_max(us, Ordering::Relaxed);
            let depth = self.queue_depth.load(Ordering::Relaxed);
        ";
        assert!(lint_concurrency("a.rs", src, true, &[]).is_empty());
    }

    #[test]
    fn relaxed_store_is_flagged_as_publication_suspect() {
        let src = "ready.store(1, Ordering::Relaxed);";
        assert_eq!(
            kinds(&lint_concurrency("a.rs", src, false, &[])),
            vec![DiagnosticKind::ConcurrencyLint(
                ConcurrencyCheck::RelaxedPublication
            )]
        );
    }

    #[test]
    fn relaxed_compare_exchange_is_flagged() {
        let src = "state.compare_exchange(0, 1, Ordering::Relaxed, Ordering::Relaxed)";
        assert_eq!(lint_concurrency("a.rs", src, false, &[]).len(), 1);
    }

    #[test]
    fn release_acquire_publication_is_clean() {
        let src = "
            self.stop.store(true, Ordering::Release);
            while !shared.stop.load(Ordering::Acquire) {}
        ";
        assert!(lint_concurrency("a.rs", src, false, &[]).is_empty());
    }

    #[test]
    fn std_primitives_are_flagged_only_in_facade_crates() {
        let src = "
            use std::sync::atomic::AtomicU64;
            let t = std::thread::spawn(move || {});
        ";
        let facade = lint_concurrency("facade.rs", src, true, &[]);
        assert_eq!(
            kinds(&facade),
            vec![
                DiagnosticKind::ConcurrencyLint(ConcurrencyCheck::FacadeBypass),
                DiagnosticKind::ConcurrencyLint(ConcurrencyCheck::FacadeBypass),
            ]
        );
        assert!(lint_concurrency("plain.rs", src, false, &[]).is_empty());
    }

    #[test]
    fn allowance_suppresses_a_reviewed_site() {
        let src = "use std::sync::atomic::AtomicBool;";
        let allow = [ConcurrencyAllowance {
            file_suffix: "pool.rs",
            line_contains: "use std::sync::atomic::AtomicBool;",
            reason: "test",
        }];
        assert!(lint_concurrency("crates/runtime/src/pool.rs", src, true, &allow).is_empty());
        // The allowance is site-specific: other files stay flagged.
        assert_eq!(lint_concurrency("other.rs", src, true, &allow).len(), 1);
    }

    #[test]
    fn comments_and_test_modules_are_skipped() {
        let src = "
//! Workers are plain `std::thread::spawn` threads. (doc comment)
fn body() {} // std::sync::atomic in a trailing comment

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU64;
    fn rollback() { ring.next.store(1, Ordering::Relaxed); }
}
";
        assert!(lint_concurrency("a.rs", src, true, &[]).is_empty());
    }

    #[test]
    fn cfg_test_on_a_non_module_does_not_swallow_the_rest() {
        let src = "
#[cfg(test)]
fn helper() {}
ready.store(1, Ordering::Relaxed);
";
        assert_eq!(lint_concurrency("a.rs", src, false, &[]).len(), 1);
    }
}
