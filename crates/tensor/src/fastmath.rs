//! The opt-in fast-math tier (`UVD_FAST_MATH=1`).
//!
//! The default numeric contract of every kernel in this crate is **bitwise
//! determinism**: one accumulator chain per output element, ascending-`k`,
//! separate mul + add (DESIGN.md §"Determinism tiers"). That contract is what
//! makes [`crate::oracle`]'s naive kernels an exact reference and lets the differential tests assert
//! `==` on floats. It also leaves throughput on the table: fused
//! multiply-add issues one instruction where the deterministic tier needs
//! two, and it skips an intermediate rounding.
//!
//! Setting `UVD_FAST_MATH=1` (or entering [`with_fast_math`]) switches the
//! dense/sparse kernel dispatch to FMA microkernels with wider accumulator
//! panels. Results then differ from the deterministic tier by rounding only
//! — validated by tolerance-based differential tests, not bitwise ones — but
//! remain **run-to-run and thread-count deterministic**: the fast tier keeps
//! the fixed ascending-`k` chain per element, it just evaluates each step
//! with fused rounding.
//!
//! The flag is resolved once per kernel invocation *on the calling thread*
//! and passed down into worker closures, so a [`with_fast_math`] scope
//! applies to the parallel portion of a kernel even though workers run on
//! pool threads. The [`crate::par`] primitives also install the dispatching
//! thread's tier inside every worker, so the scope reaches kernels that a
//! worker closure calls itself (a per-image conv inside a row partition). On CPUs without FMA the fast tier silently falls back to
//! the deterministic kernels (there is nothing faster to dispatch to).

use std::cell::Cell;
use std::sync::OnceLock;

/// Parse a `UVD_FAST_MATH` value. Accepted: `0` (deterministic, the default)
/// and `1` (fast-math), surrounding whitespace ignored. Anything else is
/// rejected.
pub(crate) fn parse_fast_math(s: &str) -> Option<bool> {
    match s.trim() {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    }
}

fn env_fast_math() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| uvd_obs::env_knob("UVD_FAST_MATH", "0, 1", parse_fast_math).unwrap_or(false))
}

thread_local! {
    /// Per-thread override of the configured tier (None = use env).
    static OVERRIDE: Cell<Option<bool>> = const { Cell::new(None) };
}

/// True when the fast-math tier is requested on this thread: the
/// [`with_fast_math`] override if set, else `UVD_FAST_MATH`. Kernels read
/// this once at entry and thread the answer into their worker closures.
pub fn enabled() -> bool {
    OVERRIDE.with(|o| o.get()).unwrap_or_else(env_fast_math)
}

/// Run `f` with the fast-math tier forced on or off on this thread,
/// regardless of `UVD_FAST_MATH`. Used by the tolerance differential tests
/// and by perfsnap's deterministic-vs-fast-math columns to measure both
/// tiers in one process.
pub fn with_fast_math<R>(on: bool, f: impl FnOnce() -> R) -> R {
    let prev = OVERRIDE.with(|o| o.replace(Some(on)));
    let r = f();
    OVERRIDE.with(|o| o.set(prev));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_accepts_zero_and_one_only() {
        assert_eq!(parse_fast_math("0"), Some(false));
        assert_eq!(parse_fast_math("1"), Some(true));
        assert_eq!(parse_fast_math(" 1 "), Some(true));
        assert_eq!(parse_fast_math("true"), None);
        assert_eq!(parse_fast_math("on"), None);
        assert_eq!(parse_fast_math("2"), None);
        assert_eq!(parse_fast_math(""), None);
        assert_eq!(parse_fast_math("yes"), None);
    }

    #[test]
    fn override_scopes_nest_and_restore() {
        let ambient = enabled();
        with_fast_math(true, || {
            assert!(enabled());
            with_fast_math(false, || assert!(!enabled()));
            assert!(enabled());
        });
        assert_eq!(enabled(), ambient);
    }
}
