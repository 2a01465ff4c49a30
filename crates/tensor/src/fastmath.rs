//! Stub left from the deleted fast-math (FMA) tier.
//!
//! Every kernel in this crate has one numeric contract: bitwise equality
//! with [`crate::oracle`] (DESIGN.md §9). The only reader of this module is
//! the `uvd-benchmark` provenance header, which still records a `fast_math`
//! field; that field and this stub go together in the next change to the
//! benchmark.

/// Always `false`: there is no fast-math tier.
pub fn enabled() -> bool {
    false
}
