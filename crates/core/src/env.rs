//! Environment knobs for neighbor-sampled mini-batch training.
//!
//! * `UVD_BATCH` — labeled seed regions per mini-batch. `0` disables
//!   mini-batching (full-batch training, the bitwise-deterministic default).
//! * `UVD_SAMPLE_FANOUT` — incoming-neighbor cap per node per hop when
//!   sampling the batch subgraph. `0` takes every neighbor (the exact
//!   k-hop closure).
//! * `UVD_PREFETCH` — mini-batch prefetch depth: how many batches ahead
//!   the background preparation thread may run during the tape-recording
//!   epoch. `0` prepares batches inline (serial reference path).
//!
//! All three are non-negative integers read once per process through
//! [`uvd_obs::env_knob`]: an unparseable value warns once and is then
//! *ignored*, falling back to the config's programmatic setting rather
//! than silently picking a number.

use std::sync::OnceLock;

/// Parse a count knob value. Accepted: a non-negative integer, surrounding
/// whitespace ignored. Anything else (negatives, non-numeric, empty,
/// fractional) is rejected.
pub fn parse_count(s: &str) -> Option<usize> {
    s.trim().parse::<usize>().ok()
}

fn count_knob(var: &'static str) -> Option<usize> {
    uvd_obs::env_knob(var, "a non-negative integer", parse_count)
}

/// `UVD_BATCH` if set and valid (read once per process).
pub fn env_batch() -> Option<usize> {
    static V: OnceLock<Option<usize>> = OnceLock::new();
    *V.get_or_init(|| count_knob("UVD_BATCH"))
}

/// `UVD_SAMPLE_FANOUT` if set and valid (read once per process).
pub fn env_fanout() -> Option<usize> {
    static V: OnceLock<Option<usize>> = OnceLock::new();
    *V.get_or_init(|| count_knob("UVD_SAMPLE_FANOUT"))
}

/// `UVD_PREFETCH` if set and valid (read once per process).
pub fn env_prefetch() -> Option<usize> {
    static V: OnceLock<Option<usize>> = OnceLock::new();
    *V.get_or_init(|| count_knob("UVD_PREFETCH"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_valid_counts() {
        assert_eq!(parse_count("128"), Some(128));
        assert_eq!(parse_count("0"), Some(0));
        assert_eq!(parse_count("  64  "), Some(64));
        assert_eq!(parse_count("\t12\n"), Some(12));
    }

    #[test]
    fn rejects_bad_batch_values() {
        for bad in ["-1", "abc", "", "  ", "12.5", "1e3", "0x10", "128 regions"] {
            assert_eq!(parse_count(bad), None, "{bad:?} must be rejected");
        }
    }

    #[test]
    fn rejects_bad_fanout_values() {
        for bad in ["-3", "full", "", "3,000", "2.0"] {
            assert_eq!(parse_count(bad), None, "{bad:?} must be rejected");
        }
    }

    #[test]
    fn rejects_bad_prefetch_values() {
        for bad in ["-1", "on", "", "1.5", "two"] {
            assert_eq!(parse_count(bad), None, "{bad:?} must be rejected");
        }
    }
}
