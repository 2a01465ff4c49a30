//! Serving knobs read from the environment through [`uvd_obs::env_knob`]:
//! parse failures fall back to the default and warn once instead of
//! guessing or panicking.
//!
//! | variable          | meaning                         | default |
//! |-------------------|---------------------------------|---------|
//! | `UVD_SERVE_BATCH` | max rows per micro-batch replay | 64      |

use std::sync::OnceLock;

/// Default micro-batch capacity (rows per replay).
pub const DEFAULT_BATCH: usize = 64;

/// Parse a `UVD_SERVE_BATCH` value: a positive integer.
pub fn parse_serve_batch(raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => None,
    }
}

/// `UVD_SERVE_BATCH`, read once per process.
pub fn env_serve_batch() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| {
        uvd_obs::env_knob("UVD_SERVE_BATCH", "a positive integer", parse_serve_batch)
            .unwrap_or(DEFAULT_BATCH)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_parses_positive_integers_only() {
        assert_eq!(parse_serve_batch("64"), Some(64));
        assert_eq!(parse_serve_batch(" 8 "), Some(8));
        assert_eq!(parse_serve_batch("0"), None);
        assert_eq!(parse_serve_batch("-3"), None);
        assert_eq!(parse_serve_batch("lots"), None);
    }
}
