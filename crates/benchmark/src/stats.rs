//! Order statistics and checksums shared by the workloads, the probes and
//! the compare mode.

use std::time::Instant;

/// Milliseconds elapsed since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Time one call of `f`, in milliseconds, returning its result too.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, ms_since(t0))
}

/// Sorted copy of `xs` (NaNs sort last).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice, the
/// same rule as Python's `statistics.quantiles(..., method="inclusive")`.
/// Zero for an empty slice.
pub fn quantile_sorted(s: &[f64], q: f64) -> f64 {
    match s.len() {
        0 => 0.0,
        1 => s[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(xs: &[f64]) -> f64 {
    quantile_sorted(&sorted(xs), 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// First and third quartiles with the exclusive rule of Python's default
/// `statistics.quantiles(values, n=4)`, which is what run-to-run spreads are
/// judged by. Falls back to the extremes for fewer than two values.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |m: f64| {
        // Exclusive method: position m·(n+1)/4, 1-based, clamped to the data.
        let pos = (m * (n as f64 + 1.0) / 4.0).clamp(1.0, n as f64);
        let j = pos.floor() as usize;
        let frac = pos - j as f64;
        let lo = s[j - 1];
        let hi = s[j.min(n - 1)];
        lo + (hi - lo) * frac
    };
    (at(1.0), at(3.0))
}

/// Highest percentile (among p99.9, p99 and p90) that leaves at least ten
/// samples beyond it, with its value: the tail a run of `s.len()` samples
/// can support. With fewer than 100 samples no tail is supported and the
/// median stands in (reported as p50). `s` must be ascending.
pub fn supported_tail(s: &[f64]) -> (f64, f64) {
    for p in [0.999, 0.99, 0.9] {
        if (s.len() as f64) * (1.0 - p) >= 10.0 {
            return (p * 100.0, quantile_sorted(s, p));
        }
    }
    (50.0, quantile_sorted(s, 0.5))
}

/// 64-bit FNV-1a over the bit patterns of `xs`.
pub fn fnv1a_f32(seed: u64, xs: &[f32]) -> u64 {
    let mut h = if seed == 0 {
        0xcbf2_9ce4_8422_2325
    } else {
        seed
    };
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_rule() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&xs) - 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s: Vec<f64> = (0..1000).map(f64::from).collect();
        let pct = |xs: &[f64]| supported_tail(xs).0 as u32;
        assert_eq!(pct(&s), 99);
        assert_eq!(pct(&s[..200]), 90);
        assert_eq!(pct(&s[..5]), 50, "too few samples: the median stands in");
        assert!((supported_tail(&s[..5]).1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fnv_depends_on_every_bit() {
        assert_ne!(fnv1a_f32(0, &[1.0, 2.0]), fnv1a_f32(0, &[2.0, 1.0]));
        assert_eq!(fnv1a_f32(0, &[0.5]), fnv1a_f32(0, &[0.5]));
    }
}
