//! Open-loop load generation over NDJSON connections.
//!
//! Each connection follows a precomputed, seeded Poisson send schedule and
//! sends every request when it is due, whether or not earlier replies have
//! arrived; one thread per connection both sends and reads. Latency is
//! measured from a request's *scheduled* send time, so a stall also
//! charges the requests queued behind it, and `late_ms` records how far
//! the generator itself fell behind the schedule.

use rand::Rng;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use uvd_tensor::Rng64;

/// One scheduled request line (no trailing newline).
pub struct Request {
    /// Send time, relative to the phase start.
    pub at: Duration,
    pub line: String,
    pub write: bool,
}

/// What happened to one request.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Scheduled send to reply, in ms; `None` without a reply.
    pub latency_ms: Option<f64>,
    /// How late the generator sent it, in ms.
    pub late_ms: f64,
    pub reply: Option<String>,
}

impl Outcome {
    pub fn ok(&self) -> bool {
        self.reply
            .as_deref()
            .is_some_and(|r| r.starts_with("{\"ok\":true"))
    }
}

/// Poisson arrival times at `rate` per second over `[0, secs)`.
pub fn poisson(rng: &mut Rng64, rate: f64, secs: f64) -> Vec<Duration> {
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen::<f64>();
        t += -(1.0 - u).ln() / rate;
        if t >= secs {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// Drive `reqs` (ascending `at`) over `stream`, with `t0` as the phase
/// start. After the last send, outstanding replies are awaited for
/// `give_up`; the rest count as unanswered. Replies arrive in request order
/// on a connection, so they are matched first-in first-out.
pub fn drive(
    stream: &mut TcpStream,
    reqs: &[Request],
    t0: Instant,
    give_up: Duration,
) -> Vec<Outcome> {
    let mut out = vec![Outcome::default(); reqs.len()];
    let mut pending: VecDeque<usize> = VecDeque::new();
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let last_at = reqs.last().map_or(Duration::ZERO, |r| r.at);
    let mut next = 0;
    loop {
        let mut now = t0.elapsed();
        while next < reqs.len() && reqs[next].at <= now {
            let r = &reqs[next];
            let mut line = Vec::with_capacity(r.line.len() + 1);
            line.extend_from_slice(r.line.as_bytes());
            line.push(b'\n');
            if stream.write_all(&line).is_err() {
                return out; // connection gone: everything unsent is unanswered
            }
            now = t0.elapsed();
            out[next].late_ms = (now - r.at).as_secs_f64() * 1e3;
            pending.push_back(next);
            next += 1;
        }
        if next == reqs.len() && pending.is_empty() {
            return out;
        }
        let until = if next < reqs.len() {
            reqs[next].at
        } else {
            last_at + give_up
        };
        let Some(wait) = until.checked_sub(now).filter(|w| !w.is_zero()) else {
            if next == reqs.len() {
                return out; // gave up on the outstanding replies
            }
            continue;
        };
        if pending.is_empty() {
            std::thread::sleep(wait);
            continue;
        }
        if stream.set_read_timeout(Some(wait)).is_err() {
            return out;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return out,
            Ok(n) => {
                let at = t0.elapsed();
                buf.extend_from_slice(&chunk[..n]);
                while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=pos).collect();
                    let Some(i) = pending.pop_front() else {
                        return out; // a reply nobody asked for: stop matching
                    };
                    out[i].latency_ms = Some((at.saturating_sub(reqs[i].at)).as_secs_f64() * 1e3);
                    out[i].reply =
                        Some(String::from_utf8_lossy(&line[..line.len() - 1]).into_owned());
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => return out,
        }
    }
}

/// Send one line and block for its reply (set-up, sweeps and stats).
pub fn round_trip(stream: &mut TcpStream, line: &str) -> std::io::Result<String> {
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(format!("{line}\n").as_bytes())?;
    let mut reply = Vec::new();
    let mut byte = [0u8; 4096];
    loop {
        let n = stream.read(&mut byte)?;
        if n == 0 {
            return Err(ErrorKind::UnexpectedEof.into());
        }
        reply.extend_from_slice(&byte[..n]);
        if reply.last() == Some(&b'\n') {
            reply.pop();
            return Ok(String::from_utf8_lossy(&reply).into_owned());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_and_determinism() {
        let a = poisson(&mut uvd_tensor::seeded_rng(3), 400.0, 10.0);
        let b = poisson(&mut uvd_tensor::seeded_rng(3), 400.0, 10.0);
        assert_eq!(a, b, "same seed, same schedule");
        assert!((3700..4300).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }
}
