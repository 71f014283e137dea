//! The speed probe: every timing is reported at the host's nominal
//! speed.
//!
//! The benchmark host is a 2-vCPU virtual machine whose cores each
//! switch, independently and every few seconds to minutes, between a
//! fast and a slow state about 1.4× apart. The switches follow no
//! workload of ours: a fixed sort of pseudo-random integers takes
//! 4.9–5.3 ms in the fast state and 7–8 ms in the slow one, and the
//! flows' operation times move with it. Medians of raw wall time over
//! ten 10-second runs spread by 14–24 %, wider than any useful bound.
//!
//! So the benchmark times this fixed, std-only probe next to every
//! operation on the same thread and scales the operation's time by
//! [`NOMINAL_MS`] over the probe's time — what the operation would have
//! taken with the core in its fast state. The probe is part of the
//! benchmark, not of the program, so no change to the program moves it.
//! Raw wall times and probe times are reported alongside in the traced
//! run (`host.wall_latency_ms`, `host.probe_ms`).

use std::time::Instant;

/// Probe time, in milliseconds, of this host's cores in their fast
/// state: the speed every timing is scaled to.
pub const NOMINAL_MS: f64 = 5.0;

/// Integers the probe sorts (2 MB, cache-resident like the flows' hot
/// data; branchy like their inner loops).
const LEN: usize = 1 << 18;

/// A reusable probe buffer.
pub struct Probe {
    buf: Vec<u64>,
}

impl Probe {
    /// Allocates the probe's buffer.
    pub fn new() -> Self {
        Probe { buf: vec![0; LEN] }
    }

    /// Fills the buffer (untimed), sorts it, and returns the sort's
    /// wall time in milliseconds.
    pub fn measure(&mut self) -> f64 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for v in &mut self.buf {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = x;
        }
        let t = Instant::now();
        self.buf.sort_unstable();
        std::hint::black_box(&self.buf);
        t.elapsed().as_secs_f64() * 1e3
    }

    /// Times `f` between two probe readings; returns its result, its
    /// wall time in milliseconds, and the mean probe time.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.measure();
        let t = Instant::now();
        let out = f();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let after = self.measure();
        (out, ms, (before + after) / 2.0)
    }
}

/// `ms`, measured while the probe read `probe_ms`, at nominal speed.
pub fn at_nominal(ms: f64, probe_ms: f64) -> f64 {
    ms * NOMINAL_MS / probe_ms
}
