//! Virtual per-rank clocks.
//!
//! Every simulated rank owns a [`VirtualClock`]; operations advance it by
//! model-computed durations, and matching communication events synchronize
//! clocks conservatively (a receive can never complete before the data was
//! available). This gives deterministic, noise-free timings whose
//! decomposition matches the paper's §2 analysis, while the payload bytes
//! still move for real.

use std::time::Instant;

/// A monotonically advancing virtual time, in seconds.
#[derive(Debug, Clone)]
pub struct VirtualClock {
    now: f64,
}

impl VirtualClock {
    /// A clock starting at t = 0.
    pub fn new() -> Self {
        VirtualClock { now: 0.0 }
    }

    /// Current virtual time in seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advance by a non-negative duration.
    ///
    /// # Panics
    /// Panics on negative or non-finite durations — those are always model
    /// bugs and must not be silently absorbed.
    #[inline]
    pub fn advance(&mut self, dt: f64) -> f64 {
        assert!(dt.is_finite() && dt >= 0.0, "invalid clock advance: {dt}");
        self.now += dt;
        self.now
    }

    /// Move forward to at least `t` (no-op if already past it). Returns the
    /// waiting time incurred.
    #[inline]
    pub fn sync_to(&mut self, t: f64) -> f64 {
        assert!(t.is_finite(), "invalid clock sync target: {t}");
        if t > self.now {
            let wait = t - self.now;
            self.now = t;
            wait
        } else {
            0.0
        }
    }
}

impl Default for VirtualClock {
    fn default() -> Self {
        Self::new()
    }
}

/// A wall-clock stopwatch with the same reading interface, for harness
/// modes that measure real time (e.g. the Criterion pack-engine benches).
#[derive(Debug, Clone)]
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    /// Start a stopwatch now.
    pub fn new() -> Self {
        WallClock { start: Instant::now() }
    }

    /// Seconds elapsed since creation.
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates() {
        let mut c = VirtualClock::new();
        assert_eq!(c.now(), 0.0);
        c.advance(1.5);
        c.advance(0.25);
        assert_eq!(c.now(), 1.75);
    }

    #[test]
    fn sync_only_moves_forward() {
        let mut c = VirtualClock::new();
        c.advance(2.0);
        assert_eq!(c.sync_to(1.0), 0.0);
        assert_eq!(c.now(), 2.0);
        assert_eq!(c.sync_to(3.5), 1.5);
        assert_eq!(c.now(), 3.5);
    }

    #[test]
    #[should_panic(expected = "invalid clock advance")]
    fn negative_advance_panics() {
        VirtualClock::new().advance(-1.0);
    }

    #[test]
    #[should_panic(expected = "invalid clock advance")]
    fn nan_advance_panics() {
        VirtualClock::new().advance(f64::NAN);
    }

    #[test]
    fn wall_clock_monotone() {
        let w = WallClock::new();
        let a = w.now();
        let b = w.now();
        assert!(b >= a);
    }
}
