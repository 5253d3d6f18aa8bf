//! The workspace's only sanctioned wall-clock callsite.
//!
//! The repo-wide determinism invariant forbids `Instant::now()` /
//! `SystemTime::now()` in library code: results must be a function of
//! seeds and inputs alone. Observability is the one legitimate consumer
//! of wall time — a span duration describes the *run*, never the
//! *results* — so dr-lint's determinism pass carries a scoped exemption
//! for exactly this file (`crates/obs/src/clock.rs`) and nothing else.
//! Every timing read in the workspace must route through [`Stopwatch`];
//! the companion `obs-isolation` pass flags `Stopwatch` / `clock::now`
//! uses outside the observability and CLI layers so measured
//! time can never flow back into analysis results.

pub use std::time::Instant;

/// Read the wall clock. Library code outside `dr-obs` must
/// not call this; see the module docs.
pub fn now() -> Instant {
    Instant::now()
}

/// A started timer; read it with [`Stopwatch::elapsed_s`].
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch { start: now() }
    }

    /// Seconds since [`Stopwatch::start`].
    pub fn elapsed_s(&self) -> f64 {
        now().duration_since(self.start).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotone() {
        let w = Stopwatch::start();
        let a = w.elapsed_s();
        let b = w.elapsed_s();
        assert!(a >= 0.0);
        assert!(b >= a);
    }
}
