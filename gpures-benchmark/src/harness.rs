//! The measurement harness shared by all five workloads: a warm-up pass,
//! a fixed-length timed loop, a host-speed probe after every pass,
//! per-sample summaries (median, quartiles, tail percentile, n), process
//! CPU time and peak RSS, and the streaming FNV-1a digest every
//! correctness check compares.

use std::fmt;
use std::hash::Hasher;
use std::time::Instant;

/// Summary of one metric's samples. Quartiles follow Python's
/// `statistics.quantiles(data, n=4)` (the "exclusive" method), so a
/// spread computed from these numbers agrees with one computed by a
/// script over the same samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    /// The highest of [`TAIL_LADDER`] with at least ten samples beyond
    /// it (0 when there are too few samples for any of them).
    pub tail_pct: f64,
    pub tail: f64,
}

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 6] = [99.99, 99.9, 99.0, 90.0, 75.0, 50.0];

impl Summary {
    /// Summarize `samples` (any order). `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut s: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        if s.is_empty() {
            return None;
        }
        s.sort_by(f64::total_cmp);
        let (p25, median, p75) = quartiles(&s);
        let n = s.len();
        let (tail_pct, tail) = TAIL_LADDER
            .iter()
            // At least ten samples above p: n · (100 − p) / 100 ≥ 10, with
            // slack for the decimal percentiles' rounding.
            .find(|&&p| n as f64 * (100.0 - p) >= 1000.0 - 1e-6)
            .map_or((0.0, s[n - 1]), |&p| (p, percentile(&s, p)));
        Some(Summary {
            n,
            median,
            p25,
            p75,
            tail_pct,
            tail,
        })
    }
}

/// `(q1, median, q3)` of sorted data by Python's exclusive method.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let ld = sorted.len();
    if ld == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let (n, m) = (4usize, ld + 1);
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64
    };
    (q(1), q(2), q(3))
}

/// Percentile `p` of sorted data, interpolated at rank `p/100 · (n+1)`
/// (the same rank rule as [`quartiles`]), clamped to the sample range.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let rank = (p / 100.0 * (n + 1) as f64).clamp(1.0, n as f64);
    let lo = rank.floor() as usize;
    let frac = rank - lo as f64;
    let hi = (lo + 1).min(n);
    sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * frac
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Linux's clock id for CPU time consumed by all threads of the process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// User plus system CPU time of this process, all threads (including
/// threads that have exited), to the nanosecond. `/proc/self/stat` holds
/// the same sum in 10 ms ticks, too coarse for passes of a few hundred
/// milliseconds.
pub fn cpu_seconds() -> Result<f64, String> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which is valid, aligned and exclusively borrowed for the
    // call; `Timespec` has that struct's layout on 64-bit Linux (two
    // 64-bit fields), the only platform this benchmark builds for.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return Err(format!(
            "clock_gettime(CLOCK_PROCESS_CPUTIME_ID): {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status: no VmHWM line".to_string())
}

/// Streaming FNV-1a 64: a [`Hasher`] for binary fields and a
/// [`fmt::Write`] sink for `Debug` output, so large results are digested
/// without building their text.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv64 {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        Hasher::write(self, s.as_bytes());
        Ok(())
    }
}

/// Fewest timed passes a run makes, however long one takes.
pub const MIN_PASSES: usize = 3;

/// Set-up calls are microseconds long: each set-up sample times a batch
/// of this many, and a run takes at least [`MIN_SETUP_SAMPLES`].
const SETUP_ITERATIONS: usize = 200;
const MIN_SETUP_SAMPLES: usize = 9;

/// The host-speed probe's time on the idle host the bounds in
/// `BENCHMARK.json` were set on (a two-CPU x86-64 virtual machine).
pub(crate) const PROBE_NOMINAL_S: f64 = 0.008;

/// Pseudo-random words the probe sorts: 3.2 MB, beyond the core's
/// private caches, so the probe slows down with the host as the passes
/// do.
const PROBE_WORDS: usize = 400_000;

/// The host-speed probe: sort and hash a fixed pseudo-random buffer on
/// this thread and return the seconds it took. Other tenants of a shared
/// host slow every pass for seconds to minutes at a time; the probe, run
/// right after each pass, slows down with them, so a pass's time over
/// its probe's measures the program rather than the host.
pub(crate) fn probe() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut words: Vec<u64> = (0..PROBE_WORDS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    words.sort_unstable();
    let mut h = Fnv64::default();
    for w in words.iter().step_by(7) {
        h.write_u64(*w);
    }
    std::hint::black_box(h.finish());
    t0.elapsed().as_secs_f64()
}

/// Per-pass samples of one timed loop, plus the pass outcome counts.
/// Every time is taken to the host's nominal speed: multiplied by the
/// probe's idle-host time over the time of the probe run right after it.
#[derive(Clone, Debug, Default)]
pub struct Passes {
    /// Wall time of each successful timed pass (s).
    pub wall: Vec<f64>,
    /// CPU time (all threads) of each successful timed pass (s).
    pub cpu: Vec<f64>,
    /// Time of one call of the one-time set-up (s), one sample per pass.
    pub setup: Vec<f64>,
    /// Raw probe times (s), one per set-up sample.
    pub probe: Vec<f64>,
    /// Peak RSS (MB) right after the warm-up pass: what one run of the
    /// command costs a fresh process. Later passes only add allocator
    /// fragmentation that varies from run to run.
    pub first_pass_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl Passes {
    /// The median factor by which the run's times were scaled.
    pub fn host_scale(&self) -> f64 {
        Summary::of(&self.probe).map_or(1.0, |s| PROBE_NOMINAL_S / s.median)
    }
}

/// One timed execution of `pass`: wall and CPU seconds around the call
/// only. `Err` from the pass is returned as-is.
pub fn time_once<T>(pass: impl FnOnce() -> Result<T, String>) -> Result<(T, f64, f64), String> {
    let cpu0 = cpu_seconds()?;
    let t0 = Instant::now();
    let out = pass()?;
    let wall = t0.elapsed().as_secs_f64();
    let cpu = cpu_seconds()? - cpu0;
    Ok((out, wall, cpu))
}

/// The harness loop: one untimed warm-up pass, then timed passes until
/// `seconds` have elapsed and at least [`MIN_PASSES`] have run. `check`
/// runs outside the timed region and decides whether a pass produced
/// the reference result; failed or erroring passes count against the
/// attempts and contribute no timing sample. After each pass the
/// one-time `setup` calls and then the host-speed probe are timed once,
/// and the probe scales both the pass and the set-up sample.
pub fn run_passes<T>(
    seconds: f64,
    mut setup: impl FnMut() -> Result<(), String>,
    mut pass: impl FnMut() -> Result<T, String>,
    mut check: impl FnMut(&T) -> bool,
) -> Result<Passes, String> {
    let mut out = Passes::default();
    let mut passed = |out: &mut Passes, r: Result<(T, f64, f64), String>| {
        out.attempted += 1;
        match r {
            Ok((value, wall, cpu)) if check(&value) => Some((wall, cpu)),
            Ok(_) => {
                out.failed += 1;
                None
            }
            Err(e) => {
                eprintln!("pass failed: {e}");
                out.failed += 1;
                None
            }
        }
    };
    // Times the set-up calls and the probe; returns the probe's scale.
    let mut time_setup = |out: &mut Passes| -> Result<f64, String> {
        let t0 = Instant::now();
        for _ in 0..SETUP_ITERATIONS {
            setup()?;
        }
        let once = t0.elapsed().as_secs_f64() / SETUP_ITERATIONS as f64;
        let probe_s = probe();
        let scale = PROBE_NOMINAL_S / probe_s;
        out.setup.push(once * scale);
        out.probe.push(probe_s);
        Ok(scale)
    };
    let warm = time_once(&mut pass);
    passed(&mut out, warm);
    out.first_pass_rss_mb = peak_rss_mb()?;
    let start = Instant::now();
    let mut timed = 0usize;
    while timed < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let r = time_once(&mut pass);
        let ok = passed(&mut out, r);
        timed += 1;
        let scale = time_setup(&mut out)?;
        if let Some((wall, cpu)) = ok {
            out.wall.push(wall * scale);
            out.cpu.push(cpu * scale);
        }
    }
    while out.setup.len() < MIN_SETUP_SAMPLES {
        time_setup(&mut out)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&v).expect("samples");
        assert_eq!(s.tail_pct, 90.0);
        let few = Summary::of(&[1.0, 2.0, 3.0]).expect("samples");
        assert_eq!((few.tail_pct, few.tail), (0.0, 3.0));
    }

    #[test]
    fn fnv_matches_reference_vector() {
        let mut h = Fnv64::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn proc_readings_are_positive() {
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
        assert!(cpu_seconds().expect("stat") >= 0.0);
    }
}
