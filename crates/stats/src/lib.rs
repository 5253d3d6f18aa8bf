//! # dr-stats — statistics substrate for the resilience study
//!
//! Everything the characterization pipeline and the fault generator need:
//!
//! - [`online`]: streaming count/mean/variance/min/max (Welford).
//! - [`quantile`]: exact quantiles over samples and the Table 1 summary triple.
//! - [`histogram`]: linear and log-scale histograms, empirical CDFs.
//! - [`dist`]: distribution samplers (Exp, LogNormal, Weibull, Pareto,
//!   Categorical) and moment/quantile-based fitters. Implemented from
//!   first principles (inverse transform / Box–Muller) on top of `rand`'s
//!   uniform source, since `rand_distr` is outside the allowed crate set.
//! - [`mtbe`]: mean-time-between-errors helpers matching the paper's
//!   definitions (system-wide and per-node normalization).

pub mod dist;
pub mod histogram;
pub mod kstest;
pub mod mtbe;
pub mod online;
pub mod quantile;

pub use dist::{Categorical, Exp, LogNormal, Pareto, Sampler, Weibull};
pub use histogram::{Ecdf, Histogram, LogHistogram};
pub use kstest::{ks_two_sample, KsResult};
pub use mtbe::Mtbe;
pub use online::OnlineStats;
pub use quantile::{quantile_sorted, SummaryStats};
