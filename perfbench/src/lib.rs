//! End-to-end and per-layer benchmark of the monoculture HIDS system.
//!
//! Each workload drives the public API of `fleetd`, `netpkt`, `flowtab`,
//! `tailstats`, `hids-core` and `synthgen` from outside, the way a
//! deployment would. A run repeats *passes*: each pass generates its inputs
//! (timed only as set-up) and then runs the system over them (timed as
//! system time). See `NOTES.md` beside this package for what every figure
//! includes.

pub mod daemon;
pub mod fleet;
pub mod grid;
pub mod packet;
pub mod trace;

use flowtab::{FeatureSeries, Windowing};
use synthgen::{user_week_series_trended, Population, PopulationConfig};

pub use trace::Tracer;

/// What one pass of a workload measured.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Operations attempted (batches, windows, hosts or evaluations).
    pub ops: u64,
    /// Operations that failed their workload's check.
    pub failed: u64,
    /// Seconds spent generating inputs.
    pub setup_s: f64,
    /// Seconds spent in the system under test (the throughput divisor).
    pub system_s: f64,
    /// Work done, in the workload's throughput unit.
    pub work: f64,
    /// Per-request latency samples, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Secondary latency samples (recovery time in `daemon-stream`).
    pub extra_ms: Vec<f64>,
    /// `system_s` cut into pieces that repeat the same work in every pass.
    pub pieces: Pieces,
    /// Deterministic per-layer counts for this pass.
    pub counts: Vec<(&'static str, u64)>,
    /// Fingerprint of the pass's outputs; every pass of a run must agree.
    pub digest: u64,
    /// Failed correctness checks (empty when the pass is correct).
    pub problems: Vec<String>,
    /// Findings worth printing that are not failures of the benchmark.
    pub notes: Vec<String>,
}

/// How a pass cuts its system time into pieces; `throughput` takes each
/// piece's fastest repeat over the passes of a run.
#[derive(Debug, Default)]
pub enum Pieces {
    /// Each latency sample is a piece; system time beyond their sum is
    /// one more.
    #[default]
    Latencies,
    /// Pieces of their own, milliseconds, summing to `system_s`.
    Own(Vec<f64>),
}

/// A benchmark workload: a fixed input shape, generated afresh from the
/// seed on every pass.
pub trait Workload {
    /// Run one pass.
    fn pass(&mut self, tr: &mut Tracer) -> PassOut;
}

/// Static description of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name as given to `--workload`.
    pub name: &'static str,
    /// Seed used when `--seed` is absent.
    pub default_seed: u64,
    /// A seed outside the 1–10 range `spread.py` runs, for checking later
    /// claims against.
    pub held_out_seed: u64,
    /// What one op is.
    pub op: &'static str,
    /// Named throughput metric and its unit.
    pub throughput: (&'static str, &'static str),
    /// Named latency metric prefix (`<prefix>_p50_ms`, `<prefix>_p99_ms`).
    pub latency: &'static str,
}

/// Every workload the benchmark knows.
pub const SPECS: [Spec; 5] = [
    daemon::STREAM_SPEC,
    daemon::RECOVER_SPEC,
    packet::SPEC,
    fleet::SPEC,
    grid::SPEC,
];

/// Build the workload named `name` for `seed`. `packet-path` ignores
/// `seed`: its captures are fixed by `population_seed` (default 7).
pub fn workload(name: &str, seed: u64, population_seed: Option<u64>) -> Option<Box<dyn Workload>> {
    match name {
        "daemon-stream" => Some(Box::new(daemon::Stream::new(seed))),
        "daemon-recover" => Some(Box::new(daemon::Recover::new(seed))),
        "packet-path" => Some(Box::new(packet::PacketPath::new(packet::PacketConfig {
            seed: population_seed.unwrap_or(packet::SPEC.default_seed),
            ..packet::PacketConfig::default()
        }))),
        "fleet-sketch" => Some(Box::new(fleet::FleetSketch::new(fleet::FleetConfig {
            seed,
            ..fleet::FleetConfig::default()
        }))),
        "paper-grid" => Some(Box::new(grid::PaperGrid::new(seed))),
        _ => None,
    }
}

/// The paper corpus: `weeks[u][w]` is user `u`'s series for week `w`,
/// generated exactly as `experiments::Corpus::generate` does.
pub fn corpus(seed: u64, n_users: usize, n_weeks: usize) -> Vec<Vec<FeatureSeries>> {
    let population = Population::sample(PopulationConfig {
        n_users,
        seed,
        ..PopulationConfig::default()
    });
    let windowing = Windowing { width_secs: 900.0 };
    let trend = population.config.weekly_trend;
    population
        .users
        .iter()
        .map(|u| {
            (0..n_weeks)
                .map(|w| user_week_series_trended(u, seed, w, windowing, trend))
                .collect()
        })
        .collect()
}

/// 64-bit FNV-1a over `bytes`, continuing from `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf29ce484222325;

/// Nearest-rank `q`-quantile of `xs` (`NaN` when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `xs` (`NaN` when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank quantile of integer samples (0 when empty).
pub fn quantile_u64(xs: &[u64], q: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    let mut v = xs.to_vec();
    v.sort_unstable();
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&[3.0], 0.01), 3.0);
        assert!(median(&[]).is_nan());
        assert_eq!(quantile_u64(&[5, 1, 9], 0.5), 5);
    }

    #[test]
    fn every_spec_builds() {
        for s in SPECS {
            assert!(
                workload(s.name, s.default_seed, None).is_some(),
                "{}",
                s.name
            );
        }
        assert!(workload("nope", 1, None).is_none());
    }
}
