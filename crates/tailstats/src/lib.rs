//! # tailstats — statistics for tail-behaviour analysis
//!
//! The paper's entire argument rests on *where the tail of each user's
//! feature distribution begins* (its high quantiles) and how that varies
//! across a population. This crate provides the statistical machinery:
//!
//! * [`EmpiricalDist`] — exact quantiles, CDF and exceedance probabilities
//!   over stored samples (what each end host computes from a training week);
//! * [`P2Quantile`] — the P² constant-memory streaming quantile estimator,
//!   for the in-hardware monitoring scenario (Intel AMT) the paper's
//!   introduction anticipates;
//! * [`LogHistogram`] — log-binned histograms for heavy-tailed counts;
//! * [`Moments`] / [`Ewma`] — streaming mean/variance and smoothing;
//! * [`FiveNumber`] — boxplot summaries (Figures 3(a) and 4(b));
//! * [`kmeans`](mod@kmeans) — Lloyd's algorithm with deterministic initialisation, used
//!   for the paper's (unsuccessful) natural-clusters probe;
//! * [`Confusion`] — precision/recall/F-measure for threshold heuristics;
//! * [`KllSketch`] — deterministic integer-only mergeable rank sketch with
//!   a guaranteed rank-error ledger, for fleet-scale per-host state; its
//!   [`KllView`] answers many rank/tail reads from one sorted build;
//! * [`QuantileSource`] — one facade over `EmpiricalDist | KllSketch` with
//!   the pinned boundary/NaN contract both backends honour.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod edf;
pub mod ewma;
pub mod fivenum;
pub mod histogram;
pub mod kmeans;
pub mod metrics;
pub mod moments;
pub mod p2;
pub mod resample;
pub mod sketch;
pub mod source;

pub use edf::EmpiricalDist;
pub use ewma::Ewma;
pub use fivenum::FiveNumber;
pub use histogram::LogHistogram;
pub use kmeans::{kmeans, kmeans_1d, separation_score, KMeansResult};
pub use metrics::Confusion;
pub use moments::Moments;
pub use p2::P2Quantile;
pub use resample::{bootstrap_ci, gini, ks_distance, lorenz_curve, BootstrapCi};
pub use sketch::{KllSketch, KllView, SketchDecodeError};
pub use source::QuantileSource;
