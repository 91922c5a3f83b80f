//! `paper-grid`: the paper's own computation. Six features × three
//! groupings × four threshold heuristics = 72 `evaluate_policy` calls over
//! the 350-user corpus, training on week 0 and testing on week 1.
//!
//! The corpus and the six `FeatureDataset`s are set-up; the 72 evaluations
//! (exact quantiles and the threshold-sweep kernel) are the system.

use std::time::Instant;

use flowtab::FeatureKind;
use hids_core::{eval::evaluate_policy, EvalConfig, FeatureDataset, Policy, ThresholdHeuristic};

use crate::packet::GROUPINGS;
use crate::{corpus, fnv, PassOut, Pieces, Spec, Tracer, Workload, FNV_BASIS};

/// `paper-grid` description.
pub const SPEC: Spec = Spec {
    name: "paper-grid",
    default_seed: 0xC0FFEE,
    held_out_seed: 9005,
    op: "policy evaluation",
    throughput: ("policy_evals_per_s", "evals/s"),
    latency: "eval",
};

/// FN weight for `UtilityMax` and for the evaluation's utility.
pub const W: f64 = 0.4;

/// The four heuristics, with their per-layer metric tags.
pub fn heuristics(ds: &FeatureDataset) -> [(&'static str, ThresholdHeuristic); 4] {
    [
        ("percentile", ThresholdHeuristic::P99),
        ("meansigma", ThresholdHeuristic::MeanSigma(3.0)),
        (
            "utilitymax",
            ThresholdHeuristic::UtilityMax {
                w: W,
                sweep: ds.default_sweep(),
            },
        ),
        (
            "fmeasure",
            ThresholdHeuristic::FMeasure {
                prevalence: 0.01,
                sweep: ds.default_sweep(),
            },
        ),
    ]
}

/// One pass.
#[derive(Debug, Default)]
pub struct GridPass {
    /// Mean utility of every evaluation, in feature → grouping → heuristic
    /// order.
    pub mean_utility: Vec<f64>,
    /// FNV-1a over the bits of every per-user utility.
    pub utilities_fnv: u64,
    /// Generation + dataset seconds.
    pub setup_s: f64,
    /// Evaluation seconds.
    pub system_s: f64,
    /// Milliseconds per evaluation.
    pub eval_ms: Vec<f64>,
}

/// Run one pass over the `n_users` corpus for `seed`.
pub fn measure(seed: u64, n_users: usize, tr: &mut Tracer) -> GridPass {
    let t = Instant::now();
    let weeks = tr.span("synthgen.corpus", || corpus(seed, n_users, 2));
    let train: Vec<_> = weeks.iter().map(|w| w[0].clone()).collect();
    let test: Vec<_> = weeks.iter().map(|w| w[1].clone()).collect();
    drop(weeks);
    let datasets: Vec<FeatureDataset> = tr.span("hids-core.dataset", || {
        FeatureKind::ALL
            .iter()
            .map(|&k| FeatureDataset::from_series(&train, &test, k))
            .collect()
    });
    let mut p = GridPass {
        setup_s: t.elapsed().as_secs_f64(),
        ..GridPass::default()
    };
    let mut h = FNV_BASIS;
    for ds in &datasets {
        let cfg = EvalConfig {
            w: W,
            sweep: ds.default_sweep(),
        };
        for (g_tag, grouping) in GROUPINGS {
            for (h_tag, heuristic) in heuristics(ds) {
                let policy = Policy {
                    grouping,
                    heuristic,
                };
                let t = Instant::now();
                let eval = evaluate_policy(ds, &policy, &cfg);
                let done = Instant::now();
                tr.record("hids-core.evaluate", [h_tag, g_tag], t, done);
                let secs = done.duration_since(t).as_secs_f64();
                p.system_s += secs;
                p.eval_ms.push(secs * 1e3);
                p.mean_utility.push(eval.mean_utility());
                for u in &eval.users {
                    h = fnv(h, &u.utility.to_bits().to_le_bytes());
                }
            }
        }
    }
    p.utilities_fnv = h;
    p
}

/// The `paper-grid` workload.
pub struct PaperGrid {
    seed: u64,
}

impl PaperGrid {
    /// Workload for `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

impl Workload for PaperGrid {
    fn pass(&mut self, tr: &mut Tracer) -> PassOut {
        let p = measure(self.seed, crate::daemon::USERS, tr);
        let failed = p.mean_utility.iter().filter(|u| !u.is_finite()).count() as u64;
        PassOut {
            ops: p.mean_utility.len() as u64,
            failed,
            setup_s: p.setup_s,
            system_s: p.system_s,
            work: p.mean_utility.len() as f64,
            pieces: Pieces::Latencies,
            latencies_ms: p.eval_ms,
            digest: p.utilities_fnv,
            notes: vec![format!("utilities fnv64 {:016x}", p.utilities_fnv)],
            ..PassOut::default()
        }
    }
}
