//! The benchmark composes the system from outside. These tests prove the
//! composition is the same program the repository's own experiment
//! harnesses run, and pin the known packet-path defect.
//!
//! Run with `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use experiments::{Corpus, CorpusConfig};
use perfbench::{corpus, daemon, fleet, grid, packet, Tracer};

fn tracer() -> Tracer {
    let mut tr = Tracer::new();
    tr.start_pass(0, false);
    tr
}

#[test]
fn fleet_sketch_hosts_csv_fnv_equals_megafleet() {
    let cfg = fleet::FleetConfig::default();
    let ours = fleet::measure(&cfg, &mut tracer());
    let theirs = experiments::megafleet::run(&experiments::megafleet::MegafleetConfig {
        n_users: cfg.n_hosts,
        seed: cfg.seed,
        sketch_eps: cfg.sketch_eps,
        threshold_q: cfg.threshold_q,
        w: cfg.w,
        feature: cfg.feature,
        progress_every: 0,
        ..Default::default()
    });
    theirs.check().expect("megafleet self-check");
    assert_eq!(ours.csv_fnv, theirs.hosts_csv_hash());
    assert_eq!(
        ours.csv_fnv, 0x1bc9_0446_d6d4_0f48,
        "2,000 hosts at the default seed"
    );
    assert_eq!(ours.failed, 0);
    assert_eq!(ours.compactions, theirs.total_compactions);
    assert_eq!(ours.state_bytes_peak, theirs.peak_host_state_bytes);
}

#[test]
fn daemon_stream_host_table_equals_experiments_daemon_and_survives_reopen() {
    let seed = daemon::STREAM_SPEC.default_seed;
    let reference = Corpus::generate(CorpusConfig {
        n_users: daemon::USERS,
        n_weeks: 2,
        seed,
        ..CorpusConfig::default()
    });
    let weeks = corpus(seed, daemon::USERS, 2);
    assert!(
        weeks == reference.weeks,
        "benchmark corpus differs from experiments::Corpus"
    );

    let scenario = experiments::daemon::DaemonScenario::default();
    assert_eq!(scenario.batch_windows, daemon::BATCH_WINDOWS);
    assert_eq!(scenario.feature, daemon::FEATURE);
    let ref_dir = daemon::run_dir("selftest-reference");
    let batches = experiments::daemon::build_batches(&reference, &scenario);
    let theirs =
        experiments::daemon::run(&ref_dir, &scenario, &batches, &[]).expect("reference run");
    let _ = std::fs::remove_dir_all(&ref_dir);
    theirs.check().expect("reference invariants");

    let dir = daemon::run_dir("selftest-stream");
    let cfg = fleetd::DaemonConfig::default();
    let by_host = daemon::batches_by_host(&weeks, daemon::BATCH_WINDOWS);
    let mut tr = tracer();
    let ours = daemon::stream(&dir, cfg, &by_host, &mut tr);
    assert!(ours.problems.is_empty(), "{:?}", ours.problems);
    assert_eq!((ours.batches, ours.applied, ours.failed), (4_900, 4_900, 0));
    assert!(ours.hosts == theirs.hosts, "final host tables differ");

    let reopened = daemon::reopen(&dir, cfg, &theirs.hosts, 2, &mut tr);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(reopened.problems.is_empty(), "{:?}", reopened.problems);
    assert_eq!(reopened.mismatched, 0);
    assert_eq!(reopened.open_ms.len(), 2);
}

#[test]
fn packet_path_counters_equal_experiments_pipeline() {
    let scenario = experiments::pipeline::PipelineScenario::default();
    let cfg = packet::PacketConfig {
        seed: scenario.seed,
        n_users: scenario.n_users,
        first_window: scenario.first_window,
        n_windows: scenario.n_windows,
        weekly_trend: scenario.weekly_trend,
        feature: scenario.feature,
    };
    let ours = packet::measure(&cfg, &mut tracer());
    assert!(ours.problems.is_empty(), "{:?}", ours.problems);
    let theirs = experiments::pipeline::run(&scenario).expect("pipeline runs");
    let c = &ours.counters;
    assert_eq!(
        (
            c.frames_written,
            c.flows_rendered,
            c.bytes_written,
            c.oversized_windows,
            c.records_ok,
            c.records_skipped,
            c.frames_rejected,
        ),
        (
            theirs.frames_written,
            theirs.flows_rendered,
            theirs.bytes_written,
            theirs.oversized_windows,
            theirs.records_ok,
            theirs.records_skipped,
            theirs.frames_rejected,
        )
    );
    assert_eq!(
        (c.feature_windows, c.feature_mismatches),
        (theirs.feature_windows, theirs.feature_mismatches)
    );
    assert_eq!(
        (c.wire_datagrams, c.wire_bytes, c.wire_mismatches),
        (
            theirs.wire_datagrams,
            theirs.wire_bytes,
            theirs.wire_mismatches
        )
    );
    let utilities: Vec<u64> = theirs
        .sweep
        .iter()
        .map(|r| r.mean_utility.to_bits())
        .collect();
    let thresholds: Vec<usize> = theirs.sweep.iter().map(|r| r.thresholds).collect();
    assert_eq!(
        c.mean_utility
            .iter()
            .map(|u| u.to_bits())
            .collect::<Vec<_>>(),
        utilities
    );
    assert_eq!(c.thresholds, thresholds);
}

/// The known defect stays visible: at the workload's full scale, four windows
/// measure one TCP connection fewer than the generated series.
#[test]
fn packet_path_known_mismatches_at_seed_7() {
    let p = packet::measure(&packet::PacketConfig::default(), &mut tracer());
    assert!(p.problems.is_empty(), "{:?}", p.problems);
    assert_eq!(p.counters.feature_windows, 12_288);
    assert_eq!(
        p.mismatched,
        [(37, 0, 73), (41, 0, 41), (41, 0, 42), (52, 1, 67)]
    );
    assert_eq!(
        p.counters.records_skipped + p.counters.frames_rejected + p.counters.wire_mismatches,
        0
    );
}

#[test]
fn paper_grid_utilities_are_bit_identical_run_to_run() {
    let seed = grid::SPEC.default_seed;
    let a = grid::measure(seed, daemon::USERS, &mut tracer());
    let b = grid::measure(seed, daemon::USERS, &mut tracer());
    assert_eq!(a.mean_utility.len(), 72);
    assert!(a.mean_utility.iter().all(|u| u.is_finite()));
    assert_eq!(a.utilities_fnv, b.utilities_fnv);
    let bits = |v: &[f64]| v.iter().map(|u| u.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.mean_utility), bits(&b.mean_utility));
}
