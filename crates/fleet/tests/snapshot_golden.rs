//! Snapshot goldens: the `Debug` render of the recorder `Snapshot` left by
//! two small seeded runs, compared line by line against files under
//! `tests/golden/`. They pin what the flight recorder stores (event
//! streams, metric values and the first-update order metrics are listed
//! in), so a change to how metrics are registered or recorded must leave
//! every snapshot byte-identical.
//!
//! - `fleet_snapshot.txt`: a `FleetEngine` with an enabled recorder,
//!   seeded shard kills and the autoscaler (shard recorders are
//!   `child_named`, absorbed at retirement and at finish).
//! - `serve_snapshot.txt`: a lone `ServeEngine` tracing every request
//!   (1000‰ sampling), with pool kills and an SLO engine.
//!
//! To re-record after an intended change, run the tests with
//! `UPDATE_GOLDEN=1` and review the diff of the golden files.

use hermes_chaos::plan::{FaultPlan, FaultPlanConfig};
use hermes_fleet::engine::{FleetConfig, FleetEngine};
use hermes_fleet::scaler::ScalerConfig;
use hermes_fleet::workload::{self, FleetWorkloadConfig};
use hermes_obs::slo::{SloEngine, SloObjective, SloSpec};
use hermes_obs::{Recorder, Snapshot};
use hermes_serve::engine::{ServeConfig, ServeEngine};
use hermes_serve::model::AcceleratorModel;
use std::fmt::Write as _;
use std::path::PathBuf;

fn model() -> AcceleratorModel {
    AcceleratorModel::new("double", 20, 40, |xs| xs.iter().map(|&x| x * 2).collect())
}

/// The snapshot's `Debug` render, one subsystem header, event or metric
/// per line so a golden diff points at the item that moved.
fn render(snap: &Snapshot) -> String {
    let mut out = String::new();
    for sub in &snap.subsystems {
        writeln!(out, "subsystem {:?} dropped {}", sub.name, sub.dropped).unwrap();
        for ev in &sub.events {
            writeln!(out, "  {ev:?}").unwrap();
        }
    }
    for c in &snap.counters {
        writeln!(out, "counter {c:?}").unwrap();
    }
    for g in &snap.gauges {
        writeln!(out, "gauge {g:?}").unwrap();
    }
    for h in &snap.histograms {
        writeln!(out, "histogram {h:?}").unwrap();
    }
    out
}

fn check(file: &str, actual: &str) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", file].iter().collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (run with UPDATE_GOLDEN=1 to record)", path.display()));
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "{file}: first difference at line {}", i + 1);
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "{file}: line counts differ"
    );
}

#[test]
fn fleet_snapshot_matches_golden() {
    // a burst that saturates the initial shards, then a sparse tail that
    // leaves the grown fleet idle: the autoscaler scales up, then drains
    // and retires shards (their recorders are absorbed mid-run)
    let burst = FleetWorkloadConfig {
        requests: 1500,
        tenants: 48,
        gap_scale_x256: 8,
        gap_cap_x256: 2048,
        ..FleetWorkloadConfig::default()
    };
    let mut arrivals = workload::generate(17, &burst);
    let burst_end = arrivals.last().unwrap().arrival;
    let tail = FleetWorkloadConfig {
        requests: 40,
        tenants: 48,
        gap_scale_x256: 900 * 256,
        gap_cap_x256: 900 * 256,
        first_id: 1500,
        start: burst_end + 500,
        ..FleetWorkloadConfig::default()
    };
    arrivals.extend(workload::generate(18, &tail));
    let plan = FaultPlan::generate(5, &FaultPlanConfig::shard_only(burst_end, 2, 300, 2));
    let serve = ServeConfig { jobs: 1, trace_sample_permille: 0, ..ServeConfig::default() };
    let cfg = FleetConfig { shards: 2, serve, ..FleetConfig::default() };
    let scaler = ScalerConfig {
        eval_interval: 200,
        p99_slo: 1500,
        queue_high: 16,
        up_consecutive: 2,
        down_consecutive: 3,
        cooldown_evals: 1,
        min_shards: 2,
        max_shards: 5,
        ..ScalerConfig::default()
    };
    let mut fleet = FleetEngine::new(cfg, model(), arrivals)
        .with_chaos(plan)
        .with_scaler(scaler)
        .with_recorder(Recorder::new());
    let report = fleet.run();
    assert!(report.accounted(), "{report:?}");
    assert!(report.shard_kills > 0, "the plan must kill shards: {report:?}");
    assert!(report.scale_ups > 0 && report.scale_downs > 0, "{report:?}");
    assert!(report.served > 0, "{report:?}");
    check("fleet_snapshot.txt", &render(&fleet.recorder().snapshot()));
}

#[test]
fn serve_snapshot_matches_golden() {
    let wl = hermes_serve::workload::WorkloadConfig { requests: 48, ..Default::default() }
        .at_load_pct(600);
    let arrivals = hermes_serve::workload::generate(11, &wl);
    let span = arrivals.last().unwrap().arrival;
    let plan = FaultPlan::generate(3, &FaultPlanConfig::pool_only(span, 2, 2, 300, 2));
    let specs = vec![SloSpec::new(
        "avail",
        SloObjective::Availability { min_permille: 950 },
        (span / 4).max(8),
    )];
    let cfg = ServeConfig {
        jobs: 1,
        queue_depth: 12,
        trace_sample_permille: 1000,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(cfg, model(), arrivals)
        .with_chaos(plan)
        .with_recorder(Recorder::new())
        .with_slo(SloEngine::new(specs));
    let report = engine.run();
    assert!(report.accounted(), "{report:?}");
    check("serve_snapshot.txt", &render(&engine.recorder().snapshot()));
}
