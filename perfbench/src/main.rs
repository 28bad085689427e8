//! The HERMES stack benchmark: one workload per run, checked outputs,
//! end-to-end metrics (untraced) or per-layer metrics (traced).
//!
//! ```text
//! perfbench --workload <build|cosim|fleet|mission> --seed <n> --seconds <s>
//!           --trace <0|1> [--commit <id>] [--probe]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md` in this
//! directory for the workloads, the metrics and what each should move.

mod build_flow;
mod common;
mod cosim;
mod fleet;
mod mission;
mod suite;
mod trace;

use common::{median, Ctx, Metric, Outcome, Prober};
use std::time::Instant;
use trace::Tracer;

/// Every end-to-end metric, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("fmax_mhz", "MHz"),
    ("luts", "count"),
    ("p99_ticks", "ticks"),
    ("served_permille", "permille"),
    ("boot_cycles", "cycles"),
    ("jitter_cycles", "cycles"),
];

/// Every per-layer metric, in `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str); 58] = [
    ("hls.compile_s", "s"),
    ("hls.designs", "count"),
    ("eucalyptus.characterize_s", "s"),
    ("eucalyptus.cache_hits", "count"),
    ("eucalyptus.cache_misses", "count"),
    ("fpga.synth_s", "s"),
    ("fpga.place_s", "s"),
    ("fpga.route_s", "s"),
    ("fpga.sta_s", "s"),
    ("fpga.bitgen_s", "s"),
    ("fpga.moves_tried", "count"),
    ("fpga.accept_permille", "permille"),
    ("fpga.hpwl", "tiles"),
    ("fpga.wirelength", "tiles"),
    ("rtl.sim_build_s", "s"),
    ("rtl.dense_kcycles_per_s", "kcycles/s"),
    ("rtl.sparse_kcycles_per_s", "kcycles/s"),
    ("rtl.settle_ops", "count"),
    ("rtl.settle_passes", "count"),
    ("rtl.ops_per_cycle", "count"),
    ("hls.cosim_s", "s"),
    ("hls.cosim_cycles", "cycles"),
    ("axi.bursts", "count"),
    ("axi.read_latency_cycles", "cycles"),
    ("axi.retries", "count"),
    ("fleet.run_s", "s"),
    ("fleet.wakes", "count"),
    ("fleet.po2c_routed", "count"),
    ("fleet.rerouted", "count"),
    ("fleet.scale_ups", "count"),
    ("fleet.scale_downs", "count"),
    ("fleet.skew_x100", "x100"),
    ("serve.batches", "count"),
    ("serve.mean_batch_x100", "x100"),
    ("serve.requeued", "count"),
    ("serve.shed", "count"),
    ("serve.rejected", "count"),
    ("serve.model_s", "s"),
    ("kernel.posted", "count"),
    ("kernel.popped", "count"),
    ("kernel.cancelled", "count"),
    ("kernel.cascades", "count"),
    ("kernel.max_occupancy", "count"),
    ("obs.overhead_ratio", "ratio"),
    ("par.dispatch_us", "us"),
    ("par.est_share", "ratio"),
    ("workload.generate_s", "s"),
    ("boot.bl1_s", "s"),
    ("boot.corrected_bytes", "count"),
    ("boot.images_loaded", "count"),
    ("xng.run_s", "s"),
    ("xng.ticks_polled", "count"),
    ("xng.ticks_skipped", "count"),
    ("xng.activations", "count"),
    ("xng.hypercalls", "count"),
    ("xng.traps", "count"),
    ("cpu.guest_cycles", "cycles"),
    ("trace.overhead_ratio", "ratio"),
];

/// End-to-end simulated metrics a workload does not exercise read this
/// neutral value (the report carries every metric on every workload, and
/// none may read 0).
const NOT_EXERCISED: f64 = 1.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
    probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        commit: "unknown".to_string(),
        probe: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--probe" {
            a.probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err(format!("--seconds must be positive, got `{value}`"));
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            "--commit" => a.commit = value,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !["build", "cosim", "fleet", "mission"].contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of build, cosim, fleet, mission (got `{}`)",
            a.workload
        ));
    }
    Ok(a)
}

fn run_workload(ctx: &Ctx, workload: &str) -> Outcome {
    match workload {
        "build" => build_flow::run(ctx),
        "cosim" => cosim::run(ctx),
        "fleet" => fleet::run(ctx),
        "mission" => mission::run(ctx),
        _ => unreachable!("workload validated by parse_args"),
    }
}

fn json_metrics(metrics: &[(String, f64, String)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Fill `names` from `got`, defaulting the ones the workload did not
/// report.
fn complete(names: &[(&str, &str)], got: &[Metric], default: f64) -> Vec<(String, f64, String)> {
    names
        .iter()
        .map(|&(name, unit)| {
            let value = got.iter().find(|m| m.0 == name).map_or(default, |m| m.1);
            (name.to_string(), value, unit.to_string())
        })
        .collect()
}

fn main() {
    let start = Instant::now();
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let ctx = Ctx {
        seed: a.seed,
        seconds: a.seconds,
        jobs: hermes_par::jobs(),
        tracer: Tracer::new(a.trace),
        untraced: Tracer::new(false),
        start,
        probe: a.probe,
        prober: (!a.trace && !a.probe).then(|| Prober::new(&a.workload, a.seed)),
    };
    let outcome = run_workload(&ctx, &a.workload);
    let probes = ctx.prober.as_ref().map_or_else(Vec::new, Prober::probes);
    let setups: Vec<f64> = probes.iter().map(|p| p.setup_s).collect();
    let rss: Vec<f64> = probes.iter().map(|p| p.peak_rss_mb).collect();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let fingerprint = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"nproc\": {nproc}, \"jobs\": {}, \"rustc\": \"{}\", \"commit\": \"{}\", \"probe_setup_s\": {:?}, \"probe_peak_rss_mb\": {:?}}}",
        a.workload,
        a.seed,
        ctx.jobs,
        env!("PERFBENCH_RUSTC"),
        a.commit,
        setups,
        rss,
    );
    println!("{{\"fingerprint\": {fingerprint}}}");

    let metrics = if a.trace {
        let m = complete(&PER_LAYER, &outcome.per_layer, 0.0);
        let dir = std::path::Path::new(".bench_out");
        std::fs::create_dir_all(dir).expect("create .bench_out");
        let path = dir.join(format!("{}-seed{}-trace.json", a.workload, a.seed));
        let doc = format!(
            "{{\"fingerprint\": {fingerprint},\n\"per_layer\": {},\n\"spans\": {}}}\n",
            json_metrics(&m),
            ctx.tracer.to_json()
        );
        std::fs::write(&path, doc).expect("write the trace file");
        eprintln!("perfbench: spans written to {}", path.display());
        m
    } else {
        let mut got = outcome.end_to_end.clone();
        got.push(("setup_s", median(&setups), "s"));
        // the mean, not the median: per-thread allocator arenas put each
        // process's peak in one of a few modes a megabyte or more apart,
        // and a median would jump between them
        got.push((
            "peak_rss_mb",
            rss.iter().sum::<f64>() / rss.len() as f64,
            "MB",
        ));
        complete(&END_TO_END, &got, NOT_EXERCISED)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        json_metrics(&metrics)
    );
}
