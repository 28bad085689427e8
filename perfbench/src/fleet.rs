//! `fleet`: `FleetEngine` serving bounded-Pareto arrivals from 512
//! tenants near fleet capacity (bursts above it), with the autoscaler on,
//! a seeded shard-kill plan, an MLP accelerator model priced from a
//! co-simulation of the `mlp` kernel, and an enabled recorder that keeps
//! metrics but samples no causal traces. One unit is one offered request
//! accounted.

use crate::common::{median, timed, timed_loop, Ctx, Outcome, Rep};
use hermes_apps::ai;
use hermes_chaos::plan::{FaultPlan, FaultPlanConfig};
use hermes_fleet::engine::{FleetConfig, FleetEngine, FleetReport};
use hermes_fleet::scaler::ScalerConfig;
use hermes_fleet::workload::{self, FleetWorkloadConfig};
use hermes_hls::ir::ArrayId;
use hermes_hls::simulate::ExternalMemory;
use hermes_hls::HlsFlow;
use hermes_obs::Recorder;
use hermes_serve::engine::{ServeConfig, ServeEngine};
use hermes_serve::model::AcceleratorModel;
use hermes_serve::request::{Request, Verdict};
use hermes_serve::workload::ClassProfile;
use std::collections::HashMap;
use std::time::Instant;

/// Payload workers of the timed fleet. At the default worker count every
/// batch spawns threads, which is nearly all of the fleet's host time and
/// swung 2x between runs on a 2-vCPU host; one worker keeps the timed
/// phase on the fleet, serve, kernel and obs code, while `par.dispatch_us`
/// still prices the per-batch dispatch at the default worker count.
const SERVE_JOBS: usize = 1;
/// Requests in one timed rep.
const REQUESTS: usize = 32_768;
/// Tenants in the arrival stream.
const TENANTS: u16 = 512;
/// Initial shard count.
const SHARDS: usize = 8;
/// Offered load as a share of the initial fleet's capacity (permille).
const LOAD_PERMILLE: u64 = 600;
/// Shard kills in the chaos plan.
const KILLS: u32 = 4;
/// MLP topology (the `hermes-apps` AI use case) and its weight seed: the
/// deployed model is fixed, the request payloads are seeded.
const INPUTS: usize = 6;
const HIDDEN: usize = 8;
const OUTPUTS: usize = 3;
const WEIGHT_SEED: u64 = 17;
/// Fixed per-batch overhead of the accelerator (control handshake).
const BATCH_OVERHEAD: u64 = 32;
/// Requests in the single-engine checksum audit.
const AUDIT_REQUESTS: usize = 4096;
/// Samples of one payload-evaluation dispatch for `par.dispatch_us`.
const DISPATCH_SAMPLES: usize = 301;

fn serve_cfg(jobs: usize) -> ServeConfig {
    ServeConfig {
        queue_depth: 64,
        tenant_quota: 24,
        batch_max: 8,
        instances: 2,
        jobs,
        trace_sample_permille: 0,
        ..ServeConfig::default()
    }
}

/// The MLP accelerator: per-item cycles from one cycle-accurate
/// co-simulation of the `mlp` kernel, DMA cycles from one AXI round trip,
/// payloads evaluated by the Rust reference.
///
/// `AcceleratorModel::from_design` co-simulates with scalar arguments
/// only, and `mlp` reads its operands from external arrays, so the
/// co-simulation runs here with buffers and the model is assembled from
/// its measured cycles.
fn mlp_model() -> AcceleratorModel {
    let design = HlsFlow::new()
        .unroll_limit(0)
        .compile(ai::MLP_SOURCE)
        .expect("mlp compiles");
    let (w1, b1, w2, b2) = ai::synth_weights(INPUTS, HIDDEN, OUTPUTS, WEIGHT_SEED);
    let mut ext = ExternalMemory::buffers(vec![
        (ArrayId(0), vec![1 << (ai::Q - 1); INPUTS]),
        (ArrayId(1), w1.clone()),
        (ArrayId(2), b1.clone()),
        (ArrayId(3), w2.clone()),
        (ArrayId(4), b2.clone()),
        (ArrayId(5), vec![0; OUTPUTS]),
    ]);
    let measured = design
        .simulate_with_memory(&[INPUTS as i64, HIDDEN as i64, OUTPUTS as i64], &mut ext)
        .expect("mlp co-simulates");
    AcceleratorModel::new("mlp-6-8-3", BATCH_OVERHEAD, measured.cycles, move |x| {
        ai::mlp_ref(x, &w1, &b1, &w2, &b2, INPUTS, HIDDEN, OUTPUTS)
    })
    .with_measured_dma((INPUTS + OUTPUTS) * 4)
}

/// Arrival stream offered at [`LOAD_PERMILLE`] of the initial fleet's
/// capacity at full batches; deadlines scale with one item's service time.
fn stream(seed: u64, model: &AcceleratorModel) -> Vec<Request> {
    let cfg = serve_cfg(0);
    let svc1 = model.service_cycles(1);
    let full = model.service_cycles(cfg.batch_max);
    let slots = (SHARDS * cfg.instances * cfg.batch_max) as u64;
    // mean gap in 1/256 ticks; the bounded Pareto draw (cap = 256 x
    // scale) averages about 6.5 x its scale
    let mean_gap_x256 = full * 256 * 1000 / (slots * LOAD_PERMILLE);
    let scale = (mean_gap_x256 * 2 / 13).max(1);
    workload::generate(
        seed,
        &FleetWorkloadConfig {
            requests: REQUESTS,
            gap_scale_x256: scale,
            gap_cap_x256: scale * 256,
            tenants: TENANTS,
            classes: vec![
                ClassProfile {
                    weight: 1,
                    deadline_budget: svc1 * 4,
                    deadline_jitter: svc1 / 2,
                },
                ClassProfile {
                    weight: 3,
                    deadline_budget: svc1 * 24,
                    deadline_jitter: svc1 * 4,
                },
            ],
            payload_words: INPUTS,
            ..FleetWorkloadConfig::default()
        },
    )
}

struct Setup {
    model: AcceleratorModel,
    arrivals: Vec<Request>,
    plan: FaultPlan,
    scaler: ScalerConfig,
}

fn engine(s: &Setup, jobs: usize, model: AcceleratorModel, obs: Recorder) -> FleetEngine {
    FleetEngine::new(
        FleetConfig {
            shards: SHARDS,
            serve: serve_cfg(jobs),
            ..FleetConfig::default()
        },
        model,
        s.arrivals.clone(),
    )
    .with_chaos(s.plan.clone())
    .with_scaler(s.scaler.clone())
    .with_recorder(obs)
}

/// Run the `fleet` workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let tr = &ctx.tracer;
    let model = tr.span("serve.model", 0, |_| mlp_model());
    let arrivals = tr.span("workload.generate", 0, |_| stream(ctx.seed, &model));
    let span = arrivals.last().expect("stream is non-empty").arrival;
    let plan = FaultPlan::generate(
        ctx.seed,
        &FaultPlanConfig::shard_only(span, KILLS, (span / 16) as u32, SHARDS as u8),
    );
    let full = model.service_cycles(serve_cfg(0).batch_max);
    let scaler = ScalerConfig {
        eval_interval: full * 4,
        p99_slo: model.service_cycles(1) * 16,
        min_shards: SHARDS / 2,
        max_shards: SHARDS + SHARDS / 2,
        ..ScalerConfig::default()
    };
    let s = Setup {
        model,
        arrivals,
        plan,
        scaler,
    };

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first: Option<FleetReport> = None;
    let mut last_engine: Option<FleetEngine> = None;
    let timing = timed_loop(ctx, |traced| {
        let tr = ctx.tracer(traced);
        let mut e = engine(&s, SERVE_JOBS, s.model.clone(), Recorder::new());
        let t = Instant::now();
        let report = tr.span("fleet.run", 0, |_| e.run());
        let secs = t.elapsed().as_secs_f64();
        attempted += REQUESTS as u64;
        let ok = report.accounted()
            && report.offered == REQUESTS as u64
            && first.as_ref().is_none_or(|f| *f == report);
        if !ok {
            failed += REQUESTS as u64;
        }
        first.get_or_insert(report);
        if traced {
            last_engine = Some(e);
        }
        Rep {
            units: REQUESTS as f64,
            secs,
        }
    });
    let report = first.expect("at least one rep ran");

    // reference replay: default workers, no recorder; it must reproduce
    // the timed runs' report, output checksum included
    let reference = engine(&s, 0, s.model.clone(), Recorder::disabled()).run();
    if reference != report || !audit_serve(&s) {
        failed = attempted;
    }

    let mut per_layer = Vec::new();
    if ctx.tracer.enabled() {
        let own = ctx.tracer.self_seconds();
        let run_s = own.get("fleet.run").copied().unwrap_or(0.0) / timing.traced_reps();
        let e = last_engine.as_ref().expect("a traced rep ran");
        let k = e.kernel_stats();
        let batches = report.batches.max(1);
        let mean_batch = (report.batch_items as f64 / batches as f64)
            .round()
            .max(1.0) as usize;
        let dispatch_us = dispatch_us(&s, ctx.jobs, mean_batch);
        per_layer = vec![
            ("fleet.run_s", run_s, "s"),
            ("fleet.wakes", e.wakes() as f64, "count"),
            ("fleet.po2c_routed", report.routed_po2c as f64, "count"),
            ("fleet.rerouted", report.failover_rerouted as f64, "count"),
            ("fleet.scale_ups", report.scale_ups as f64, "count"),
            ("fleet.scale_downs", report.scale_downs as f64, "count"),
            ("fleet.skew_x100", report.skew_x100() as f64, "x100"),
            ("serve.batches", report.batches as f64, "count"),
            (
                "serve.mean_batch_x100",
                report.batch_items as f64 * 100.0 / batches as f64,
                "x100",
            ),
            ("serve.requeued", report.requeued as f64, "count"),
            ("serve.shed", report.shed as f64, "count"),
            (
                "serve.rejected",
                (report.rejected + report.balancer_shed) as f64,
                "count",
            ),
            (
                "serve.model_s",
                own.get("serve.model").copied().unwrap_or(0.0),
                "s",
            ),
            ("kernel.posted", k.posted as f64, "count"),
            ("kernel.popped", k.popped as f64, "count"),
            ("kernel.cancelled", k.cancelled as f64, "count"),
            ("kernel.cascades", k.cascades as f64, "count"),
            ("kernel.max_occupancy", k.max_occupancy as f64, "count"),
            ("obs.overhead_ratio", obs_overhead(&s), "ratio"),
            ("par.dispatch_us", dispatch_us, "us"),
            (
                "par.est_share",
                dispatch_us * 1e-6 * report.batches as f64 / run_s,
                "ratio",
            ),
            (
                "workload.generate_s",
                own.get("workload.generate").copied().unwrap_or(0.0),
                "s",
            ),
            ("trace.overhead_ratio", timing.trace_overhead(), "ratio"),
        ];
    }
    Outcome {
        attempted,
        failed,
        end_to_end: vec![
            ("work_per_s", timing.work_per_s(), "1/s"),
            ("p99_ticks", report.p99_latency as f64, "ticks"),
            (
                "served_permille",
                report.served as f64 * 1000.0 / report.offered as f64,
                "permille",
            ),
        ],
        per_layer,
    }
}

/// The serve engine every shard runs, audited on its own: its output
/// checksum must equal the MLP reference applied to the payloads its
/// verdicts say it served, folded in the order it served them.
fn audit_serve(s: &Setup) -> bool {
    let sample = s.arrivals[..AUDIT_REQUESTS].to_vec();
    let by_id: HashMap<u64, &Request> = sample.iter().map(|r| (r.id, r)).collect();
    let mut engine = ServeEngine::new(serve_cfg(0), s.model.clone(), sample.clone());
    let report = engine.run();
    let (w1, b1, w2, b2) = ai::synth_weights(INPUTS, HIDDEN, OUTPUTS, WEIGHT_SEED);
    let expected = engine
        .verdicts()
        .iter()
        .filter(|(_, v)| matches!(v, Verdict::Served { .. }))
        .fold(0, |h, (id, _)| {
            let out = ai::mlp_ref(
                &by_id[id].input,
                &w1,
                &b1,
                &w2,
                &b2,
                INPUTS,
                HIDDEN,
                OUTPUTS,
            );
            hermes_serve::fnv1a_words(h, &out)
        });
    report.accounted() && report.served > 0 && report.output_checksum == expected
}

/// Fleet time with the workload's recorder over the same run with
/// `Recorder::disabled()`: median of interleaved pairs.
fn obs_overhead(s: &Setup) -> f64 {
    let mut ratios = Vec::new();
    for _ in 0..5 {
        let mut on = engine(s, SERVE_JOBS, s.model.clone(), Recorder::new());
        let mut off = engine(s, SERVE_JOBS, s.model.clone(), Recorder::disabled());
        let (_, t_on) = timed(|| on.run());
        let (_, t_off) = timed(|| off.run());
        ratios.push(t_on / t_off);
    }
    median(&ratios)
}

/// Median microseconds of one bounded payload-evaluation dispatch of
/// `batch` items on `jobs` workers — what the serve engine does once per
/// batch.
fn dispatch_us(s: &Setup, jobs: usize, batch: usize) -> f64 {
    let inputs: Vec<&[i64]> = s
        .arrivals
        .iter()
        .take(batch)
        .map(|r| r.input.as_slice())
        .collect();
    let bound = serve_cfg(jobs).compute_bound;
    let samples: Vec<f64> = (0..DISPATCH_SAMPLES)
        .map(|_| {
            let (out, secs) = timed(|| {
                hermes_par::par_map_bounded_jobs(jobs, bound, &inputs, |x| s.model.compute(x))
            });
            std::hint::black_box(out.expect("the reference model never panics"));
            secs * 1e6
        })
        .collect();
    median(&samples)
}
