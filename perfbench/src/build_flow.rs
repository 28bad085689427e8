//! `build`: the eight suite kernels through `HlsFlow::compile` and the
//! NXmap-style flow (synth, place, route, STA, bitstream) on the
//! NG-MEDIUM-like device. One unit is one kernel implemented.

use crate::common::{geomean, timed_loop, Ctx, Metric, Outcome, Rep};
use crate::suite::{suite, Kernel};
use crate::trace::Tracer;
use hermes_eucalyptus::{Eucalyptus, SweepConfig};
use hermes_fpga::bitstream::Bitstream;
use hermes_fpga::device::DeviceProfile;
use hermes_fpga::flow::{FlowOptions, FlowReport, NxFlow};
use hermes_fpga::place::Effort;
use hermes_hls::{Design, HlsFlow};
use hermes_obs::Recorder;
use std::time::Instant;

/// The flow stages, as the flow's own recorder names them.
const STAGES: [&str; 5] = ["synth", "place", "route", "sta", "bitgen"];

/// Fill the characterization cache the way `HlsFlow` keys it (NG-MEDIUM
/// device, widths 8..64, combinational), inside an
/// `eucalyptus.characterize` span.
pub fn characterize(tr: &Tracer) {
    tr.span("eucalyptus.characterize", 0, |_| {
        Eucalyptus::new(DeviceProfile::ng_medium_like())
            .characterize_cached(&SweepConfig {
                widths: vec![8, 16, 32, 64],
                pipeline_stages: vec![0],
            })
            .expect("the built-in characterization sweep succeeds");
    });
}

/// Run the FPGA flow inside an `fpga.flow` span. Traced runs give the
/// flow a wall-clock recorder and turn its stage spans into child spans
/// (`fpga.synth` … `fpga.bitgen`), laid end to end from the flow's start.
pub fn implement(
    tr: &Tracer,
    parent: u64,
    flow: &NxFlow,
    design: &Design,
) -> Option<(FlowReport, Bitstream)> {
    tr.span("fpga.flow", parent, |id| {
        if !tr.enabled() {
            return flow.run_with_artifacts(design.netlist()).ok();
        }
        let rec = Recorder::with_wall();
        let mut at = tr.now_ns();
        let out = flow.run_with_artifacts_traced(design.netlist(), &rec).ok();
        for sub in rec
            .snapshot()
            .subsystems
            .iter()
            .filter(|s| s.name == "fpga")
        {
            for ev in &sub.events {
                if let (true, Some(ns)) = (STAGES.contains(&ev.name.as_str()), ev.wall_ns) {
                    tr.record(&format!("fpga.{}", ev.name), id, at, at + ns);
                    at += ns;
                }
            }
        }
        out
    })
    .map(|(report, artifacts)| (report, artifacts.bitstream))
}

/// What one kernel's implementation produced.
struct Built {
    design: Design,
    report: FlowReport,
    bitstream: Bitstream,
}

fn build_one(tr: &Tracer, hls: &HlsFlow, opts: &FlowOptions, k: &Kernel) -> Option<Built> {
    tr.span("build.kernel", 0, |id| {
        let design = tr.span("hls.compile", id, |_| hls.compile(k.source)).ok()?;
        let flow = NxFlow::new(
            DeviceProfile::ng_medium_like(),
            FlowOptions {
                multicycle: design.multicycle_hints(),
                ..opts.clone()
            },
        );
        let (report, bitstream) = implement(tr, id, &flow, &design)?;
        Some(Built {
            design,
            report,
            bitstream,
        })
    })
}

/// Run the `build` workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let kernels = suite(ctx.seed);
    characterize(&ctx.tracer);
    let hls = HlsFlow::new().unroll_limit(0);
    let opts = FlowOptions {
        effort: Effort::Low,
        seed: ctx.seed,
        ..FlowOptions::default()
    };
    let hits_before = hermes_eucalyptus::cache::stats().hits;

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut qor: Option<(Vec<u64>, u64)> = None;
    let mut last: Vec<FlowReport> = Vec::new();
    let timing = timed_loop(ctx, |traced| {
        let tr = ctx.tracer(traced);
        let t = Instant::now();
        let built = hermes_par::par_map_jobs(ctx.jobs, &kernels, |k| build_one(tr, &hls, &opts, k))
            .expect("no kernel build panics");
        let secs = t.elapsed().as_secs_f64();
        // checks: the design computes the reference result, the flow
        // returned an intact bitstream of that design, and QoR repeats
        let mut reports = Vec::new();
        for (k, b) in kernels.iter().zip(built) {
            attempted += 1;
            match b {
                Some(b)
                    if k.check(&b.design)
                        && b.bitstream.verify().is_ok()
                        && b.bitstream.design_name == b.design.name() =>
                {
                    reports.push(b.report)
                }
                _ => {
                    failed += 1;
                    eprintln!("perfbench: kernel {} failed its check", k.name);
                }
            }
        }
        if reports.len() == kernels.len() {
            let fmax_bits = reports
                .iter()
                .map(|r| r.timing.fmax_mhz.to_bits())
                .collect();
            let luts = reports.iter().map(|r| r.utilization.luts).sum();
            let this = (fmax_bits, luts);
            match &qor {
                None => qor = Some(this),
                Some(first) if *first != this => failed += kernels.len() as u64,
                Some(_) => {}
            }
            last = reports;
        }
        Rep {
            units: kernels.len() as f64,
            secs,
        }
    });
    let (fmax_bits, luts) = qor.unwrap_or_default();
    let fmax: Vec<f64> = fmax_bits.iter().map(|&b| f64::from_bits(b)).collect();
    let mut end_to_end: Vec<Metric> = vec![("work_per_s", timing.work_per_s(), "1/s")];
    if !fmax.is_empty() {
        end_to_end.push(("fmax_mhz", geomean(&fmax), "MHz"));
        end_to_end.push(("luts", luts as f64, "count"));
    }

    let mut per_layer = Vec::new();
    if ctx.tracer.enabled() {
        let own = ctx.tracer.self_seconds();
        let reps = timing.traced_reps();
        let per_rep = |name: &str| own.get(name).copied().unwrap_or(0.0) / reps;
        let cache = hermes_eucalyptus::cache::stats();
        let all_reps = (timing.traced_secs.len() + timing.untraced_secs.len()) as f64;
        let (accepted, tried): (u64, u64) = last.iter().fold((0, 0), |(a, t), r| {
            (a + r.placement.moves.0, t + r.placement.moves.1)
        });
        per_layer = vec![
            ("hls.compile_s", per_rep("hls.compile"), "s"),
            ("hls.designs", kernels.len() as f64, "count"),
            (
                "eucalyptus.characterize_s",
                own.get("eucalyptus.characterize").copied().unwrap_or(0.0),
                "s",
            ),
            (
                "eucalyptus.cache_hits",
                (cache.hits - hits_before) as f64 / all_reps,
                "count",
            ),
            ("eucalyptus.cache_misses", cache.misses as f64, "count"),
            ("fpga.synth_s", per_rep("fpga.synth"), "s"),
            ("fpga.place_s", per_rep("fpga.place"), "s"),
            ("fpga.route_s", per_rep("fpga.route"), "s"),
            ("fpga.sta_s", per_rep("fpga.sta"), "s"),
            ("fpga.bitgen_s", per_rep("fpga.bitgen"), "s"),
            ("fpga.moves_tried", tried as f64, "count"),
            (
                "fpga.accept_permille",
                (accepted * 1000) as f64 / tried.max(1) as f64,
                "permille",
            ),
            (
                "fpga.hpwl",
                last.iter().map(|r| r.placement.hpwl).sum(),
                "tiles",
            ),
            (
                "fpga.wirelength",
                last.iter().map(|r| r.route.wirelength).sum(),
                "tiles",
            ),
            ("trace.overhead_ratio", timing.trace_overhead(), "ratio"),
        ];
    }
    Outcome {
        attempted,
        failed,
        end_to_end,
        per_layer,
    }
}

/// Compile and implement one kernel outside any timing (set-up of the
/// workloads that need a real bitstream or a design's QoR).
pub fn implement_kernel(tr: &Tracer, source: &str, seed: u64) -> (Design, FlowReport, Bitstream) {
    let design = tr
        .span("hls.compile", 0, |_| {
            HlsFlow::new().unroll_limit(0).compile(source)
        })
        .expect("suite kernels compile");
    let flow = NxFlow::new(
        DeviceProfile::ng_medium_like(),
        FlowOptions {
            effort: Effort::Low,
            seed,
            multicycle: design.multicycle_hints(),
            ..FlowOptions::default()
        },
    );
    let (report, bitstream) = implement(tr, 0, &flow, &design).expect("suite kernels implement");
    (design, report, bitstream)
}
