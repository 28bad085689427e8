//! `cosim`: a `Netlist::tiled` fabric of `acc` tiles run in a dense phase
//! (every tile active) and a sparse phase (a few tiles active), then
//! cycle-accurate HLS co-simulation of the suite kernels against a live
//! `AxiTestbench`. One unit is 1,000 simulated cycles.
//!
//! The two phases use the settle engine in opposite ways: dense activity
//! favours whole-program passes, sparse activity favours event-driven
//! settle, so a change to the engine shows on each phase separately.

use crate::common::{timed_loop, Ctx, Outcome, Rep};
use crate::suite::{suite, Kernel};
use crate::trace::Tracer;
use hermes_axi::memory::MemoryTiming;
use hermes_axi::testbench::{AxiTestbench, BusStats};
use hermes_hls::simulate::ExternalMemory;
use hermes_hls::{Design, HlsFlow};
use hermes_rtl::netlist::NetId;
use hermes_rtl::rng::DetRng;
use hermes_rtl::sim::Simulator;
use std::collections::HashMap;
use std::time::Instant;

/// The accumulator tile: returns Σ i² for i < n, modulo 2³².
const ACC_SRC: &str =
    "int acc(int n) { int s = 0; for (int i = 0; i < n; i += 1) { s += i * i; } return s; }";
/// Tiles in the fabric.
const TILES: usize = 256;
/// Dense phase: every tile runs `acc(n)` with n drawn around this.
const DENSE_N: u64 = 240;
/// Sparse phase: this many tiles run `acc(n)` with n drawn around
/// `SPARSE_N`; the rest stay idle.
const SPARSE_TILES: usize = 4;
const SPARSE_N: u64 = 1_600;
/// Bound on one phase, far above its real length.
const MAX_CYCLES: u64 = 1_000_000;

/// Per-tile nets of the fabric.
struct TileNets {
    arg: NetId,
    done: NetId,
    ret: NetId,
}

/// Σ i² for i < n, modulo 2³² (what `acc(n)` returns in 32-bit `int`).
fn sum_squares(n: u64) -> u64 {
    let n = u128::from(n);
    let s = if n == 0 {
        0
    } else {
        (n - 1) * n * (2 * n - 1) / 6
    };
    (s % (1u128 << 32)) as u64
}

/// One phase result: cycles simulated, tiles checked, tiles wrong.
struct Phase {
    cycles: u64,
    checked: u64,
    wrong: u64,
    ops: u64,
    passes: u64,
}

/// Reset the fabric, give tile `k` the argument `args[k]` (0 = idle), and
/// run until the tile with the largest argument reports done.
fn run_phase(sim: &mut Simulator<'_>, nets: &[TileNets], args: &[u64]) -> Phase {
    let (ops0, passes0) = (sim.settle_ops(), sim.settle_passes());
    for (t, &n) in nets.iter().zip(args) {
        sim.poke_net(t.arg, n);
    }
    sim.reset();
    let last = args
        .iter()
        .enumerate()
        .max_by_key(|(_, &n)| n)
        .map_or(0, |(k, _)| k);
    let mut cycles = 0;
    while sim.peek_net(nets[last].done) != 1 && cycles < MAX_CYCLES {
        sim.step().expect("the fabric steps");
        cycles += 1;
    }
    let mut p = Phase {
        cycles,
        checked: 0,
        wrong: 0,
        ops: 0,
        passes: 0,
    };
    for (t, &n) in nets.iter().zip(args).filter(|(_, &n)| n > 0) {
        p.checked += 1;
        if sim.peek_net(t.done) != 1 || sim.peek_net(t.ret) != sum_squares(n) {
            p.wrong += 1;
        }
    }
    p.ops = sim.settle_ops() - ops0;
    p.passes = sim.settle_passes() - passes0;
    p
}

/// Byte address of each external array in the testbench memory.
fn layout(k: &Kernel) -> HashMap<hermes_hls::ir::ArrayId, u64> {
    let mut at = 0u64;
    k.buffers
        .iter()
        .map(|(id, data)| {
            let base = at;
            at += (data.len() as u64 * 4).div_ceil(64) * 64;
            (*id, base)
        })
        .collect()
}

/// Co-simulate one kernel over AXI; returns (cycles, output correct,
/// bus statistics).
fn cosim_kernel(k: &Kernel, design: &Design) -> (u64, bool, BusStats) {
    let base = layout(k);
    let mut tb = AxiTestbench::new(64 * 1024, MemoryTiming::default());
    for (id, data) in &k.buffers {
        for (i, &v) in data.iter().enumerate() {
            tb.memory_mut()
                .poke(base[id] + i as u64 * 4, &(v as i32).to_le_bytes());
        }
    }
    let mut ext = ExternalMemory::Axi {
        bus: &mut tb,
        base_addr: base.clone(),
    };
    let result = design.simulate_with_memory(&k.args, &mut ext);
    let (id, want) = &k.expected;
    let got: Vec<i64> = tb
        .memory()
        .peek(base[id], want.len() * 4)
        .chunks_exact(4)
        .map(|b| i64::from(i32::from_le_bytes([b[0], b[1], b[2], b[3]])))
        .collect();
    let ok = result.is_ok() && got == *want && tb.violations().is_empty();
    (result.map_or(0, |r| r.cycles), ok, tb.stats())
}

/// Run the `cosim` workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let tr: &Tracer = &ctx.tracer;
    let mut rng = DetRng::new(ctx.seed ^ 0xc051_0000_0000_0001);
    let dense: Vec<u64> = (0..TILES).map(|_| DENSE_N - 16 + rng.below(33)).collect();
    let mut sparse = vec![0u64; TILES];
    for _ in 0..SPARSE_TILES {
        loop {
            let k = rng.below(TILES as u64) as usize;
            if sparse[k] == 0 {
                sparse[k] = SPARSE_N - 64 + rng.below(129);
                break;
            }
        }
    }
    let kernels = suite(ctx.seed);
    crate::build_flow::characterize(tr);
    let hls = HlsFlow::new().unroll_limit(0);
    let (designs, acc) = tr.span("hls.compile", 0, |_| {
        let designs: Vec<Design> = kernels
            .iter()
            .map(|k| hls.compile(k.source).expect("suite kernels compile"))
            .collect();
        (designs, hls.compile(ACC_SRC).expect("acc compiles"))
    });
    let fabric = acc.netlist().tiled(TILES);
    let mut sim = tr.span("rtl.sim_build", 0, |_| {
        Simulator::new(&fabric).expect("valid fabric")
    });
    let net = |k: usize, name: &str| {
        fabric
            .net_by_name(&format!("u{k}_{name}"))
            .expect("tiled nets are named u<k>_<net>")
    };
    let nets: Vec<TileNets> = (0..TILES)
        .map(|k| TileNets {
            arg: net(k, "arg_n"),
            done: net(k, "done"),
            ret: net(k, "ret_q"),
        })
        .collect();

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first: Option<Vec<u64>> = None;
    let (mut dense_cycles, mut sparse_cycles, mut ops, mut passes, mut cosim_cycles) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut bus = BusStats::default();
    let timing = timed_loop(ctx, |traced| {
        let tr = ctx.tracer(traced);
        let t = Instant::now();
        let d = tr.span("rtl.dense", 0, |_| run_phase(&mut sim, &nets, &dense));
        let s = tr.span("rtl.sparse", 0, |_| run_phase(&mut sim, &nets, &sparse));
        let co: Vec<(u64, bool, BusStats)> = tr.span("hls.cosim", 0, |_| {
            kernels
                .iter()
                .zip(&designs)
                .map(|(k, d)| cosim_kernel(k, d))
                .collect()
        });
        let secs = t.elapsed().as_secs_f64();
        attempted += d.checked + s.checked + co.len() as u64;
        failed += d.wrong + s.wrong;
        for (k, _) in kernels.iter().zip(&co).filter(|(_, c)| !c.1) {
            failed += 1;
            eprintln!(
                "perfbench: kernel {} failed its AXI co-simulation check",
                k.name
            );
        }
        // simulated cycles repeat exactly from rep to rep
        let cycles: Vec<u64> = [d.cycles, s.cycles]
            .into_iter()
            .chain(co.iter().map(|c| c.0))
            .collect();
        match &first {
            None => first = Some(cycles.clone()),
            Some(f) if *f != cycles => failed += 1,
            Some(_) => {}
        }
        let co_cycles: u64 = co.iter().map(|c| c.0).sum();
        if traced {
            dense_cycles += d.cycles;
            sparse_cycles += s.cycles;
            ops += d.ops + s.ops;
            passes += d.passes + s.passes;
            cosim_cycles += co_cycles;
            for (_, _, b) in &co {
                bus.read_bursts += b.read_bursts;
                bus.write_bursts += b.write_bursts;
                bus.total_read_latency += b.total_read_latency;
                bus.retries += b.retries;
            }
        }
        Rep {
            units: (d.cycles + s.cycles + co_cycles) as f64 / 1e3,
            secs,
        }
    });

    let mut per_layer = Vec::new();
    if ctx.tracer.enabled() {
        let own = ctx.tracer.self_seconds();
        let reps = timing.traced_reps();
        let secs = |name: &str| own.get(name).copied().unwrap_or(0.0);
        per_layer = vec![
            ("rtl.sim_build_s", secs("rtl.sim_build"), "s"),
            (
                "rtl.dense_kcycles_per_s",
                dense_cycles as f64 / 1e3 / secs("rtl.dense"),
                "kcycles/s",
            ),
            (
                "rtl.sparse_kcycles_per_s",
                sparse_cycles as f64 / 1e3 / secs("rtl.sparse"),
                "kcycles/s",
            ),
            ("rtl.settle_ops", ops as f64 / reps, "count"),
            ("rtl.settle_passes", passes as f64 / reps, "count"),
            (
                "rtl.ops_per_cycle",
                ops as f64 / (dense_cycles + sparse_cycles) as f64,
                "count",
            ),
            ("hls.compile_s", secs("hls.compile"), "s"),
            ("hls.designs", designs.len() as f64 + 1.0, "count"),
            (
                "eucalyptus.characterize_s",
                secs("eucalyptus.characterize"),
                "s",
            ),
            ("hls.cosim_s", secs("hls.cosim") / reps, "s"),
            ("hls.cosim_cycles", cosim_cycles as f64 / reps, "cycles"),
            (
                "axi.bursts",
                (bus.read_bursts + bus.write_bursts) as f64 / reps,
                "count",
            ),
            (
                "axi.read_latency_cycles",
                bus.total_read_latency as f64 / bus.read_bursts.max(1) as f64,
                "cycles",
            ),
            ("axi.retries", bus.retries as f64 / reps, "count"),
            ("trace.overhead_ratio", timing.trace_overhead(), "ratio"),
        ];
    }
    Outcome {
        attempted,
        failed,
        end_to_end: vec![("work_per_s", timing.work_per_s(), "1/s")],
        per_layer,
    }
}
