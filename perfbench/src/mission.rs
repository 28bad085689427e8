//! `mission`: BL1 boots a TMR flash packed by `MissionBuilder` (one
//! `build` bitstream, an assembled guest program and its data) whose
//! copies carry seeded single-copy bit flips the voter must out-vote;
//! then `Hypervisor::run` runs the AOCS, VBN and EOR native partitions,
//! a port sink and the booted guest on a two-core cyclic plan for a
//! fixed simulated span. One unit is one million simulated cycles.

use crate::common::{timed_loop, Ctx, Outcome, Rep};
use hermes_apps::aocs::{AocsState, AocsTask, ONE};
use hermes_apps::eor::EorTask;
use hermes_apps::vbn::{blob_frame, centroid_ref, VbnTask};
use hermes_boot::bl1::{Bl1, BootOutcome, BootSource};
use hermes_boot::flash::Flash;
use hermes_core::mission::MissionBuilder;
use hermes_cpu::memmap::layout;
use hermes_rtl::rng::DetRng;
use hermes_xng::config::{
    Channel, MemRegion, PartitionConfig, Plan, PortConfig, PortDirection, PortKind, Slot, XngConfig,
};
use hermes_xng::hypervisor::Hypervisor;
use hermes_xng::partition::{native_task, PartitionStats};
use hermes_xng::PartitionId;
use std::time::Instant;

/// Simulated cycles the hypervisor runs per rep.
const SPAN: u64 = 160_000_000;
/// Single-copy bit flips injected into the flash payloads.
const FLIPS: usize = 16;
/// Data words the guest sums.
const DATA_WORDS: usize = 64;
/// VBN frame descriptors injected at start.
const FRAMES: usize = 4;
/// Guest code and data addresses (inside the guest's SRAM window).
const CODE_ADDR: u32 = layout::SRAM_BASE;
const DATA_ADDR: u32 = layout::SRAM_BASE + 0x800;

/// Each activation the guest sums its data words, prints the sum as eight
/// hex digits and a newline through the trace hypercall, and yields.
const GUEST_ASM: &str = "
start:
  lui r2, 0x1000
  addi r2, r2, 0x800
  addi r3, r0, 64
  addi r4, r0, 0
sum:
  lw r5, 0(r2)
  add r4, r4, r5
  addi r2, r2, 4
  addi r3, r3, -1
  bne r3, r0, sum
  addi r6, r0, 8
hex:
  shri r5, r4, 28
  addi r7, r0, 10
  blt r5, r7, digit
  addi r5, r5, 7
digit:
  addi r1, r5, 48
  ecall 0x10
  shli r4, r4, 4
  addi r6, r6, -1
  bne r6, r0, hex
  addi r1, r0, 10
  ecall 0x10
  ecall 0x08
  jal r0, start
";

fn port(name: &str, direction: PortDirection, kind: PortKind) -> PortConfig {
    PortConfig {
        name: name.into(),
        direction,
        kind,
    }
}

/// Partition ids of the mission, in configuration order.
struct Ids {
    all: Vec<PartitionId>,
    vbn: PartitionId,
    sink: PartitionId,
    guest: PartitionId,
}

/// The partitioned mission around the booted guest image.
fn hypervisor(code: Vec<u32>, data: Vec<u32>, frames: &[(u32, u32)]) -> (Hypervisor, Ids) {
    use PortDirection::{Destination, Source};
    let mut cfg = XngConfig::new("mission");
    let aocs = cfg.add_partition(PartitionConfig::new("aocs").with_port(port(
        "att",
        Source,
        PortKind::Sampling,
    )));
    let vbn = cfg.add_partition(
        PartitionConfig::new("vbn")
            .with_port(port("frames", Destination, PortKind::Queuing { depth: 8 }))
            .with_port(port("nav", Source, PortKind::Sampling)),
    );
    let eor = cfg.add_partition(PartitionConfig::new("eor").with_port(port(
        "orbit",
        Source,
        PortKind::Sampling,
    )));
    let sink = cfg.add_partition(
        PartitionConfig::new("sink")
            .with_port(port("att_in", Destination, PortKind::Sampling))
            .with_port(port("nav_in", Destination, PortKind::Sampling))
            .with_port(port("orbit_in", Destination, PortKind::Sampling)),
    );
    let guest = cfg.add_partition(PartitionConfig::new("guest").with_memory(MemRegion {
        base: layout::SRAM_BASE,
        size: 0x1000,
        writable: true,
    }));
    for (src, out, dst, max_message) in [
        (aocs, "att", "att_in", 32),
        (vbn, "nav", "nav_in", 16),
        (eor, "orbit", "orbit_in", 8),
    ] {
        cfg.add_channel(Channel {
            source: (src, out.into()),
            destinations: vec![(sink, dst.into())],
            max_message,
        });
    }
    cfg.set_plan(
        0,
        Plan::new(vec![Slot::new(aocs, 10_000), Slot::new(guest, 6_000)]),
    );
    cfg.set_plan(
        1,
        Plan::new(vec![
            Slot::new(vbn, 10_000),
            Slot::new(eor, 4_000),
            Slot::new(sink, 2_000),
        ]),
    );
    let mut hv = Hypervisor::new(cfg).expect("the mission configuration is valid");
    let tumbling = AocsState::tumbling([ONE / 5, -ONE / 9, ONE / 12]);
    hv.attach_native(aocs, Box::new(AocsTask::new(tumbling)))
        .expect("aocs attaches");
    hv.attach_native(vbn, Box::new(VbnTask::new(16, 16)))
        .expect("vbn attaches");
    hv.attach_native(eor, Box::new(EorTask::gto_to_geo()))
        .expect("eor attaches");
    hv.attach_native(
        sink,
        native_task("sink", |c| {
            c.consume(100);
            Ok(())
        }),
    )
    .expect("sink attaches");
    hv.attach_guest(guest, CODE_ADDR, vec![(CODE_ADDR, code), (DATA_ADDR, data)])
        .expect("guest attaches");
    for &(x, y) in frames {
        let msg: Vec<u8> = [x, y].iter().flat_map(|v| v.to_le_bytes()).collect();
        hv.ports_mut()
            .inject(vbn, "frames", &msg, 0)
            .expect("frame port exists");
    }
    (
        hv,
        Ids {
            all: vec![aocs, vbn, eor, sink, guest],
            vbn,
            sink,
            guest,
        },
    )
}

fn words(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect()
}

/// What one rep observed; compared across reps, so every simulated
/// statistic must repeat exactly.
#[derive(PartialEq)]
struct Observed {
    boot_cycles: u64,
    stats: Vec<PartitionStats>,
    trace: Vec<String>,
}

/// Check the booted system: the voter corrected exactly the injected
/// flips, both images and the bitstream arrived intact.
fn boot_ok(b: &BootOutcome, code: &[u32], data: &[u32]) -> bool {
    let r = &b.report;
    let read = |addr: u32, n: usize| b.cluster.bus.read_bytes(addr, n * 4).map(|v| words(&v));
    r.success
        && r.flash_corrected_bytes == FLIPS as u64
        && r.images_loaded == 2
        && r.bitstreams_programmed == 1
        && b.bitstreams.len() == 1
        && b.bitstreams[0].verify().is_ok()
        && read(CODE_ADDR, code.len()).ok().as_deref() == Some(code)
        && read(DATA_ADDR, data.len()).ok().as_deref() == Some(data)
}

/// Check the mission run: every complete guest trace line is the golden
/// sum, VBN published the reference centroid of the last frame, and no
/// partition was escalated.
fn mission_ok(hv: &mut Hypervisor, ids: &Ids, golden: &str, last_frame: (u32, u32)) -> bool {
    let trace = hv.trace(ids.guest);
    let complete = &trace[..trace.len().saturating_sub(1)];
    let guest_ok = !complete.is_empty()
        && complete.iter().all(|l| l == golden)
        && trace.last().is_some_and(|l| golden.starts_with(l.as_str()));
    let img = blob_frame(16, 16, last_frame.0 as usize, last_frame.1 as usize, 220);
    let (cx, cy, _) = centroid_ref(&img, 16, 16, 50);
    let nav = hv
        .ports_mut()
        .read_sampling(ids.sink, "nav_in", 0)
        .ok()
        .flatten();
    let nav_ok = nav.is_some_and(|(m, _)| {
        m.len() == 8 && words(&m) == vec![cx as i32 as u32, cy as i32 as u32]
    });
    let vbn_ok = hv.stats(ids.vbn).activations > 0;
    guest_ok && nav_ok && vbn_ok && hv.hm_escalations == 0 && !hv.is_system_halted()
}

/// Run the `mission` workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let tr = &ctx.tracer;
    let mut rng = DetRng::new(ctx.seed ^ 0x0b00_7000_0000_0001);
    let data: Vec<u32> = (0..DATA_WORDS)
        .map(|_| rng.below(1_000_000) as u32)
        .collect();
    let golden = format!("{:08X}", data.iter().fold(0u32, |a, &w| a.wrapping_add(w)));
    let frames: Vec<(u32, u32)> = (0..FRAMES)
        .map(|_| (2 + rng.below(12) as u32, 2 + rng.below(12) as u32))
        .collect();
    crate::build_flow::characterize(tr);
    let (_, accel, bitstream) =
        crate::build_flow::implement_kernel(tr, hermes_apps::sdr::FIR_SOURCE, 1);
    let code = hermes_cpu::isa::assemble(GUEST_ASM).expect("the guest assembles");
    let data_bytes: Vec<u8> = data.iter().flat_map(|w| w.to_le_bytes()).collect();
    let (pristine, list) = MissionBuilder::new()
        .with_bitstream(&bitstream)
        .with_application_words(CODE_ADDR, 0, &code)
        .with_data(DATA_ADDR, &data_bytes)
        .build_flash();
    // distinct payload bytes, each flipped in one copy only
    let mut flips: Vec<(usize, u32, u8)> = Vec::new();
    while flips.len() < FLIPS {
        let e = &list.entries[rng.below(list.entries.len() as u64) as usize];
        let at = e.offset + rng.below(u64::from(e.size)) as u32;
        if flips.iter().all(|f| f.1 != at) {
            flips.push((rng.below(3) as usize, at, rng.below(8) as u8));
        }
    }

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first: Option<Observed> = None;
    let mut last: Option<(Hypervisor, Ids, BootOutcome)> = None;
    let timing = timed_loop(ctx, |traced| {
        let tr = ctx.tracer(traced);
        let mut flash: Flash = pristine.clone();
        for &(copy, at, bit) in &flips {
            assert!(flash.flip_bit(copy, at, bit), "flip lands inside the flash");
        }
        let t = Instant::now();
        let booted = tr.span("boot.bl1", 0, |_| {
            let mut bl1 = Bl1::new(BootSource::Flash(flash));
            bl1.app_run_budget = 0;
            bl1.boot()
        });
        let Ok(booted) = booted else {
            attempted += 2;
            failed += 2;
            return Rep {
                units: 0.0,
                secs: t.elapsed().as_secs_f64(),
            };
        };
        let image = |addr: u32, n: usize| {
            words(
                &booted
                    .cluster
                    .bus
                    .read_bytes(addr, n * 4)
                    .expect("booted image is mapped"),
            )
        };
        let (mut hv, ids) = hypervisor(
            image(CODE_ADDR, code.len()),
            image(DATA_ADDR, DATA_WORDS),
            &frames,
        );
        let ran = tr.span("xng.run", 0, |_| hv.run(SPAN));
        let secs = t.elapsed().as_secs_f64();

        attempted += 2;
        failed += u64::from(!boot_ok(&booted, &code, &data));
        let observed = Observed {
            boot_cycles: booted.report.total_cycles(),
            stats: ids.all.iter().map(|&p| hv.stats(p)).collect(),
            trace: hv.trace(ids.guest).to_vec(),
        };
        let same = first.as_ref().is_none_or(|f| *f == observed);
        let last_frame = *frames.last().expect("frames injected");
        failed +=
            u64::from(!(ran.is_ok() && same && mission_ok(&mut hv, &ids, &golden, last_frame)));
        let units = (observed.boot_cycles + SPAN) as f64 / 1e6;
        first.get_or_insert(observed);
        if traced {
            last = Some((hv, ids, booted));
        }
        Rep { units, secs }
    });
    let Some(first) = first else {
        // nothing booted: every operation already counts as failed
        return Outcome {
            attempted,
            failed,
            end_to_end: vec![("work_per_s", timing.work_per_s(), "1/s")],
            per_layer: Vec::new(),
        };
    };
    let jitter = first
        .stats
        .iter()
        .map(|s| s.max_start_jitter)
        .max()
        .unwrap_or(0);

    let mut per_layer = Vec::new();
    if let Some((hv, ids, booted)) = &last {
        let own = ctx.tracer.self_seconds();
        let reps = timing.traced_reps();
        let per_rep = |name: &str| own.get(name).copied().unwrap_or(0.0) / reps;
        let sum = |f: fn(&PartitionStats) -> u64| first.stats.iter().map(f).sum::<u64>() as f64;
        let k = hv.kernel_stats();
        per_layer = vec![
            ("boot.bl1_s", per_rep("boot.bl1"), "s"),
            (
                "boot.corrected_bytes",
                booted.report.flash_corrected_bytes as f64,
                "count",
            ),
            (
                "boot.images_loaded",
                f64::from(booted.report.images_loaded),
                "count",
            ),
            ("xng.run_s", per_rep("xng.run"), "s"),
            ("xng.ticks_polled", hv.ticks_polled() as f64, "count"),
            ("xng.ticks_skipped", hv.ticks_skipped() as f64, "count"),
            ("xng.activations", sum(|s| s.activations), "count"),
            ("xng.hypercalls", sum(|s| s.hypercalls), "count"),
            ("xng.traps", sum(|s| s.traps), "count"),
            (
                "cpu.guest_cycles",
                hv.stats(ids.guest).cpu_cycles as f64,
                "cycles",
            ),
            ("kernel.posted", k.posted as f64, "count"),
            ("kernel.popped", k.popped as f64, "count"),
            ("kernel.cancelled", k.cancelled as f64, "count"),
            ("kernel.cascades", k.cascades as f64, "count"),
            ("kernel.max_occupancy", k.max_occupancy as f64, "count"),
            ("trace.overhead_ratio", timing.trace_overhead(), "ratio"),
        ];
    }
    Outcome {
        attempted,
        failed,
        end_to_end: vec![
            ("work_per_s", timing.work_per_s(), "1/s"),
            ("fmax_mhz", accel.timing.fmax_mhz, "MHz"),
            ("luts", accel.utilization.luts as f64, "count"),
            ("boot_cycles", first.boot_cycles as f64, "cycles"),
            ("jitter_cycles", jitter as f64, "cycles"),
        ],
        per_layer,
    }
}
