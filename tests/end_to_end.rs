//! Cross-crate integration tests: the full ecosystem paths a HERMES user
//! exercises, spanning HLS, FPGA implementation, boot, hypervisor, and the
//! use-case applications.

use hermes::apps::aocs::{AocsState, AocsTask, ONE};
use hermes::apps::vbn::VbnTask;
use hermes::boot::flash::RedundancyMode;
use hermes::core::accelerator::AcceleratorFlow;
use hermes::core::mission::MissionBuilder;
use hermes::cpu::memmap::layout;
use hermes::hls::HlsFlow;
use hermes::rtl::sim::Simulator;
use hermes::xng::config::{
    Channel, PartitionConfig, Plan, PortConfig, PortDirection, PortKind, Slot, XngConfig,
};
use hermes::xng::hypervisor::Hypervisor;
use hermes::xng::partition::native_task;

/// C source → HLS → FPGA bitstream → flash → BL1 boot → eFPGA programmed
/// and the companion application executed: the complete Fig. 2 + Fig. 3 +
/// Fig. 5 chain in one test.
#[test]
fn c_source_to_booted_mission() {
    let artifact = AcceleratorFlow::new()
        .build(
            "int checksum(int a, int b, int c) { return (a ^ b) + (b ^ c) + (a % (c + 1)); }",
        )
        .expect("accelerator flow");
    // the HLS design is functionally correct
    let sim = artifact.design.simulate(&[10, 20, 30]).expect("simulate");
    assert_eq!(sim.return_value, Some((10 ^ 20) + (20 ^ 30) + 10)); // 10 % 31 == 10

    let outcome = MissionBuilder::new()
        .redundancy(RedundancyMode::Tmr)
        .with_bitstream(&artifact.bitstream)
        .with_application_asm(layout::DDR_BASE, 0, "addi r1, r0, 55\nhalt")
        .expect("assembles")
        .boot()
        .expect("boots");
    assert!(outcome.report.success);
    assert_eq!(outcome.bitstreams[0].design_name, "checksum");
    outcome.bitstreams[0].verify().expect("bitstream intact");
    assert_eq!(outcome.cluster.core(0).reg(1), 55);
}

/// HLS co-simulation vs structural netlist simulation on a nontrivial
/// control-flow kernel — values and latency must agree exactly.
#[test]
fn hls_vs_netlist_simulation_agree() {
    let src = r#"
        int collatz_steps(int n) {
            int steps = 0;
            while (n != 1 && steps < 200) {
                if ((n & 1) == 1) { n = 3 * n + 1; } else { n = n / 2; }
                steps += 1;
            }
            return steps;
        }
    "#;
    let design = HlsFlow::new().compile(src).expect("compiles");
    for n in [1i64, 6, 7, 27] {
        let expect = design.simulate(&[n]).expect("co-sim");
        let mut sim = Simulator::new(design.netlist()).expect("netlist valid");
        sim.reset();
        sim.poke("arg_n", n as u64).expect("arg port exists");
        let cycles = sim
            .run_until(expect.states_visited * 3 + 64, |s| {
                s.peek("done").expect("done net") == 1
            })
            .expect("sim runs")
            .expect("finishes");
        assert_eq!(
            sim.peek("ret_q").expect("ret net"),
            expect.return_value.expect("non-void") as u64,
            "collatz({n})"
        );
        assert_eq!(cycles, expect.states_visited, "latency for n={n}");
    }
}

/// The activity-gated clock edge on a tiled HLS design: sixteen `acc`
/// tiles with one of them active must return the same value in the same
/// number of cycles as the ungated full-settle simulator (and as HLS
/// co-simulation), while sampling fewer registers.
#[test]
fn gated_clock_edge_on_tiled_hls_fabric() {
    let src =
        "int acc(int n) { int s = 0; for (int i = 0; i < n; i += 1) { s += i * i; } return s; }";
    let design = HlsFlow::new().compile(src).expect("compiles");
    let fabric = design.netlist().tiled(16);
    let n = 37;
    let expect = design.simulate(&[n]).expect("co-sim");
    let mut gated = Simulator::new(&fabric).expect("fabric valid");
    let mut full = Simulator::new(&fabric).expect("fabric valid");
    full.set_event_driven(false);
    let mut runs = Vec::new();
    for sim in [&mut gated, &mut full] {
        sim.reset();
        sim.poke("u9_arg_n", n as u64)
            .expect("tile arg port exists");
        let cycles = sim
            .run_until(expect.states_visited * 3 + 64, |s| {
                s.peek("u9_done").expect("done net") == 1
            })
            .expect("sim runs")
            .expect("finishes");
        runs.push((sim.peek("u9_ret_q").expect("ret net"), cycles));
    }
    assert_eq!(runs[0], runs[1], "gated vs full-settle (value, cycles)");
    assert_eq!(
        runs[0],
        (
            expect.return_value.expect("non-void") as u64,
            expect.states_visited
        )
    );
    assert!(
        gated.reg_samples() < full.reg_samples(),
        "one active tile of 16: {} vs {} registers sampled",
        gated.reg_samples(),
        full.reg_samples()
    );
}

/// A partitioned mission where a guest assembly partition feeds data to a
/// native monitoring partition through a queuing port.
#[test]
fn guest_to_native_port_flow() {
    let mut cfg = XngConfig::new("flow");
    let producer = cfg.add_partition(
        PartitionConfig::new("producer")
            .with_memory(hermes::xng::config::MemRegion {
                base: layout::SRAM_BASE,
                size: 0x1000,
                writable: true,
            })
            .with_port(PortConfig {
                name: "data".into(),
                direction: PortDirection::Source,
                kind: PortKind::Queuing { depth: 16 },
            }),
    );
    let consumer = cfg.add_partition(PartitionConfig::new("consumer").with_port(PortConfig {
        name: "data_in".into(),
        direction: PortDirection::Destination,
        kind: PortKind::Queuing { depth: 16 },
    }));
    cfg.add_channel(Channel {
        source: (producer, "data".into()),
        destinations: vec![(consumer, "data_in".into())],
        max_message: 8,
    });
    cfg.set_plan(
        0,
        Plan::new(vec![Slot::new(producer, 4_000), Slot::new(consumer, 4_000)]),
    );
    let mut hv = Hypervisor::new(cfg).expect("config");
    // guest: send 1, 2, 3, ... on queuing port 0, yielding between sends
    let prog = hermes::cpu::isa::assemble(
        r#"
        addi r3, r0, 0
        addi r1, r0, 0      ; port index
    loop:
        addi r3, r3, 1
        add  r2, r0, r3     ; payload
        ecall 0x05          ; send queuing
        ecall 0x08          ; yield
        jal  r0, loop
        "#,
    )
    .expect("assembles");
    hv.attach_guest(producer, layout::SRAM_BASE, vec![(layout::SRAM_BASE, prog)])
        .expect("attach guest");
    hv.attach_native(
        consumer,
        native_task("consumer", move |ctx| {
            while let Ok(Some(msg)) = ctx.read_queuing("data_in") {
                let v = u32::from_le_bytes([msg[0], msg[1], msg[2], msg[3]]);
                ctx.trace(format!("got {v}"));
            }
            ctx.consume(200);
            Ok(())
        }),
    )
    .expect("attach native");
    hv.run(60_000).expect("run");
    let trace = hv.trace(consumer);
    assert!(
        trace.len() >= 3,
        "consumer should have received several messages: {trace:?}"
    );
    assert_eq!(trace[0], "got 1");
    assert_eq!(trace[1], "got 2");
}

/// The full SELENE-like mission of the paper's Section V hypervisor
/// evaluation: AOCS detumbles while VBN processes injected frames, on a
/// two-core plan.
#[test]
fn aocs_vbn_mission_converges() {
    let mut cfg = XngConfig::new("selene");
    let aocs = cfg.add_partition(PartitionConfig::new("aocs").with_port(PortConfig {
        name: "att".into(),
        direction: PortDirection::Source,
        kind: PortKind::Sampling,
    }));
    let vbn = cfg.add_partition(
        PartitionConfig::new("vbn")
            .with_port(PortConfig {
                name: "frames".into(),
                direction: PortDirection::Destination,
                kind: PortKind::Queuing { depth: 8 },
            })
            .with_port(PortConfig {
                name: "nav".into(),
                direction: PortDirection::Source,
                kind: PortKind::Sampling,
            }),
    );
    let sink = cfg.add_partition(
        PartitionConfig::new("sink")
            .with_port(PortConfig {
                name: "att_in".into(),
                direction: PortDirection::Destination,
                kind: PortKind::Sampling,
            })
            .with_port(PortConfig {
                name: "nav_in".into(),
                direction: PortDirection::Destination,
                kind: PortKind::Sampling,
            }),
    );
    cfg.add_channel(Channel {
        source: (aocs, "att".into()),
        destinations: vec![(sink, "att_in".into())],
        max_message: 32,
    });
    cfg.add_channel(Channel {
        source: (vbn, "nav".into()),
        destinations: vec![(sink, "nav_in".into())],
        max_message: 16,
    });
    cfg.set_plan(0, Plan::new(vec![Slot::new(aocs, 10_000)]));
    cfg.set_plan(1, Plan::new(vec![Slot::new(vbn, 10_000), Slot::new(sink, 2_000)]));

    let mut hv = Hypervisor::new(cfg).expect("config");
    hv.attach_native(
        aocs,
        Box::new(AocsTask::new(AocsState::tumbling([ONE / 5, -ONE / 9, ONE / 12]))),
    )
    .expect("attach aocs");
    hv.attach_native(vbn, Box::new(VbnTask::new(16, 16))).expect("attach vbn");
    hv.attach_native(sink, native_task("sink", |ctx| {
        ctx.consume(100);
        Ok(())
    }))
    .expect("attach sink");

    // inject a frame descriptor for the VBN partition
    let mut msg = Vec::new();
    msg.extend_from_slice(&9u32.to_le_bytes());
    msg.extend_from_slice(&4u32.to_le_bytes());
    hv.ports_mut().inject(vbn, "frames", &msg, 0).expect("inject");

    hv.run(2_000_000).expect("run");

    // AOCS published attitude; quaternion w close to 1.0 after detumbling
    let (att, _age) = hv
        .ports_mut()
        .read_sampling(sink, "att_in", 0)
        .expect("port exists")
        .expect("attitude published");
    let w = i32::from_le_bytes([att[0], att[1], att[2], att[3]]);
    assert!(
        (f64::from(w) / 65536.0) > 0.97,
        "attitude should settle near identity, qw = {}",
        f64::from(w) / 65536.0
    );
    // VBN published the centroid of the injected frame (blob at 9,4)
    let (nav, _) = hv
        .ports_mut()
        .read_sampling(sink, "nav_in", 0)
        .expect("port exists")
        .expect("centroid published");
    let cx = i32::from_le_bytes([nav[0], nav[1], nav[2], nav[3]]);
    let cy = i32::from_le_bytes([nav[4], nav[5], nav[6], nav[7]]);
    assert!((cx - (9 << 8)).abs() < 192, "cx = {}", f64::from(cx) / 256.0);
    assert!((cy - (4 << 8)).abs() < 192, "cy = {}", f64::from(cy) / 256.0);
    assert!(!hv.is_system_halted());
}

/// An HLS accelerator for a use-case kernel is implemented on both device
/// generations; the modern one must close timing roughly 2x higher.
#[test]
fn device_generation_speed_claim() {
    use hermes::fpga::device::DeviceProfile;
    use hermes::fpga::flow::{FlowOptions, NxFlow};
    let design = HlsFlow::new()
        .unroll_limit(0)
        .compile(hermes::apps::sdr::FIR_SOURCE)
        .expect("compiles");
    let run = |dev: DeviceProfile| {
        NxFlow::new(
            dev,
            FlowOptions {
                effort: hermes::fpga::place::Effort::Zero,
                ..FlowOptions::default()
            },
        )
        .run(design.netlist())
        .expect("implements")
        .timing
        .fmax_mhz
    };
    let modern = run(DeviceProfile::ng_medium_like());
    let legacy = run(DeviceProfile::legacy_radhard_like());
    let ratio = modern / legacy;
    assert!(
        (1.7..=2.3).contains(&ratio),
        "28nm vs 65nm speed ratio should be ~2x, got {ratio:.2}"
    );
}
