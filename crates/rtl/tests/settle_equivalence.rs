//! Differential property tests for the settle engines: on randomly
//! generated netlists, the event-driven, bit-packed, and rank-partitioned
//! simulators must agree with a forced scalar full-program simulator on
//! every net value, every register's stored state, and every trace row,
//! across long runs of random pokes and mid-run resets (deterministic
//! `DetRng` loops — no external dependencies). Generator profiles bias
//! toward RAM-heavy, wide-bus, and 1-bit-heavy shapes so each engine's
//! fast paths (packed words, aligned slots, partition claiming) are all
//! exercised. A tiled variant drives one tile of eight so the
//! activity-gated clock edge skips the idle ones, and checks it against
//! the ungated full-settle reference.

use hermes_rtl::component::Comparison;
use hermes_rtl::netlist::{CellId, CellOp, NetId, Netlist};
use hermes_rtl::rng::DetRng;
use hermes_rtl::sim::Simulator;

/// Shape bias for the random netlist generator.
#[derive(Clone, Copy)]
struct Profile {
    /// Net width range (inclusive low, exclusive high).
    w_lo: u64,
    w_hi: u64,
    /// Probability that a width roll is forced to 1 bit (packing fodder).
    bit_bias: f64,
    /// Cell count range.
    cells_lo: u64,
    cells_hi: u64,
    /// Extra kind-roll weight landing on the RAM arm (0 = baseline 1/20).
    ram_bias: u64,
    /// RAM depth range high bound.
    ram_depth_hi: u64,
}

const BASELINE: Profile = Profile {
    w_lo: 1,
    w_hi: 33,
    bit_bias: 0.0,
    cells_lo: 5,
    cells_hi: 40,
    ram_bias: 0,
    ram_depth_hi: 17,
};

/// RAM-dominated: every other cell is a dual-port memory, deeper than
/// the baseline, so step()'s port sampling and read-first commits get a
/// dense workout against all engines.
const RAM_HEAVY: Profile = Profile {
    ram_bias: 20,
    ram_depth_hi: 65,
    cells_lo: 8,
    cells_hi: 30,
    ..BASELINE
};

/// Wide buses only (33–64 bits): nothing packs, shifts and sign
/// arithmetic run at full width.
const WIDE_BUS: Profile = Profile {
    w_lo: 33,
    w_hi: 65,
    cells_lo: 8,
    cells_hi: 40,
    ..BASELINE
};

/// 1-bit-heavy: most nets are single-bit and the netlist is large, so
/// the compiler forms many packed words (including partial and aligned
/// ones) and the partition plan spans several ranks.
const BIT_HEAVY: Profile = Profile {
    bit_bias: 0.75,
    cells_lo: 60,
    cells_hi: 160,
    ..BASELINE
};

/// Build a random, structurally valid netlist: combinational cells only
/// read already-created nets (so the graph is acyclic by construction),
/// registers and RAMs may read anything and source fresh nets.
fn random_netlist(rng: &mut DetRng) -> Netlist {
    random_netlist_with(rng, BASELINE)
}

fn random_netlist_with(rng: &mut DetRng, profile: Profile) -> Netlist {
    let mut nl = Netlist::new("rand");
    let mut pool: Vec<NetId> = Vec::new();
    for i in 0..rng.range_u64(1, 5) {
        pool.push(nl.add_input(format!("in{i}"), rng.range_u64(profile.w_lo, profile.w_hi) as u32));
    }
    let cells = rng.range_u64(profile.cells_lo, profile.cells_hi);
    for c in 0..cells {
        let pick = |rng: &mut DetRng, pool: &[NetId]| pool[rng.below(pool.len() as u64) as usize];
        let w = |rng: &mut DetRng| {
            if rng.chance(profile.bit_bias) {
                1
            } else {
                rng.range_u64(profile.w_lo, profile.w_hi) as u32
            }
        };
        // rolls past the named arms land on the RAM arm; `ram_bias`
        // widens that tail
        let kind = rng.below(20 + profile.ram_bias);
        let a = pick(rng, &pool);
        let b = pick(rng, &pool);
        let sel = pick(rng, &pool);
        let out = match kind {
            0 => {
                let y = nl.add_net(format!("y{c}"), w(rng));
                nl.add_cell(format!("c{c}"), CellOp::Add, &[a, b], &[y]).unwrap();
                y
            }
            1 => {
                let y = nl.add_net(format!("y{c}"), w(rng));
                nl.add_cell(format!("c{c}"), CellOp::Sub, &[a, b], &[y]).unwrap();
                y
            }
            2 => {
                let y = nl.add_net(format!("y{c}"), w(rng));
                nl.add_cell(format!("c{c}"), CellOp::Mul, &[a, b], &[y]).unwrap();
                y
            }
            3 => {
                let y = nl.add_net(format!("y{c}"), w(rng));
                nl.add_cell(format!("c{c}"), CellOp::Div, &[a, b], &[y]).unwrap();
                y
            }
            4 => {
                let y = nl.add_net(format!("y{c}"), w(rng));
                nl.add_cell(format!("c{c}"), CellOp::Mod, &[a, b], &[y]).unwrap();
                y
            }
            5 => {
                let y = nl.add_net(format!("y{c}"), w(rng));
                nl.add_cell(format!("c{c}"), CellOp::And, &[a, b], &[y]).unwrap();
                y
            }
            6 => {
                let y = nl.add_net(format!("y{c}"), w(rng));
                nl.add_cell(format!("c{c}"), CellOp::Or, &[a, b], &[y]).unwrap();
                y
            }
            7 => {
                let y = nl.add_net(format!("y{c}"), w(rng));
                nl.add_cell(format!("c{c}"), CellOp::Xor, &[a, b], &[y]).unwrap();
                y
            }
            8 => {
                let y = nl.add_net(format!("y{c}"), w(rng));
                nl.add_cell(format!("c{c}"), CellOp::Not, &[a], &[y]).unwrap();
                y
            }
            9 => {
                let y = nl.add_net(format!("y{c}"), w(rng));
                nl.add_cell(format!("c{c}"), CellOp::Shl, &[a, b], &[y]).unwrap();
                y
            }
            10 => {
                let y = nl.add_net(format!("y{c}"), w(rng));
                nl.add_cell(format!("c{c}"), CellOp::ShrL, &[a, b], &[y]).unwrap();
                y
            }
            11 => {
                let y = nl.add_net(format!("y{c}"), w(rng));
                nl.add_cell(format!("c{c}"), CellOp::ShrA, &[a, b], &[y]).unwrap();
                y
            }
            12 => {
                let cmp = match rng.below(4) {
                    0 => Comparison::Eq,
                    1 => Comparison::LtS,
                    2 => Comparison::GeU,
                    _ => Comparison::Ne,
                };
                let y = nl.add_net(format!("y{c}"), 1);
                nl.add_cell(format!("c{c}"), CellOp::Cmp(cmp), &[a, b], &[y]).unwrap();
                y
            }
            13 => {
                let y = nl.add_net(format!("y{c}"), w(rng));
                nl.add_cell(format!("c{c}"), CellOp::Mux, &[sel, a, b], &[y]).unwrap();
                y
            }
            14 => {
                let y = nl.add_net(format!("y{c}"), w(rng));
                nl.add_cell(
                    format!("c{c}"),
                    CellOp::Const { value: rng.next_u64() },
                    &[],
                    &[y],
                )
                .unwrap();
                y
            }
            15 => {
                let aw = nl.net(a).width;
                let lo = rng.below(u64::from(aw)) as u32;
                let hi = lo + rng.below(u64::from(aw - lo)) as u32;
                let y = nl.add_net(format!("y{c}"), hi - lo + 1);
                nl.add_cell(format!("c{c}"), CellOp::Slice { lo, hi }, &[a], &[y]).unwrap();
                y
            }
            16 => {
                let y = nl.add_net(format!("y{c}"), w(rng));
                nl.add_cell(format!("c{c}"), CellOp::ZeroExtend, &[a], &[y]).unwrap();
                y
            }
            17 => {
                let y = nl.add_net(format!("y{c}"), w(rng));
                nl.add_cell(format!("c{c}"), CellOp::SignExtend, &[a], &[y]).unwrap();
                y
            }
            18 => {
                let has_enable = rng.chance(0.5);
                let q = nl.add_net(format!("q{c}"), w(rng));
                let ins: Vec<NetId> = if has_enable { vec![a, sel] } else { vec![a] };
                nl.add_cell(
                    format!("c{c}"),
                    CellOp::Register {
                        has_enable,
                        has_reset: rng.chance(0.7),
                    },
                    &ins,
                    &[q],
                )
                .unwrap();
                q
            }
            _ => {
                let depth = rng.range_u64(4, profile.ram_depth_hi) as u32;
                let dw = w(rng);
                let init: Vec<u64> = (0..depth).map(|_| rng.next_u64()).collect();
                let ra = nl.add_net(format!("ra{c}"), dw);
                let rb = nl.add_net(format!("rb{c}"), dw);
                let (wa, wb) = (pick(rng, &pool), pick(rng, &pool));
                let (ea, eb) = (pick(rng, &pool), pick(rng, &pool));
                nl.add_cell(
                    format!("c{c}"),
                    CellOp::RamTdp { depth, init },
                    &[a, wa, ea, b, wb, eb],
                    &[ra, rb],
                )
                .unwrap();
                pool.push(ra);
                rb
            }
        };
        pool.push(out);
    }
    // mark a few nets as outputs so the netlist resembles a real module
    for _ in 0..3 {
        let n = pool[rng.below(pool.len() as u64) as usize];
        nl.mark_output(n);
    }
    nl
}

#[test]
fn event_driven_settle_equals_full_settle() {
    let mut rng = DetRng::new(0xE13_5E771E);
    for case in 0..24u64 {
        let nl = random_netlist(&mut rng);
        nl.validate().expect("generated netlist is structurally valid");
        let inputs: Vec<NetId> = nl.inputs().to_vec();
        let reg_cells: Vec<CellId> = nl
            .cells()
            .filter(|(_, c)| matches!(c.op, CellOp::Register { .. }))
            .map(|(cid, _)| cid)
            .collect();
        let traced: Vec<NetId> = nl.nets().map(|(id, _)| id).take(8).collect();

        let mut ev = Simulator::new(&nl).expect("event sim builds");
        let mut full = Simulator::new(&nl).expect("full sim builds");
        ev.set_event_driven(true);
        full.set_event_driven(false);
        ev.enable_trace(&traced);
        full.enable_trace(&traced);

        for cycle in 0..1000u64 {
            if rng.chance(0.3) {
                let id = inputs[rng.below(inputs.len() as u64) as usize];
                let v = rng.next_u64();
                ev.poke_net(id, v);
                full.poke_net(id, v);
            }
            if rng.chance(0.005) {
                ev.reset();
                full.reset();
            }
            ev.step().expect("event step");
            full.step().expect("full step");
            for (nid, _) in nl.nets() {
                assert_eq!(
                    ev.peek_net(nid),
                    full.peek_net(nid),
                    "case {case} cycle {cycle}: net {nid} diverged"
                );
            }
            for &cid in &reg_cells {
                assert_eq!(
                    ev.register_state(cid),
                    full.register_state(cid),
                    "case {case} cycle {cycle}: register {cid} diverged"
                );
            }
        }
        assert_eq!(ev.settle_passes(), full.settle_passes(), "case {case}");
        assert!(
            ev.settle_ops() <= full.settle_ops(),
            "case {case}: event-driven can never do more work"
        );
        let (te, tf) = (ev.take_trace().unwrap(), full.take_trace().unwrap());
        assert_eq!(te.rows, tf.rows, "case {case}: trace rows diverged");
        assert_eq!(
            te.render(&nl),
            tf.render(&nl),
            "case {case}: rendered traces diverged"
        );
    }
}

/// Drive a panel of simulators in lockstep through random pokes, mid-run
/// resets, and steps, asserting every net, register, and trace row stays
/// identical to the reference (index 0) throughout.
fn lockstep(
    nl: &Netlist,
    sims: &mut [(&'static str, Simulator)],
    rng: &mut DetRng,
    cycles: u64,
    reset_p: f64,
    tag: &str,
) {
    let inputs: Vec<NetId> = nl.inputs().to_vec();
    let reg_cells = register_cells(nl);
    let traced: Vec<NetId> = nl.nets().map(|(id, _)| id).take(8).collect();
    for (_, s) in sims.iter_mut() {
        s.enable_trace(&traced);
    }
    for cycle in 0..cycles {
        if !inputs.is_empty() && rng.chance(0.3) {
            let id = inputs[rng.below(inputs.len() as u64) as usize];
            let v = rng.next_u64();
            for (_, s) in sims.iter_mut() {
                s.poke_net(id, v);
            }
        }
        if rng.chance(reset_p) {
            for (_, s) in sims.iter_mut() {
                s.reset();
            }
        }
        for (_, s) in sims.iter_mut() {
            s.step().expect("step");
        }
        assert_same_state(nl, sims, &reg_cells, &format!("{tag} cycle {cycle}"));
    }
    assert_same_traces(sims, tag);
}

/// Every register cell of `nl`.
fn register_cells(nl: &Netlist) -> Vec<CellId> {
    nl.cells()
        .filter(|(_, c)| matches!(c.op, CellOp::Register { .. }))
        .map(|(cid, _)| cid)
        .collect()
}

/// Assert every net and every register's stored state of each simulator
/// equals the reference (index 0).
fn assert_same_state(
    nl: &Netlist,
    sims: &[(&'static str, Simulator)],
    reg_cells: &[CellId],
    at: &str,
) {
    let (ref_name, reference) = &sims[0];
    for (name, s) in &sims[1..] {
        for (nid, _) in nl.nets() {
            assert_eq!(
                s.peek_net(nid),
                reference.peek_net(nid),
                "{at}: net {nid} diverged ({name} vs {ref_name})"
            );
        }
        for &cid in reg_cells {
            assert_eq!(
                s.register_state(cid),
                reference.register_state(cid),
                "{at}: register {cid} diverged ({name} vs {ref_name})"
            );
        }
    }
}

/// Take every simulator's trace and assert its rows equal the
/// reference's (index 0).
fn assert_same_traces(sims: &mut [(&'static str, Simulator)], tag: &str) {
    let reference = sims[0].1.take_trace().unwrap();
    for (name, s) in &mut sims[1..] {
        let t = s.take_trace().unwrap();
        assert_eq!(t.rows, reference.rows, "{tag}: trace rows diverged ({name})");
    }
}

/// Triple check across generator profiles: packed-event vs scalar-event
/// vs scalar-full must stay bit-identical on RAM-heavy, wide-bus, and
/// 1-bit-heavy netlists through frequent mid-run resets.
#[test]
fn packed_scalar_full_triple_check() {
    let mut rng = DetRng::new(0xE16_7121);
    for (pname, profile) in [
        ("ram_heavy", RAM_HEAVY),
        ("wide_bus", WIDE_BUS),
        ("bit_heavy", BIT_HEAVY),
    ] {
        for case in 0..8u64 {
            let nl = random_netlist_with(&mut rng, profile);
            nl.validate().expect("generated netlist is structurally valid");
            let mut full = Simulator::new_with_packing(&nl, false).expect("full sim");
            full.set_event_driven(false);
            let packed = Simulator::new_with_packing(&nl, true).expect("packed sim");
            let scalar = Simulator::new_with_packing(&nl, true).expect("scalar sim");
            let mut scalar = scalar;
            // keep one event-driven sim genuinely scalar even on netlists
            // where the compiler would pack
            if scalar.packed_words() > 0 {
                scalar = Simulator::new_with_packing(&nl, false).expect("scalar rebuild");
            }
            let mut sims = [
                ("scalar_full", full),
                ("packed_event", packed),
                ("scalar_event", scalar),
            ];
            lockstep(
                &nl,
                &mut sims,
                &mut rng,
                400,
                0.02,
                &format!("{pname} case {case}"),
            );
        }
    }
}

/// Partitioned mode (grain forced to 1 so every pass engages) must match
/// the serial engine at several worker counts, packed and scalar alike.
#[test]
fn partitioned_matches_serial_across_jobs() {
    let mut rng = DetRng::new(0xE16_9A27);
    for (pname, profile) in [("bit_heavy", BIT_HEAVY), ("ram_heavy", RAM_HEAVY)] {
        for case in 0..6u64 {
            let nl = random_netlist_with(&mut rng, profile);
            nl.validate().expect("generated netlist is structurally valid");
            let serial = Simulator::new_with_packing(&nl, true).expect("serial sim");
            let part = |jobs: usize, pack: bool| {
                let mut s = Simulator::new_with_packing(&nl, pack).expect("partitioned sim");
                s.set_partition_grain(1);
                s.set_settle_jobs(jobs);
                s
            };
            let mut sims = [
                ("serial", serial),
                ("packed_j2", part(2, true)),
                ("packed_j4", part(4, true)),
                ("scalar_j4", part(4, false)),
            ];
            lockstep(
                &nl,
                &mut sims,
                &mut rng,
                250,
                0.02,
                &format!("{pname} case {case}"),
            );
            // identical counters at every worker count (engaged passes
            // only exist where the plan has >1 partition)
            let (j2, j4) = (&sims[1].1, &sims[2].1);
            assert_eq!(j2.settle_ops(), j4.settle_ops(), "{pname} case {case}");
            assert_eq!(
                j2.settle_parallel_ops(),
                j4.settle_parallel_ops(),
                "{pname} case {case}"
            );
            assert_eq!(
                j2.settle_parallel_passes(),
                j4.settle_parallel_passes(),
                "{pname} case {case}"
            );
        }
    }
}

/// A random tile plus a 1-bit primary input `en` and a register chain
/// that the clock-edge gate must handle: a register whose `d` is a
/// primary input, register → register links (alternately gated by
/// `en`), and a gated register fed by logic mixing the chain's end with
/// the random part.
fn gated_tile(rng: &mut DetRng) -> Netlist {
    let mut nl = random_netlist_with(rng, BASELINE);
    let pool: Vec<NetId> = nl.nets().map(|(id, _)| id).collect();
    let first_input = nl.inputs()[0];
    let en = nl.add_input("en", 1);
    let mut prev = first_input;
    for i in 0..4 {
        let q = nl.add_net(format!("chain{i}"), nl.net(prev).width);
        let gated = i % 2 == 0;
        let ins = if gated { vec![prev, en] } else { vec![prev] };
        nl.add_cell(
            format!("chain_r{i}"),
            CellOp::Register {
                has_enable: gated,
                has_reset: i != 3,
            },
            &ins,
            &[q],
        )
        .unwrap();
        prev = q;
    }
    let other = pool[rng.below(pool.len() as u64) as usize];
    let mix = nl.add_net("mix", 16);
    let mix_q = nl.add_net("mix_q", 16);
    nl.add_cell("mix_add", CellOp::Add, &[prev, other], &[mix])
        .unwrap();
    nl.add_cell(
        "mix_r",
        CellOp::Register {
            has_enable: true,
            has_reset: true,
        },
        &[mix, en],
        &[mix_q],
    )
    .unwrap();
    nl.mark_output(mix_q);
    nl
}

/// The activity-gated clock edge against the ungated reference on an
/// eight-tile fabric where only one tile is driven: its `en` sits low
/// for long stretches, resets land mid-run, and a clone taken mid-run,
/// while the tile is busy, keeps stepping. Nets, register state and trace rows must match the
/// full-settle simulator (which samples every register every cycle) on
/// every cycle, while the gated simulators sample fewer registers.
#[test]
fn gated_clock_edge_matches_ungated_on_sparse_tiles() {
    const TILES: u64 = 8;
    const CYCLES: u64 = 800;
    let mut rng = DetRng::new(0xE13_C10C);
    for case in 0..8u64 {
        let fabric = gated_tile(&mut rng).tiled(TILES as usize);
        fabric
            .validate()
            .expect("tiled netlist is structurally valid");
        let reg_cells = register_cells(&fabric);
        let traced: Vec<NetId> = fabric
            .nets()
            .map(|(id, _)| id)
            .step_by(7)
            .take(16)
            .collect();
        let mut full = Simulator::new_with_packing(&fabric, true).expect("full sim");
        full.set_event_driven(false);
        let mut partitioned = Simulator::new_with_packing(&fabric, true).expect("part sim");
        partitioned.set_partition_grain(1);
        partitioned.set_settle_jobs(2);
        let mut sims: Vec<(&'static str, Simulator)> = vec![
            ("full", full),
            (
                "packed",
                Simulator::new_with_packing(&fabric, true).expect("packed sim"),
            ),
            (
                "scalar",
                Simulator::new_with_packing(&fabric, false).expect("scalar sim"),
            ),
            ("partitioned", partitioned),
        ];
        for (_, s) in &mut sims {
            s.enable_trace(&traced);
        }

        let active = rng.below(TILES);
        let prefix = format!("u{active}_");
        let en = fabric
            .net_by_name(&format!("{prefix}en"))
            .expect("tile enable");
        let inputs: Vec<NetId> = fabric
            .inputs()
            .iter()
            .copied()
            .filter(|&id| id != en && fabric.net(id).name.starts_with(&prefix))
            .collect();
        let (mut en_value, mut en_flip) = (0u64, rng.range_u64(50, 200));
        for cycle in 0..CYCLES {
            let mut pokes = Vec::new();
            if cycle == en_flip {
                en_value ^= 1;
                // enabled stretches are short, disabled ones long
                en_flip += if en_value == 1 {
                    rng.range_u64(5, 40)
                } else {
                    rng.range_u64(60, 200)
                };
                pokes.push((en, en_value));
            }
            if rng.chance(0.3) {
                pokes.push((
                    inputs[rng.below(inputs.len() as u64) as usize],
                    rng.next_u64(),
                ));
            }
            for (_, s) in &mut sims {
                for &(id, v) in &pokes {
                    s.poke_net(id, v);
                }
            }
            if rng.chance(0.005) {
                for (_, s) in &mut sims {
                    s.reset();
                }
            }
            // clone while the tile is busy, so registers are pending
            if sims.len() == 4 && cycle >= CYCLES / 2 && en_value == 1 && !pokes.is_empty() {
                let twin = sims[1].1.clone();
                sims.push(("packed_clone", twin));
            }
            for (_, s) in &mut sims {
                s.step().expect("step");
            }
            assert_same_state(
                &fabric,
                &sims,
                &reg_cells,
                &format!("case {case} cycle {cycle}"),
            );
        }
        assert_eq!(sims.len(), 5, "case {case}: the clone was taken");
        let all = sims[0].1.reg_samples();
        assert_eq!(
            all,
            CYCLES * reg_cells.len() as u64,
            "case {case}: the reference samples every register"
        );
        for (name, s) in &sims[1..] {
            assert_eq!(
                s.settle_passes(),
                sims[0].1.settle_passes(),
                "case {case} {name}"
            );
            assert!(
                s.reg_samples() < all,
                "case {case} {name}: gated edge sampled {} of {all}",
                s.reg_samples()
            );
        }
        assert_same_traces(&mut sims, &format!("case {case}"));
    }
}
