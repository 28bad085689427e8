//! Property-style test of the `child()`/`absorb()` determinism contract:
//! with nested children recording under different simulated thread
//! interleavings, absorbing in input order must yield a byte-identical
//! merged stream, and trace/span ids minted by each child must not
//! depend on the interleaving at all.

use hermes_obs::{ClockDomain, Recorder, WallMark};

/// Tiny deterministic LCG (obs cannot depend on the RTL crate's RNG).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// A canonical rendering of a snapshot covering everything the
/// determinism contract promises: subsystem order, event order, names,
/// timestamps, and trace links.
fn fingerprint(rec: &Recorder) -> String {
    let snap = rec.snapshot();
    let mut s = String::new();
    for sub in &snap.subsystems {
        s.push_str(&format!("[{} dropped={}]\n", sub.name, sub.dropped));
        for ev in &sub.events {
            s.push_str(&format!(
                "{} {} {} ts={} trace={:?}\n",
                ev.seq,
                ev.name,
                ev.kind.as_str(),
                ev.ts,
                ev.trace
            ));
        }
    }
    for (sub, name, v) in &snap.counters {
        s.push_str(&format!("c {sub} {name} {v}\n"));
    }
    s
}

/// One unit of work a (simulated) thread performs on its child recorder.
fn record_unit(rec: &Recorder, unit: usize, step: u64) {
    let sub = if step.is_multiple_of(3) { "alpha" } else { "beta" };
    let ctx = rec.mint_trace();
    let root = rec.trace_span(
        sub,
        &format!("u{unit}-root"),
        ClockDomain::Cpu,
        step * 10,
        8,
        &[],
        WallMark::none(),
        ctx,
    );
    rec.trace_span(
        sub,
        &format!("u{unit}-leaf"),
        ClockDomain::Cpu,
        step * 10,
        3,
        &[],
        WallMark::none(),
        ctx.child(root),
    );
    rec.counter_add(rec.counter(sub, "units"), 1);
}

/// Run the whole scenario: a parent with `n` children, one of which has
/// two nested grandchildren. `schedule_seed` drives *only* the simulated
/// interleaving (which child records next); the per-child content is
/// fixed. Children are absorbed in input order regardless.
fn run_scenario(n: usize, steps: u64, schedule_seed: u64) -> (String, Vec<u64>) {
    let parent = Recorder::new();
    let children: Vec<Recorder> = (0..n).map(|_| parent.child()).collect();
    let grand: Vec<Recorder> = (0..2).map(|_| children[0].child()).collect();

    // interleave: each lane keeps its own step counter; the schedule
    // decides which lane advances next
    let mut rng = Lcg(schedule_seed);
    let lanes = n + 2;
    let mut done = vec![0u64; lanes];
    while done.iter().any(|&d| d < steps) {
        let lane = (rng.next() as usize) % lanes;
        if done[lane] >= steps {
            continue;
        }
        let step = done[lane];
        done[lane] += 1;
        if lane < n {
            record_unit(&children[lane], lane, step);
        } else {
            record_unit(&grand[lane - n], 100 + lane - n, step);
        }
    }

    // trace ids minted by each lane are a pure function of construction
    // order — capture the next mint from each child to prove it
    let minted: Vec<u64> = children
        .iter()
        .chain(grand.iter())
        .map(|c| c.mint_trace().trace_id)
        .collect();

    // merge in input order: grandchildren into child 0, children into parent
    for g in &grand {
        children[0].absorb(g);
    }
    for c in &children {
        parent.absorb(c);
    }
    (fingerprint(&parent), minted)
}

#[test]
fn absorb_is_invariant_under_interleaving() {
    let (baseline_fp, baseline_ids) = run_scenario(3, 5, 0xfeed);
    assert!(baseline_fp.contains("trace=Some"), "traced events present");
    for seed in 1..32u64 {
        let (fp, ids) = run_scenario(3, 5, 0xfeed ^ seed.wrapping_mul(0x9e3779b97f4a7c15));
        assert_eq!(fp, baseline_fp, "merged stream diverged under schedule seed {seed}");
        assert_eq!(ids, baseline_ids, "minted trace ids diverged under schedule seed {seed}");
    }
}

#[test]
fn nested_absorb_preserves_event_order_and_ids() {
    // deeper nesting, fixed schedule: parent -> c -> (g1, g2); verify the
    // event order after a two-level merge is the recording order of each
    // recorder, children appended at their absorb point
    let parent = Recorder::new();
    let c = parent.child();
    let g1 = c.child();
    let g2 = c.child();
    let t_parent = parent.mint_trace();
    let t_g2 = g2.mint_trace();
    parent.instant("s", "p1", ClockDomain::Seq, 0, &[]);
    c.instant("s", "c1", ClockDomain::Seq, 1, &[]);
    g1.instant("s", "g1a", ClockDomain::Seq, 2, &[]);
    g2.trace_instant("s", "g2a", ClockDomain::Seq, 3, &[], t_g2);
    c.instant("s", "c2", ClockDomain::Seq, 4, &[]);
    c.absorb(&g1);
    c.absorb(&g2);
    parent.absorb(&c);
    parent.trace_instant("s", "p2", ClockDomain::Seq, 5, &[], t_parent);

    let snap = parent.snapshot();
    let names: Vec<&str> =
        snap.subsystems[0].events.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, vec!["p1", "c1", "c2", "g1a", "g2a", "p2"]);
    let seqs: Vec<u64> = snap.subsystems[0].events.iter().map(|e| e.seq).collect();
    let mut sorted = seqs.clone();
    sorted.sort_unstable();
    assert_eq!(seqs, sorted, "re-sequenced in merge order");
    // trace links survive the merge verbatim and never collide
    let g2_ev = &snap.subsystems[0].events[4];
    assert_eq!(g2_ev.trace.unwrap().trace_id, t_g2.trace_id);
    assert_ne!(t_g2.trace_id, t_parent.trace_id);
}

#[test]
fn absorb_keeps_the_childs_id_sequences_and_handles() {
    // a child that goes on recording after being absorbed must never
    // reissue a trace id, span id or child domain it handed out before
    let parent = Recorder::new();
    let child = parent.child();
    let served = child.counter("s", "served");
    let before = child.mint_trace();
    let span_before =
        child.trace_span("s", "a", ClockDomain::Seq, 0, 1, &[], WallMark::none(), before);
    let grand_before = child.child().mint_trace();
    child.counter_add(served, 2);
    parent.absorb(&child);
    assert_eq!(child.snapshot().metric_count(), 0, "metric values drained");
    assert_eq!(child.event_count(), 0, "events drained");

    let after = child.mint_trace();
    let span_after =
        child.trace_span("s", "b", ClockDomain::Seq, 1, 1, &[], WallMark::none(), after);
    let grand_after = child.child().mint_trace();
    assert_ne!(after.trace_id, before.trace_id, "trace id reissued after absorb");
    assert_ne!(span_after, span_before, "span id reissued after absorb");
    assert_ne!(grand_after.trace_id, grand_before.trace_id, "child domain reissued after absorb");

    // the handle issued before the absorb still records, and a second
    // absorb adds to the parent's total
    child.counter_add(served, 3);
    assert_eq!(child.snapshot().counters, vec![("s".to_string(), "served".to_string(), 3)]);
    parent.absorb(&child);
    assert_eq!(parent.snapshot().counters, vec![("s".to_string(), "served".to_string(), 5)]);
}
