//! Shared measurement plumbing: the run context, the timed-repeat loop,
//! medians, and peak memory.

use crate::trace::Tracer;
use std::cell::{Cell, RefCell};
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

/// Reps run at least this many times, however long each takes.
const MIN_REPS: usize = 5;
/// Probes are taken between reps until they have used this share of the
/// time spent in reps.
const PROBE_SHARE: f64 = 0.5;
/// Probes taken at least, however long each takes.
const MIN_PROBES: usize = 15;

/// What one probe measured.
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    /// Process start to the first timed unit, seconds.
    pub setup_s: f64,
    /// Peak resident memory once set-up and the first rep are done, MiB.
    pub peak_rss_mb: f64,
}

/// Runs probes: fresh processes of this binary that do the workload's
/// set-up and one rep, so every sample pays the cold caches a user's first
/// run pays and starts from an untouched heap.
pub struct Prober {
    exe: PathBuf,
    workload: String,
    seed: u64,
    probes: RefCell<Vec<Probe>>,
    spent: Cell<f64>,
}

impl Prober {
    /// A prober for `workload` on `seed`.
    pub fn new(workload: &str, seed: u64) -> Self {
        Prober {
            exe: std::env::current_exe().expect("own executable path"),
            workload: workload.to_string(),
            seed,
            probes: RefCell::new(Vec::new()),
            spent: Cell::new(0.0),
        }
    }

    /// Run one probe and record what it printed.
    fn probe(&self) {
        let start = Instant::now();
        let out = Command::new(&self.exe)
            .args([
                "--workload",
                &self.workload,
                "--seed",
                &self.seed.to_string(),
            ])
            .args(["--seconds", "1", "--trace", "0", "--probe"])
            .output()
            .expect("probe process starts");
        assert!(out.status.success(), "probe failed: {out:?}");
        let text = String::from_utf8_lossy(&out.stdout);
        let v: Vec<f64> = text
            .split_whitespace()
            .map(|x| x.parse().expect("probe prints numbers"))
            .collect();
        assert_eq!(v.len(), 2, "probe prints set-up seconds and peak MiB");
        self.probes.borrow_mut().push(Probe {
            setup_s: v[0],
            peak_rss_mb: v[1],
        });
        self.spent
            .set(self.spent.get() + start.elapsed().as_secs_f64());
    }

    /// Every probe taken, in order.
    pub fn probes(&self) -> Vec<Probe> {
        self.probes.borrow().clone()
    }
}

/// What one workload run is asked to do.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Worker count (`hermes_par::jobs()`, what a user gets by default).
    pub jobs: usize,
    /// Records spans in traced runs, nothing otherwise.
    pub tracer: Tracer,
    /// Never records; used by the untraced reps of a traced run.
    pub untraced: Tracer,
    /// When the process started.
    pub start: Instant,
    /// This process is a probe: set-up and one rep, then report and exit.
    pub probe: bool,
    /// Probes between reps in untraced runs (`None` otherwise).
    pub prober: Option<Prober>,
}

impl Ctx {
    /// The tracer for one rep.
    pub fn tracer(&self, traced: bool) -> &Tracer {
        if traced {
            &self.tracer
        } else {
            &self.untraced
        }
    }
}

/// A named metric value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a workload reports back.
pub struct Outcome {
    /// Checked operations attempted.
    pub attempted: u64,
    /// Operations whose output disagreed with its check.
    pub failed: u64,
    /// End-to-end metrics other than `setup_s` and `peak_rss_mb`.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
}

/// One timed repetition: work units done and the seconds they took.
pub struct Rep {
    /// Units of work (the workload's own unit).
    pub units: f64,
    /// Host seconds of the timed part of the rep (checks excluded).
    pub secs: f64,
}

/// The result of the timed phase.
pub struct Timing {
    /// Units per second of every untraced rep.
    pub rates: Vec<f64>,
    /// Units done by all untraced reps.
    pub untraced_units: f64,
    /// Seconds of every untraced rep.
    pub untraced_secs: Vec<f64>,
    /// Seconds of every traced rep.
    pub traced_secs: Vec<f64>,
}

impl Timing {
    /// Units per second over all untraced reps. Not the median rep: on a
    /// shared 2-vCPU host the speed switched between a few levels for
    /// seconds at a time, and a run's median rep jumped with the level most
    /// reps met, while the total moves with the share of time spent at
    /// each (over ten seeds of `fleet` and of `mission` the spread across
    /// runs halved, 0.14 and 0.12 to 0.07).
    pub fn work_per_s(&self) -> f64 {
        self.untraced_units / self.untraced_secs.iter().sum::<f64>()
    }

    /// Traced reps run (per-layer totals are divided by this).
    pub fn traced_reps(&self) -> f64 {
        self.traced_secs.len().max(1) as f64
    }

    /// Median traced rep time over median untraced rep time.
    pub fn trace_overhead(&self) -> f64 {
        median(&self.traced_secs) / median(&self.untraced_secs)
    }
}

/// Repeat `rep` for `ctx.seconds` (at least [`MIN_REPS`] times). Traced
/// runs alternate untraced and traced reps so both see the same host
/// conditions; the flag passed to `rep` says which one this is. With a
/// prober, probes run between reps (within the `ctx.seconds`), so they
/// see the same host conditions as the reps; at least [`MIN_PROBES`] run.
///
/// A probe process runs one rep, prints its set-up seconds and peak
/// memory, and exits.
pub fn timed_loop(ctx: &Ctx, mut rep: impl FnMut(bool) -> Rep) -> Timing {
    if ctx.probe {
        let setup_s = ctx.start.elapsed().as_secs_f64();
        rep(false);
        println!("{setup_s} {}", peak_rss_mb());
        std::process::exit(0);
    }
    let loop_start = Instant::now();
    let mut in_reps = 0.0;
    let mut t = Timing {
        rates: Vec::new(),
        untraced_units: 0.0,
        untraced_secs: Vec::new(),
        traced_secs: Vec::new(),
    };
    let mut i = 0usize;
    loop {
        let traced = ctx.tracer.enabled() && i % 2 == 1;
        let start = Instant::now();
        let r = rep(traced);
        in_reps += start.elapsed().as_secs_f64();
        if traced {
            t.traced_secs.push(r.secs);
        } else {
            t.untraced_secs.push(r.secs);
            t.untraced_units += r.units;
            t.rates.push(r.units / r.secs);
        }
        if let Some(prober) = &ctx.prober {
            if prober.spent.get() < PROBE_SHARE * in_reps {
                prober.probe();
            }
        }
        i += 1;
        let enough = t.untraced_secs.len() >= MIN_REPS
            && (!ctx.tracer.enabled() || t.traced_secs.len() >= MIN_REPS);
        if enough && loop_start.elapsed().as_secs_f64() >= ctx.seconds {
            if let Some(prober) = &ctx.prober {
                while prober.probes.borrow().len() < MIN_PROBES {
                    prober.probe();
                }
            }
            let mut r = t.rates.clone();
            r.sort_by(f64::total_cmp);
            let q = |p: f64| r[((r.len() - 1) as f64 * p).round() as usize];
            eprintln!(
                "perfbench: {} reps, units/s q10 {:.4} q50 {:.4} q90 {:.4}",
                r.len(),
                q(0.1),
                q(0.5),
                q(0.9)
            );
            eprintln!("perfbench-rates: {:?}", t.rates);
            return t;
        }
    }
}

/// Median of `values` (the mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time `f`, returning its value and the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        assert!((geomean(&[5.0, 5.0, 5.0]) - 5.0).abs() < 1e-12);
    }
}
