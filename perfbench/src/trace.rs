//! Benchmark-side spans: kept in memory, written when the workload ends.
//!
//! Spans are recorded from this package only, around calls into the
//! library crates; nothing inside the crates is instrumented. A span's
//! self time is its duration minus the union of its children's intervals,
//! so parallel children never count twice.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (1-based; 0 means "no parent").
    pub id: u64,
    /// The span that caused this one.
    pub parent: u64,
    /// Layer-qualified name, e.g. `fpga.place`.
    pub name: String,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

/// An in-memory span store. A disabled tracer records nothing and adds
/// no timing calls.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or one that only runs closures.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a span whose interval was measured elsewhere; returns its id.
    pub fn record(&self, name: &str, parent: u64, start_ns: u64, end_ns: u64) -> u64 {
        if !self.enabled {
            return 0;
        }
        let mut spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking worker");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        id
    }

    /// Run `f` inside a span named `name` caused by `parent`; `f` gets the
    /// new span's id to pass to its own children.
    pub fn span<R>(&self, name: &str, parent: u64, f: impl FnOnce(u64) -> R) -> R {
        if !self.enabled {
            return f(0);
        }
        // reserve the id first so children can name it as their parent
        let (id, start) = {
            let mut spans = self
                .spans
                .lock()
                .expect("span store poisoned by a panicking worker");
            let id = spans.len() as u64 + 1;
            let start = self.now_ns();
            spans.push(Span {
                id,
                parent,
                name: name.to_string(),
                start_ns: start,
                end_ns: start,
            });
            (id, start)
        };
        let out = f(id);
        let end = self.now_ns().max(start);
        let mut spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking worker");
        spans[(id - 1) as usize].end_ns = end;
        out
    }

    /// Self time in seconds, summed per span name.
    pub fn self_seconds(&self) -> BTreeMap<String, f64> {
        let spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking worker");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len() + 1];
        for s in spans.iter() {
            if s.parent != 0 {
                children[s.parent as usize].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for s in spans.iter() {
            let covered = union_length(&mut children[s.id as usize], s.start_ns, s.end_ns);
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.name.clone()).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// All spans as a JSON array (one object per span).
    pub fn to_json(&self) -> String {
        let spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking worker");
        let rows: Vec<String> = spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                    s.id, s.parent, s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!("[\n  {}\n]", rows.join(",\n  "))
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_length(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::new(true);
        let root = t.record("root", 0, 0, 100);
        t.record("a", root, 10, 40);
        t.record("a", root, 30, 50); // overlaps the first child
        t.record("b", root, 80, 90);
        let own = t.self_seconds();
        assert!((own["root"] - 50e-9).abs() < 1e-15, "{own:?}");
        assert!((own["a"] - 50e-9).abs() < 1e-15);
        assert!((own["b"] - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("x", 0, |id| id + 7);
        assert_eq!(v, 7);
        assert!(t.self_seconds().is_empty());
    }
}
