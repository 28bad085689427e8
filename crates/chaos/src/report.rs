//! The chaos campaign report: injected-fault accounting, exercised
//! recovery stages, availability, and mean time to recovery.
//!
//! A campaign passes only if every fault was either *recovered* by one of
//! the stack's mechanisms or *contained* (detected and isolated) — a fault
//! that changes observable mission output without any detection is a
//! **silent corruption**, the one outcome a qualified space stack must
//! never produce.

use std::fmt::Write as _;

/// Counters for each recovery mechanism the stack implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryStages {
    /// AXI transactions re-issued after SLVERR/timeout.
    pub axi_retries: u64,
    /// Flash bytes repaired by TMR majority vote.
    pub flash_voted_bytes: u64,
    /// Sequential flash copy fallbacks (alternate copy passed CRC).
    pub flash_copy_fallbacks: u64,
    /// SpaceWire packets retransmitted after CRC failure.
    pub spw_retransmissions: u64,
    /// Boot attempts that failed over to an alternate boot source.
    pub boot_source_failovers: u64,
    /// Golden/fallback bitstream substitutions.
    pub golden_bitstream_substitutions: u64,
    /// Safe-mode boots (last-resort stage).
    pub safe_mode_boots: u64,
    /// Partition restarts by the health monitor.
    pub partition_restarts: u64,
    /// Health-monitor escalations (restart promoted to halt).
    pub hm_escalations: u64,
    /// Spare-partition failovers.
    pub spare_failovers: u64,
    /// Watchdog expiries detected.
    pub watchdog_expiries: u64,
    /// Memory words repaired by EDAC/scrubbing.
    pub edac_corrections: u64,
}

/// The campaign report.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Seed the fault plan was generated from.
    pub seed: u64,
    /// Faults injected, by subsystem label.
    pub injected: Vec<(String, u64)>,
    /// Recovery-stage counters.
    pub recovered: RecoveryStages,
    /// Whether the boot chain reached application hand-off.
    pub boot_succeeded: bool,
    /// Major frames the mission phase completed.
    pub frames_total: u64,
    /// Major frames in which every mission-critical function was served
    /// (by the primary or a spare partition).
    pub frames_available: u64,
    /// Cycles from each detected fault to the completed recovery action;
    /// used for the MTTR figure.
    pub recovery_latencies: Vec<u64>,
    /// Observable mission outputs that differed from the golden model
    /// without any detection event — must be zero.
    pub silent_corruptions: u64,
    /// Free-form notes (one line per noteworthy campaign event).
    pub notes: Vec<String>,
    /// Flight recorder injections are traced into live (disabled by
    /// default; see [`ChaosReport::set_obs`]).
    pub obs: hermes_obs::Recorder,
}

impl ChaosReport {
    /// Attach a flight recorder: each [`inject`](ChaosReport::inject) from
    /// here on emits a live `fault-injected` event, and
    /// [`export_obs`](ChaosReport::export_obs) can publish the recovery
    /// counters at campaign end.
    pub fn set_obs(&mut self, obs: hermes_obs::Recorder) {
        self.obs = obs;
    }

    /// Record an injected fault against a subsystem label.
    pub fn inject(&mut self, label: &str) {
        if let Some(e) = self.injected.iter_mut().find(|(l, _)| l == label) {
            e.1 += 1;
        } else {
            self.injected.push((label.to_string(), 1));
        }
        self.obs.counter_add(self.obs.counter("chaos", "faults_injected"), 1);
        self.obs.instant(
            "chaos",
            "fault-injected",
            hermes_obs::ClockDomain::Seq,
            self.total_injected(),
            &[("label", label.to_string())],
        );
    }

    /// Publish the campaign's recovery counters and verdict into the
    /// attached flight recorder (one `recovery-fired` event per exercised
    /// stage, in the fixed stage order used by
    /// [`render`](ChaosReport::render)).
    pub fn export_obs(&self) {
        let r = &self.recovered;
        let mut fired = 0u64;
        for (label, n) in [
            ("axi-retry", r.axi_retries),
            ("flash-tmr-vote", r.flash_voted_bytes),
            ("flash-copy-fallback", r.flash_copy_fallbacks),
            ("spw-retransmission", r.spw_retransmissions),
            ("boot-source-failover", r.boot_source_failovers),
            ("golden-bitstream", r.golden_bitstream_substitutions),
            ("safe-mode-boot", r.safe_mode_boots),
            ("partition-restart", r.partition_restarts),
            ("hm-escalation", r.hm_escalations),
            ("spare-failover", r.spare_failovers),
            ("watchdog-expiry", r.watchdog_expiries),
            ("edac-correction", r.edac_corrections),
        ] {
            let c = self.obs.counter("chaos", &format!("recovered.{label}"));
            self.obs.counter_add(c, n);
            if n > 0 {
                fired += 1;
                self.obs.instant(
                    "chaos",
                    "recovery-fired",
                    hermes_obs::ClockDomain::Seq,
                    fired,
                    &[("stage", label.to_string()), ("count", n.to_string())],
                );
            }
        }
        let silent = self.obs.counter("chaos", "silent_corruptions");
        self.obs.counter_add(silent, self.silent_corruptions);
        let availability = self.obs.gauge("chaos", "availability_pct_x100");
        self.obs.gauge_set(availability, (self.availability() * 10_000.0) as i64);
        self.obs.instant(
            "chaos",
            "campaign-verdict",
            hermes_obs::ClockDomain::Seq,
            self.total_injected(),
            &[
                ("boot", if self.boot_succeeded { "success" } else { "safe-mode" }.to_string()),
                ("availability", format!("{:.4}", self.availability())),
                ("silent_corruptions", self.silent_corruptions.to_string()),
            ],
        );
    }

    /// Total faults injected.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().map(|(_, n)| n).sum()
    }

    /// Availability over the mission phase in `[0, 1]` (1.0 when no
    /// frames ran).
    pub fn availability(&self) -> f64 {
        if self.frames_total == 0 {
            1.0
        } else {
            self.frames_available as f64 / self.frames_total as f64
        }
    }

    /// Mean time to recovery in cycles (0 when nothing needed recovery).
    pub fn mttr(&self) -> f64 {
        if self.recovery_latencies.is_empty() {
            0.0
        } else {
            self.recovery_latencies.iter().sum::<u64>() as f64
                / self.recovery_latencies.len() as f64
        }
    }

    /// Whether every distinct recovery family was exercised at least once:
    /// flash redundancy, AXI retry, SpaceWire retransmission, and
    /// health-monitor containment (restart/escalation/failover).
    pub fn all_stages_exercised(&self) -> bool {
        let r = &self.recovered;
        (r.flash_voted_bytes > 0 || r.flash_copy_fallbacks > 0)
            && r.axi_retries > 0
            && r.spw_retransmissions > 0
            && r.partition_restarts > 0
            && r.hm_escalations > 0
            && r.spare_failovers > 0
            && r.watchdog_expiries > 0
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "chaos campaign report (seed {})", self.seed);
        let _ = writeln!(
            s,
            "  boot: {}   availability: {:.4}   MTTR: {:.0} cycles   silent corruptions: {}",
            if self.boot_succeeded { "SUCCESS" } else { "SAFE-MODE" },
            self.availability(),
            self.mttr(),
            self.silent_corruptions
        );
        let _ = writeln!(s, "  injected ({} total):", self.total_injected());
        for (label, n) in &self.injected {
            let _ = writeln!(s, "    {label:<28} {n:>6}");
        }
        let r = &self.recovered;
        let _ = writeln!(s, "  recovery stages exercised:");
        for (label, n) in [
            ("axi-retry", r.axi_retries),
            ("flash-tmr-vote (bytes)", r.flash_voted_bytes),
            ("flash-copy-fallback", r.flash_copy_fallbacks),
            ("spw-retransmission", r.spw_retransmissions),
            ("boot-source-failover", r.boot_source_failovers),
            ("golden-bitstream", r.golden_bitstream_substitutions),
            ("safe-mode-boot", r.safe_mode_boots),
            ("partition-restart", r.partition_restarts),
            ("hm-escalation", r.hm_escalations),
            ("spare-failover", r.spare_failovers),
            ("watchdog-expiry", r.watchdog_expiries),
            ("edac-correction", r.edac_corrections),
        ] {
            let _ = writeln!(s, "    {label:<28} {n:>6}");
        }
        for note in &self.notes {
            let _ = writeln!(s, "  note: {note}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn availability_and_mttr() {
        let mut r = ChaosReport::default();
        assert_eq!(r.availability(), 1.0);
        assert_eq!(r.mttr(), 0.0);
        r.frames_total = 10;
        r.frames_available = 9;
        r.recovery_latencies = vec![100, 300];
        assert!((r.availability() - 0.9).abs() < 1e-12);
        assert!((r.mttr() - 200.0).abs() < 1e-12);
    }

    #[test]
    fn inject_accumulates_labels() {
        let mut r = ChaosReport::default();
        r.inject("seu");
        r.inject("seu");
        r.inject("axi-slverr");
        assert_eq!(r.total_injected(), 3);
        assert_eq!(r.injected.len(), 2);
    }

    #[test]
    fn render_mentions_every_stage() {
        let mut r = ChaosReport {
            boot_succeeded: true,
            ..ChaosReport::default()
        };
        r.inject("flash-bitrot");
        let text = r.render();
        for label in ["axi-retry", "spare-failover", "watchdog-expiry", "SUCCESS"] {
            assert!(text.contains(label), "missing {label}");
        }
    }

    #[test]
    fn stage_gate_requires_all_families() {
        let mut r = ChaosReport::default();
        assert!(!r.all_stages_exercised());
        r.recovered = RecoveryStages {
            axi_retries: 1,
            flash_voted_bytes: 1,
            spw_retransmissions: 1,
            partition_restarts: 1,
            hm_escalations: 1,
            spare_failovers: 1,
            watchdog_expiries: 1,
            ..RecoveryStages::default()
        };
        assert!(r.all_stages_exercised());
    }
}
