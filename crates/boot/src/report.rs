//! The boot report: "generation of a BL1 boot report made available for
//! next-stage software" (Section IV).

use hermes_fpga::bitstream::crc32;

/// Address in shared SRAM where BL1 deposits the serialized report.
pub const BOOT_REPORT_ADDR: u32 = 0x100F_0000;

/// Outcome of one boot stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageStatus {
    /// Completed normally.
    Ok,
    /// Completed after correcting errors (redundancy/retransmission).
    Recovered,
    /// Failed.
    Failed,
    /// Skipped (e.g. SpaceWire controller on a flash-only boot).
    Skipped,
}

/// One stage record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageRecord {
    /// Stage name.
    pub name: String,
    /// Cycles consumed.
    pub cycles: u64,
    /// Status.
    pub status: StageStatus,
    /// Free-form detail.
    pub detail: String,
}

/// The complete report.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BootReport {
    /// Stage records in execution order.
    pub stages: Vec<StageRecord>,
    /// Flash bytes corrected by TMR voting.
    pub flash_corrected_bytes: u64,
    /// SpaceWire packets retransmitted.
    pub spw_retransmissions: u64,
    /// Software images deployed.
    pub images_loaded: u32,
    /// Bitstreams programmed.
    pub bitstreams_programmed: u32,
    /// Boot attempts that failed over to an alternate boot source.
    pub boot_source_failovers: u32,
    /// Corrupt bitstreams replaced by the golden fallback bitstream.
    pub golden_bitstream_substitutions: u32,
    /// Whether the whole boot succeeded.
    pub success: bool,
    /// Whether the system came up in safe mode (no source bootable; a
    /// minimal environment holding only the failure report).
    pub safe_mode: bool,
    /// Machine-readable reason for the last boot failure, when any.
    pub failure: Option<String>,
}

impl BootReport {
    /// Record a stage.
    pub fn stage(
        &mut self,
        name: impl Into<String>,
        cycles: u64,
        status: StageStatus,
        detail: impl Into<String>,
    ) {
        self.stages.push(StageRecord {
            name: name.into(),
            cycles,
            status,
            detail: detail.into(),
        });
    }

    /// Total cycles across all stages.
    pub fn total_cycles(&self) -> u64 {
        self.stages.iter().map(|s| s.cycles).sum()
    }

    /// Human-readable rendering (what a BL2 would print on the UART).
    pub fn render(&self) -> String {
        let verdict = if self.success {
            "SUCCESS"
        } else if self.safe_mode {
            "SAFE-MODE"
        } else {
            "FAILED"
        };
        let mut s = format!(
            "BL1 boot report: {} ({} cycles)\n",
            verdict,
            self.total_cycles()
        );
        for st in &self.stages {
            s.push_str(&format!(
                "  {:<22} {:>9} cy  {:<9} {}\n",
                st.name,
                st.cycles,
                format!("{:?}", st.status),
                st.detail
            ));
        }
        s.push_str(&format!(
            "  corrected {} flash bytes, {} SpW retransmissions, \
             {} images, {} bitstreams\n",
            self.flash_corrected_bytes,
            self.spw_retransmissions,
            self.images_loaded,
            self.bitstreams_programmed
        ));
        if self.boot_source_failovers > 0 || self.golden_bitstream_substitutions > 0 {
            s.push_str(&format!(
                "  {} boot-source failover(s), {} golden bitstream substitution(s)\n",
                self.boot_source_failovers, self.golden_bitstream_substitutions
            ));
        }
        if let Some(reason) = &self.failure {
            s.push_str(&format!("  failure: {reason}\n"));
        }
        s
    }

    /// Export the boot timeline into a flight recorder under subsystem
    /// `sub`: one `Boot`-clocked span per stage (ts = cumulative cycles at
    /// stage start, dur = stage cycles, args = status/detail), plus the
    /// report's recovery counters.
    pub fn obs_export(&self, obs: &hermes_obs::Recorder, sub: &str) {
        use hermes_obs::{ClockDomain, WallMark};
        let mut at = 0u64;
        for st in &self.stages {
            obs.span(
                sub,
                &st.name,
                ClockDomain::Boot,
                at,
                st.cycles,
                &[
                    ("status", format!("{:?}", st.status)),
                    ("detail", st.detail.clone()),
                ],
                WallMark::none(),
            );
            at += st.cycles;
        }
        for (name, v) in [
            ("flash_corrected_bytes", self.flash_corrected_bytes),
            ("spw_retransmissions", self.spw_retransmissions),
            ("images_loaded", u64::from(self.images_loaded)),
            ("bitstreams_programmed", u64::from(self.bitstreams_programmed)),
            ("boot_source_failovers", u64::from(self.boot_source_failovers)),
            (
                "golden_bitstream_substitutions",
                u64::from(self.golden_bitstream_substitutions),
            ),
        ] {
            obs.counter_add(obs.counter(sub, name), v);
        }
        let verdict = if self.success {
            "success"
        } else if self.safe_mode {
            "safe-mode"
        } else {
            "failed"
        };
        obs.instant(
            sub,
            "boot-verdict",
            ClockDomain::Boot,
            at,
            &[
                ("verdict", verdict.to_string()),
                (
                    "failure",
                    self.failure.clone().unwrap_or_else(|| "-".to_string()),
                ),
            ],
        );
    }

    /// Compact binary serialization (what lands at [`BOOT_REPORT_ADDR`]):
    /// a summary block with a trailing CRC.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::new();
        v.extend_from_slice(b"HRPT");
        v.push(u8::from(self.success));
        v.push(u8::from(self.safe_mode));
        v.extend_from_slice(&(self.stages.len() as u16).to_le_bytes());
        v.extend_from_slice(&self.total_cycles().to_le_bytes());
        v.extend_from_slice(&self.flash_corrected_bytes.to_le_bytes());
        v.extend_from_slice(&self.spw_retransmissions.to_le_bytes());
        v.extend_from_slice(&self.images_loaded.to_le_bytes());
        v.extend_from_slice(&self.bitstreams_programmed.to_le_bytes());
        v.extend_from_slice(&self.boot_source_failovers.to_le_bytes());
        v.extend_from_slice(&self.golden_bitstream_substitutions.to_le_bytes());
        // machine-readable failure reason (length-prefixed UTF-8)
        let reason = self.failure.as_deref().unwrap_or("");
        v.extend_from_slice(&(reason.len() as u16).to_le_bytes());
        v.extend_from_slice(reason.as_bytes());
        let crc = crc32(&v);
        v.extend_from_slice(&crc.to_le_bytes());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accumulates_and_renders() {
        let mut r = BootReport::default();
        r.stage("clock-pll", 2000, StageStatus::Ok, "600 MHz");
        r.stage("ddr-init", 20000, StageStatus::Ok, "");
        r.stage("image 0", 512, StageStatus::Recovered, "1 byte voted");
        r.success = true;
        r.images_loaded = 1;
        assert_eq!(r.total_cycles(), 22512);
        let text = r.render();
        assert!(text.contains("SUCCESS"));
        assert!(text.contains("clock-pll"));
        assert!(text.contains("Recovered"));
    }

    #[test]
    fn binary_form_has_crc() {
        let mut r = BootReport::default();
        r.stage("x", 1, StageStatus::Ok, "");
        let bytes = r.to_bytes();
        assert_eq!(&bytes[..4], b"HRPT");
        let body = &bytes[..bytes.len() - 4];
        let crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
        assert_eq!(crc32(body), crc);
    }

    #[test]
    fn safe_mode_report_carries_failure_reason() {
        let r = BootReport {
            safe_mode: true,
            failure: Some("flash: integrity failure on `image 0`".into()),
            ..BootReport::default()
        };
        let text = r.render();
        assert!(text.contains("SAFE-MODE"));
        assert!(text.contains("integrity failure"));
        let bytes = r.to_bytes();
        assert_eq!(bytes[5], 1, "safe-mode flag serialized");
        let s = String::from_utf8_lossy(&bytes);
        assert!(s.contains("integrity failure"), "reason embedded in binary");
    }
}
