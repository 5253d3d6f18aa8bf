//! The XID error codes characterized by the study (Table 1), plus the two
//! job-induced software XIDs the paper explicitly excludes and the emerging
//! H100-only XID 136 (Section 6).

use core::fmt;

/// NVIDIA XID error codes selected by the study.
///
/// Discriminant values equal the numeric XID code reported by the NVRM
/// driver, so `Xid::GspRpcTimeout as u16 == 119`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u16)]
pub enum Xid {
    /// XID 13 — general GPU software error; job-induced, excluded from the
    /// resilience characterization but still present in raw logs.
    GraphicsEngineException = 13,
    /// XID 31 — GPU memory management unit (MMU) error.
    MmuError = 31,
    /// XID 43 — reset channel verification error; job-induced, excluded.
    ResetChannelVerifError = 43,
    /// XID 48 — double-bit ECC memory error (DBE).
    DoubleBitEcc = 48,
    /// XID 63 — row-remapping event (RRE): a faulty row was replaced by a
    /// spare (also reported as ECC page retirement on pre-Ampere parts).
    RowRemapEvent = 63,
    /// XID 64 — row-remapping failure (RRF): spares exhausted for the bank.
    RowRemapFailure = 64,
    /// XID 74 — NVLink interconnect error.
    NvlinkError = 74,
    /// XID 79 — GPU has fallen off the bus (unreachable over PCI-E/SXM).
    FallenOffBus = 79,
    /// XID 94 — contained uncorrectable ECC error (containment succeeded).
    ContainedEcc = 94,
    /// XID 95 — uncontained uncorrectable ECC error (containment failed).
    UncontainedEcc = 95,
    /// XID 119 — GSP (GPU System Processor) RPC timeout.
    GspRpcTimeout = 119,
    /// XID 120 — GSP fatal error (the GSP core itself raised an error,
    /// as opposed to the driver timing out waiting on it).
    GspError = 120,
    /// XID 122 — PMU SPI RPC read failure (communication with the PMU).
    PmuSpiError = 122,
    /// XID 136 — undocumented event observed on H100 GPUs (Section 6).
    Xid136 = 136,
}

impl Xid {
    /// All codes in ascending numeric order.
    pub const ALL: [Xid; 14] = [
        Xid::GraphicsEngineException,
        Xid::MmuError,
        Xid::ResetChannelVerifError,
        Xid::DoubleBitEcc,
        Xid::RowRemapEvent,
        Xid::RowRemapFailure,
        Xid::NvlinkError,
        Xid::FallenOffBus,
        Xid::ContainedEcc,
        Xid::UncontainedEcc,
        Xid::GspRpcTimeout,
        Xid::GspError,
        Xid::PmuSpiError,
        Xid::Xid136,
    ];

    /// The codes characterized in Table 1 (Ampere study), in the table's
    /// row order.
    pub const TABLE1: [Xid; 10] = [
        Xid::MmuError,
        Xid::DoubleBitEcc,
        Xid::RowRemapEvent,
        Xid::RowRemapFailure,
        Xid::NvlinkError,
        Xid::FallenOffBus,
        Xid::ContainedEcc,
        Xid::UncontainedEcc,
        Xid::GspRpcTimeout,
        Xid::PmuSpiError,
    ];

    /// Numeric XID code.
    #[inline]
    pub const fn code(self) -> u16 {
        self as u16
    }

    /// Position of this code in [`Xid::ALL`], which is also its rank in
    /// `Ord` order: dense per-XID tables are `[T; Xid::ALL.len()]` arrays
    /// indexed by it, and walking such a table by position visits the
    /// codes in the order a `BTreeMap<Xid, _>` would.
    #[inline]
    pub const fn ordinal(self) -> usize {
        match self {
            Xid::GraphicsEngineException => 0,
            Xid::MmuError => 1,
            Xid::ResetChannelVerifError => 2,
            Xid::DoubleBitEcc => 3,
            Xid::RowRemapEvent => 4,
            Xid::RowRemapFailure => 5,
            Xid::NvlinkError => 6,
            Xid::FallenOffBus => 7,
            Xid::ContainedEcc => 8,
            Xid::UncontainedEcc => 9,
            Xid::GspRpcTimeout => 10,
            Xid::GspError => 11,
            Xid::PmuSpiError => 12,
            Xid::Xid136 => 13,
        }
    }

    /// Parse a numeric code back into an [`Xid`].
    pub fn from_code(code: u16) -> Option<Xid> {
        Xid::ALL.iter().copied().find(|x| x.code() == code)
    }

    /// Error category per Section 2.2.
    pub const fn category(self) -> ErrorCategory {
        match self {
            Xid::GraphicsEngineException | Xid::ResetChannelVerifError => ErrorCategory::Software,
            Xid::MmuError
            | Xid::FallenOffBus
            | Xid::GspRpcTimeout
            | Xid::GspError
            | Xid::PmuSpiError => ErrorCategory::Hardware,
            Xid::NvlinkError => ErrorCategory::Interconnect,
            Xid::DoubleBitEcc
            | Xid::RowRemapEvent
            | Xid::RowRemapFailure
            | Xid::ContainedEcc
            | Xid::UncontainedEcc => ErrorCategory::Memory,
            // Cause unknown per the paper; treated as hardware for grouping.
            Xid::Xid136 => ErrorCategory::Hardware,
        }
    }

    /// Recovery action per Table 1's "Recovery Action" column.
    pub const fn recovery(self) -> RecoveryAction {
        match self {
            Xid::GraphicsEngineException | Xid::ResetChannelVerifError => RecoveryAction::None,
            Xid::MmuError => RecoveryAction::None,
            Xid::DoubleBitEcc => RecoveryAction::GpuResetIfRemapFailed,
            Xid::RowRemapEvent => RecoveryAction::GpuReset,
            Xid::RowRemapFailure => RecoveryAction::GpuReset,
            Xid::NvlinkError
            | Xid::FallenOffBus
            | Xid::UncontainedEcc
            | Xid::GspRpcTimeout
            | Xid::GspError => RecoveryAction::GpuResetOrSre,
            Xid::ContainedEcc | Xid::PmuSpiError | Xid::Xid136 => RecoveryAction::Unspecified,
        }
    }

    /// Whether the study includes this code in the resilience
    /// characterization (Section 2.2 excludes the job-induced XIDs 13/43).
    pub const fn is_characterized(self) -> bool {
        !matches!(
            self,
            Xid::GraphicsEngineException | Xid::ResetChannelVerifError
        )
    }

    /// Short event abbreviation as used in Table 1.
    pub const fn abbrev(self) -> &'static str {
        match self {
            Xid::GraphicsEngineException => "SW Err.",
            Xid::MmuError => "MMU Error",
            Xid::ResetChannelVerifError => "Reset Chan.",
            Xid::DoubleBitEcc => "DBE",
            Xid::RowRemapEvent => "RRE",
            Xid::RowRemapFailure => "RRF",
            Xid::NvlinkError => "NVLink Error",
            Xid::FallenOffBus => "Fallen Off the Bus",
            Xid::ContainedEcc => "Contained Mem. Err.",
            Xid::UncontainedEcc => "Uncontained Mem. Err.",
            Xid::GspRpcTimeout => "GSP Error",
            Xid::GspError => "GSP Fatal Error",
            Xid::PmuSpiError => "PMU SPI Error",
            Xid::Xid136 => "XID 136",
        }
    }

    /// The human-readable message body the NVRM driver logs for this code.
    /// Used when rendering synthetic syslog lines.
    pub const fn driver_message(self) -> &'static str {
        match self {
            Xid::GraphicsEngineException => "Graphics Exception: ESR 0x505648=0x1000e",
            Xid::MmuError => "MMU Fault: ENGINE GRAPHICS GPCCLIENT_T1_0 faulted",
            Xid::ResetChannelVerifError => "Reset Channel Verification Error",
            Xid::DoubleBitEcc => "An uncorrectable double bit error (DBE) has been detected",
            Xid::RowRemapEvent => "Row Remapper: remapping row in bank",
            Xid::RowRemapFailure => "Row Remapper: Failed to remap row in bank",
            Xid::NvlinkError => "NVLink: fatal error detected on link",
            Xid::FallenOffBus => "GPU has fallen off the bus.",
            Xid::ContainedEcc => "Contained: SM (0x1). RST: No, D-RST: No",
            Xid::UncontainedEcc => "Uncontained: LTC TAG (0x2,0x0). RST: Yes, D-RST: No",
            Xid::GspRpcTimeout => {
                "Timeout after 6s of waiting for RPC response from GPU0 GSP! Expected function 76"
            }
            Xid::GspError => "GSP task fatal error, halting GSP core",
            Xid::PmuSpiError => "PMU communication error: SPI RPC read failure",
            Xid::Xid136 => "Event 136 reported",
        }
    }
}

impl fmt::Display for Xid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XID {} ({})", self.code(), self.abbrev())
    }
}

/// Error categories used throughout Section 4.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ErrorCategory {
    /// GPU peripheral/processing hardware: MMU, GSP, PMU/SPI, bus.
    Hardware,
    /// GPU-to-GPU NVLink fabric.
    Interconnect,
    /// GPU HBM/ECC memory subsystem.
    Memory,
    /// Job-induced software errors (excluded from characterization).
    Software,
}

impl fmt::Display for ErrorCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ErrorCategory::Hardware => "Hardware",
            ErrorCategory::Interconnect => "Interconnect",
            ErrorCategory::Memory => "Memory",
            ErrorCategory::Software => "Software",
        })
    }
}

/// Operator action required to clear an error (Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RecoveryAction {
    /// No dedicated recovery; error may clear on its own or with the job.
    None,
    /// A GPU reset is needed.
    GpuReset,
    /// GPU reset needed only if the row-remapping flow failed.
    GpuResetIfRemapFailed,
    /// GPU reset or site-reliability-engineer intervention required.
    GpuResetOrSre,
    /// The vendor manual does not specify a recovery action.
    Unspecified,
}

impl RecoveryAction {
    /// Whether clearing the error requires operator involvement in the
    /// worst case (used by the downtime model).
    pub const fn needs_operator(self) -> bool {
        matches!(self, RecoveryAction::GpuResetOrSre)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordinal_is_a_bijection_onto_all_in_ord_order() {
        let mut seen = [false; Xid::ALL.len()];
        for (i, &x) in Xid::ALL.iter().enumerate() {
            assert_eq!(x.ordinal(), i, "{x:?}");
            assert!(!seen[x.ordinal()], "{x:?} shares an ordinal");
            seen[x.ordinal()] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Ordinal order is `Ord` order, so a dense table walked by
        // position visits codes exactly as a `BTreeMap<Xid, _>` would.
        for a in Xid::ALL {
            for b in Xid::ALL {
                assert_eq!(a.ordinal().cmp(&b.ordinal()), a.cmp(&b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn codes_match_nvidia_numbers() {
        assert_eq!(Xid::MmuError.code(), 31);
        assert_eq!(Xid::DoubleBitEcc.code(), 48);
        assert_eq!(Xid::RowRemapEvent.code(), 63);
        assert_eq!(Xid::RowRemapFailure.code(), 64);
        assert_eq!(Xid::NvlinkError.code(), 74);
        assert_eq!(Xid::FallenOffBus.code(), 79);
        assert_eq!(Xid::ContainedEcc.code(), 94);
        assert_eq!(Xid::UncontainedEcc.code(), 95);
        assert_eq!(Xid::GspRpcTimeout.code(), 119);
        assert_eq!(Xid::GspError.code(), 120);
        assert_eq!(Xid::PmuSpiError.code(), 122);
    }

    #[test]
    fn from_code_round_trips() {
        for x in Xid::ALL {
            assert_eq!(Xid::from_code(x.code()), Some(x));
        }
        assert_eq!(Xid::from_code(7), None);
    }

    #[test]
    fn categories_match_section_2_2() {
        use ErrorCategory::*;
        assert_eq!(Xid::MmuError.category(), Hardware);
        assert_eq!(Xid::GspRpcTimeout.category(), Hardware);
        assert_eq!(Xid::GspError.category(), Hardware);
        assert_eq!(Xid::PmuSpiError.category(), Hardware);
        assert_eq!(Xid::FallenOffBus.category(), Hardware);
        assert_eq!(Xid::NvlinkError.category(), Interconnect);
        assert_eq!(Xid::DoubleBitEcc.category(), Memory);
        assert_eq!(Xid::UncontainedEcc.category(), Memory);
        assert_eq!(Xid::GraphicsEngineException.category(), Software);
    }

    #[test]
    fn job_induced_xids_are_excluded() {
        assert!(!Xid::GraphicsEngineException.is_characterized());
        assert!(!Xid::ResetChannelVerifError.is_characterized());
        assert!(Xid::TABLE1.iter().all(|x| x.is_characterized()));
    }

    #[test]
    fn table1_has_ten_rows_in_order() {
        assert_eq!(Xid::TABLE1.len(), 10);
        assert_eq!(Xid::TABLE1[0], Xid::MmuError);
        assert_eq!(Xid::TABLE1[9], Xid::PmuSpiError);
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(Xid::GspRpcTimeout.to_string(), "XID 119 (GSP Error)");
    }
}
