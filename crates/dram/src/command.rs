//! DRAM command vocabulary and per-command energy event tags.

use gd_types::ids::DramCoord;
use std::fmt;

/// The DDR4 command set (the subset the simulator issues), plus the mode
/// register write GreenDIMM uses to program the sub-array power-down bit
/// vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramCommand {
    /// Activate a row (copy it into the bank's row buffer).
    Activate,
    /// Read a burst from the open row.
    Read,
    /// Write a burst to the open row.
    Write,
    /// Precharge one bank (close its row).
    Precharge,
    /// Precharge all banks in a rank.
    PrechargeAll,
    /// Rank-level auto-refresh.
    Refresh,
    /// DDR5 same-bank refresh: refreshes one bank per bank group (a
    /// "set"), stalling only those banks for tRFCsb.
    RefreshSameBank,
    /// Enter power-down (CKE low).
    PowerDownEnter,
    /// Exit power-down (CKE high).
    PowerDownExit,
    /// Enter self-refresh.
    SelfRefreshEnter,
    /// Exit self-refresh.
    SelfRefreshExit,
    /// Mode-register set — used to program GreenDIMM's sub-array-group
    /// deep power-down bit vector.
    ModeRegisterSet,
}

impl fmt::Display for DramCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DramCommand::Activate => "ACT",
            DramCommand::Read => "RD",
            DramCommand::Write => "WR",
            DramCommand::Precharge => "PRE",
            DramCommand::PrechargeAll => "PREA",
            DramCommand::Refresh => "REF",
            DramCommand::RefreshSameBank => "REFsb",
            DramCommand::PowerDownEnter => "PDE",
            DramCommand::PowerDownExit => "PDX",
            DramCommand::SelfRefreshEnter => "SRE",
            DramCommand::SelfRefreshExit => "SRX",
            DramCommand::ModeRegisterSet => "MRS",
        };
        f.write_str(s)
    }
}

/// A memory request presented to the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRequest {
    /// Physical byte address (cache-line aligned by the controller).
    pub addr: u64,
    /// Read or write.
    pub kind: AccessKind,
    /// Arrival time in memory-clock cycles.
    pub arrival: u64,
}

/// Read/write discriminator for [`MemRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A demand read (latency-critical).
    Read,
    /// A writeback (posted; latency not tracked against the CPU model).
    Write,
}

impl MemRequest {
    /// Creates a read request.
    pub fn read(addr: u64, arrival: u64) -> Self {
        MemRequest {
            addr,
            kind: AccessKind::Read,
            arrival,
        }
    }

    /// Creates a write request.
    pub fn write(addr: u64, arrival: u64) -> Self {
        MemRequest {
            addr,
            kind: AccessKind::Write,
            arrival,
        }
    }
}

/// A request presented to a channel controller, with its decoded
/// coordinates. The controller derives everything else internally: its FIFO
/// position, and whether it needs an ACT, which holds iff its row is not
/// its bank's open row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingRequest {
    pub req: MemRequest,
    pub coord: DramCoord,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mnemonics() {
        assert_eq!(DramCommand::Activate.to_string(), "ACT");
        assert_eq!(DramCommand::SelfRefreshExit.to_string(), "SRX");
    }

    #[test]
    fn request_constructors() {
        let r = MemRequest::read(0x40, 10);
        assert_eq!(r.kind, AccessKind::Read);
        let w = MemRequest::write(0x80, 20);
        assert_eq!(w.kind, AccessKind::Write);
        assert_eq!(w.arrival, 20);
    }
}
