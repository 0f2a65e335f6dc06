//! Shared error types.

use std::error::Error;
use std::fmt;

/// Errors produced across the GreenDIMM workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GdError {
    /// A configuration value is inconsistent or out of range.
    InvalidConfig(String),
    /// A physical address fell outside the configured capacity.
    AddressOutOfRange {
        /// The offending address.
        addr: u64,
        /// The configured capacity in bytes.
        capacity: u64,
    },
    /// A memory-management operation referenced an unknown entity.
    NotFound(String),
    /// Memory off-lining failed because a page in the block is unmovable
    /// (mirrors the kernel's `-EBUSY`).
    OfflineBusy,
    /// Memory off-lining failed transiently: migration could not complete
    /// after the retry budget (mirrors the kernel's `-EAGAIN`).
    OfflineAgain,
    /// The requested operation conflicts with current state (e.g. on-lining
    /// a block that is already online).
    InvalidState(String),
    /// There is not enough free memory to satisfy an allocation.
    OutOfMemory {
        /// Pages requested.
        requested_pages: u64,
        /// Pages currently free.
        free_pages: u64,
    },
}

impl fmt::Display for GdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GdError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            GdError::AddressOutOfRange { addr, capacity } => {
                write!(
                    f,
                    "address {addr:#x} out of range for capacity {capacity:#x}"
                )
            }
            GdError::NotFound(what) => write!(f, "not found: {what}"),
            GdError::OfflineBusy => write!(f, "off-lining failed: unmovable page in block (EBUSY)"),
            GdError::OfflineAgain => {
                write!(f, "off-lining failed: transient migration failure (EAGAIN)")
            }
            GdError::InvalidState(msg) => write!(f, "invalid state: {msg}"),
            GdError::OutOfMemory {
                requested_pages,
                free_pages,
            } => write!(
                f,
                "out of memory: requested {requested_pages} pages, {free_pages} free"
            ),
        }
    }
}

impl Error for GdError {}

impl GdError {
    /// Names the quantity an [`InvalidConfig`](GdError::InvalidConfig)
    /// message is about, `what: message`; any other error is returned as
    /// it is. For callers whose checked value reports no name of its own,
    /// such as [`crate::Fraction::new`].
    pub fn labelled(self, what: &str) -> GdError {
        match self {
            GdError::InvalidConfig(msg) => GdError::InvalidConfig(format!("{what}: {msg}")),
            other => other,
        }
    }
}

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, GdError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            GdError::OfflineBusy.to_string(),
            "off-lining failed: unmovable page in block (EBUSY)"
        );
        let e = GdError::AddressOutOfRange {
            addr: 0x1000,
            capacity: 0x800,
        };
        assert!(e.to_string().contains("0x1000"));
    }

    #[test]
    fn is_std_error_send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<GdError>();
    }
}
