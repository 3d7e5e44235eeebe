//! Typed errors for the experiment driver.
//!
//! Configuration problems used to abort with `assert!` panics deep inside
//! the run; now they surface as [`SimError`] values with the offending
//! field named, so the CLI (and library callers) can print a diagnostic
//! instead of a backtrace.

use std::fmt;

/// Everything that can go wrong before or while building a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A scenario field (or cross-field constraint) is invalid.
    InvalidConfig {
        /// The offending field (dotted path for sub-configs).
        field: &'static str,
        /// What is wrong with it.
        message: String,
    },
    /// The workload sampler could not place every transmission under the
    /// `max_connections` cap.
    WorkloadInfeasible {
        /// Transmissions placed before giving up.
        assigned: usize,
        /// Transmissions requested by the scenario.
        requested: usize,
    },
    /// A snapshot file failed to decode: bad magic, version skew, length or
    /// checksum mismatch, truncation, or a structurally invalid field. The
    /// detail string is the codec's diagnostic.
    SnapshotCodec {
        /// Human-readable decode failure (from [`idpa_desim::CodecError`]).
        detail: String,
    },
    /// A snapshot file could not be read or written.
    SnapshotIo {
        /// The path involved.
        path: String,
        /// The underlying I/O failure, rendered to text.
        detail: String,
    },
    /// A structurally valid snapshot does not belong to this run: the
    /// stored configuration fingerprint (or a derived invariant) differs
    /// from the scenario being resumed.
    SnapshotMismatch {
        /// Which invariant failed.
        what: &'static str,
    },
}

impl SimError {
    /// Shorthand for an [`SimError::InvalidConfig`].
    #[must_use]
    pub fn invalid(field: &'static str, message: impl Into<String>) -> Self {
        SimError::InvalidConfig {
            field,
            message: message.into(),
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { field, message } => {
                write!(f, "invalid scenario config: {field}: {message}")
            }
            SimError::WorkloadInfeasible {
                assigned,
                requested,
            } => write!(
                f,
                "workload assignment cannot satisfy max_connections \
                 (placed {assigned} of {requested} transmissions)"
            ),
            SimError::SnapshotCodec { detail } => {
                write!(f, "snapshot decode failed: {detail}")
            }
            SimError::SnapshotIo { path, detail } => {
                write!(f, "snapshot I/O failed for {path}: {detail}")
            }
            SimError::SnapshotMismatch { what } => {
                write!(f, "snapshot does not match this scenario: {what}")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<idpa_desim::CodecError> for SimError {
    fn from(e: idpa_desim::CodecError) -> Self {
        SimError::SnapshotCodec {
            detail: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_field() {
        let e = SimError::invalid("degree", "must be < n_nodes (got 40 >= 20)");
        let s = e.to_string();
        assert!(s.contains("degree"), "{s}");
        assert!(s.contains("40 >= 20"), "{s}");
    }

    #[test]
    fn workload_error_reports_progress() {
        let e = SimError::WorkloadInfeasible {
            assigned: 180,
            requested: 200,
        };
        assert!(e.to_string().contains("180 of 200"));
    }
}
