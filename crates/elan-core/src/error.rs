//! The unified error surface of the Elan workspace.
//!
//! Historically elan-core exposed a separate facade error type while
//! elan-rt returned ad-hoc failures (panics, `String`s, silently-ignored
//! requests). This module converges both on one `#[non_exhaustive]` enum, [`ElanError`],
//! which is re-exported from the root `elan` facade crate. Downstream
//! matches must keep a wildcard arm, which lets future PRs add variants
//! (scheduler rejections, accelerator faults) without a breaking release.

use crate::elasticity::RequestError;
use crate::lease::LeaseError;

/// Every failure the Elan runtime and core APIs can surface.
///
/// The enum is `#[non_exhaustive]`: always keep a `_` arm when matching.
///
/// # Examples
///
/// ```
/// use elan_core::error::ElanError;
/// use elan_core::elasticity::RequestError;
///
/// let e: ElanError = RequestError::NoChange.into();
/// match e {
///     ElanError::BadRequest(RequestError::NoChange) => {}
///     _ => panic!("unexpected variant"),
/// }
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElanError {
    /// The adjustment request was malformed (§V-A service API).
    BadRequest(RequestError),
    /// A liveness lease operation failed (§V-D fault tolerance).
    Lease(LeaseError),
    /// The runtime was configured inconsistently (builder validation).
    Config(String),
    /// A restored snapshot did not match the expected shape.
    SnapshotMismatch {
        /// Elements the runtime expected.
        expected: usize,
        /// Elements the snapshot carried.
        actual: usize,
    },
    /// The runtime is shutting down and cannot accept the operation.
    ShuttingDown,
}

impl std::fmt::Display for ElanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElanError::BadRequest(e) => write!(f, "bad request: {e}"),
            ElanError::Lease(e) => write!(f, "lease: {e}"),
            ElanError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            ElanError::SnapshotMismatch { expected, actual } => {
                write!(
                    f,
                    "snapshot mismatch: expected {expected} elements, got {actual}"
                )
            }
            ElanError::ShuttingDown => write!(f, "runtime is shutting down"),
        }
    }
}

impl std::error::Error for ElanError {}

impl From<RequestError> for ElanError {
    fn from(e: RequestError) -> Self {
        ElanError::BadRequest(e)
    }
}

impl From<LeaseError> for ElanError {
    fn from(e: LeaseError) -> Self {
        ElanError::Lease(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_pick_the_right_variant() {
        let e: ElanError = RequestError::NoChange.into();
        assert!(matches!(e, ElanError::BadRequest(_)));
        let e: ElanError = LeaseError::Unknown(crate::lease::LeaseId(1)).into();
        assert!(matches!(e, ElanError::Lease(_)));
    }

    #[test]
    fn display_is_informative() {
        let e = ElanError::Config("workers must be > 0".into());
        assert!(e.to_string().contains("workers must be > 0"));
        let e = ElanError::SnapshotMismatch {
            expected: 8,
            actual: 4,
        };
        assert!(e.to_string().contains("expected 8"));
    }
}
