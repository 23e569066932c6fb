//! Typed errors for the executable reference kernels.
//!
//! The workload suite carries *functional* models (COO SpMV, pooled
//! embedding lookup, hash join) next to the analytic timing models.
//! Their failure modes — mismatched shapes, out-of-range indices,
//! degenerate partition counts — are caller errors, not bugs, so they
//! surface as [`WorkloadError`] values instead of panics.

use std::error::Error;
use std::fmt;

use pimnet::PimnetError;

/// Errors returned by the workload suite's executable kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WorkloadError {
    /// An input's length does not match the shape the kernel was built
    /// with (e.g., an SpMV input vector shorter than the matrix side).
    ShapeMismatch {
        /// Which input was mis-shaped.
        what: &'static str,
        /// The length the kernel requires.
        expected: usize,
        /// The length it was given.
        got: usize,
    },
    /// An index refers past the end of its table or matrix.
    IndexOutOfBounds {
        /// Which structure was indexed.
        what: &'static str,
        /// The offending index.
        index: usize,
        /// Number of valid entries.
        len: usize,
    },
    /// A partitioned kernel was asked to split its data zero ways.
    ZeroPartitions {
        /// Which kernel rejected the partition count.
        what: &'static str,
    },
    /// The collective backend rejected a communication phase.
    Backend(PimnetError),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::ShapeMismatch {
                what,
                expected,
                got,
            } => {
                write!(f, "{what}: expected length {expected}, got {got}")
            }
            WorkloadError::IndexOutOfBounds { what, index, len } => {
                write!(f, "{what}: index {index} out of bounds for {len} entries")
            }
            WorkloadError::ZeroPartitions { what } => {
                write!(f, "{what}: cannot partition into zero parts")
            }
            WorkloadError::Backend(e) => write!(f, "collective backend: {e}"),
        }
    }
}

impl Error for WorkloadError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WorkloadError::Backend(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PimnetError> for WorkloadError {
    fn from(e: PimnetError) -> Self {
        WorkloadError::Backend(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_specific() {
        let e = WorkloadError::ShapeMismatch {
            what: "spmv input vector",
            expected: 8,
            got: 3,
        };
        assert_eq!(e.to_string(), "spmv input vector: expected length 8, got 3");
        let e = WorkloadError::IndexOutOfBounds {
            what: "embedding table",
            index: 10,
            len: 10,
        };
        assert!(e.to_string().contains("index 10 out of bounds"));
        let e = WorkloadError::ZeroPartitions { what: "hash join" };
        assert!(e.to_string().contains("zero parts"));
    }

    #[test]
    fn backend_errors_wrap_with_a_source() {
        let inner = PimnetError::InvalidMessage {
            reason: "zero element size".into(),
        };
        let e = WorkloadError::from(inner.clone());
        assert_eq!(e, WorkloadError::Backend(inner));
        assert!(Error::source(&e).is_some());
        assert!(e.to_string().contains("zero element size"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<WorkloadError>();
    }
}
