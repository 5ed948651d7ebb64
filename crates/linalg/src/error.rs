//! Error types for linear-algebra operations.

use std::fmt;

/// Errors produced by fallible linear-algebra operations.
///
/// All shape-sensitive public operations return `Result<_, LinalgError>`
/// rather than panicking, so callers composing pipelines (e.g. the SMFL
/// updater) can surface configuration mistakes as recoverable errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Two operands had incompatible shapes. Holds `(left, right)` shapes
    /// as `(rows, cols)` pairs.
    DimensionMismatch {
        /// Shape of the left-hand operand.
        left: (usize, usize),
        /// Shape of the right-hand operand.
        right: (usize, usize),
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// A matrix that was required to be square was not.
    NotSquare {
        /// Actual shape.
        shape: (usize, usize),
    },
    /// An index was out of bounds for the given shape.
    IndexOutOfBounds {
        /// Offending index.
        index: (usize, usize),
        /// Shape of the matrix.
        shape: (usize, usize),
    },
    /// An iterative routine (eigensolver, SVD) failed to converge.
    NoConvergence {
        /// Name of the routine.
        routine: &'static str,
        /// Number of sweeps/iterations performed.
        iterations: usize,
    },
    /// Input data length did not match the requested shape.
    BadLength {
        /// Expected number of elements.
        expected: usize,
        /// Actual number of elements.
        actual: usize,
    },
    /// An empty matrix was passed to an operation that requires data.
    Empty,
    /// A value that must be finite was NaN or ±Inf. Holds the operation
    /// name and the (row, col) of the first offending cell.
    NonFinite {
        /// Name of the operation that found the value.
        op: &'static str,
        /// Position of the first non-finite cell.
        index: (usize, usize),
    },
    /// A value that must be nonnegative was negative. Holds the
    /// operation name and the (row, col) of the first offending cell.
    Negative {
        /// Name of the operation that found the value.
        op: &'static str,
        /// Position of the first negative cell.
        index: (usize, usize),
    },
    /// A cell that must match a compiled state is observed in only one
    /// of them, or its value changed.
    Changed {
        /// Name of the operation that found the difference.
        op: &'static str,
        /// Position of the first differing cell.
        index: (usize, usize),
    },
    /// A count too large for the 32-bit index arrays of a compiled
    /// pattern or graph (see [`ensure_u32`]).
    TooLarge {
        /// Name of the operation that would have overflowed.
        op: &'static str,
        /// The count that does not fit.
        len: usize,
    },
    /// An internal invariant was violated — a bug surfaced as a
    /// recoverable error instead of a panic, so a serving process can
    /// reject the one request and stay up.
    Internal {
        /// The invariant that failed, in human-readable form.
        invariant: &'static str,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { left, right, op } => write!(
                f,
                "dimension mismatch in {op}: left is {}x{}, right is {}x{}",
                left.0, left.1, right.0, right.1
            ),
            LinalgError::NotSquare { shape } => {
                write!(f, "matrix must be square, got {}x{}", shape.0, shape.1)
            }
            LinalgError::IndexOutOfBounds { index, shape } => write!(
                f,
                "index ({}, {}) out of bounds for {}x{} matrix",
                index.0, index.1, shape.0, shape.1
            ),
            LinalgError::NoConvergence {
                routine,
                iterations,
            } => {
                write!(
                    f,
                    "{routine} failed to converge after {iterations} iterations"
                )
            }
            LinalgError::BadLength { expected, actual } => {
                write!(f, "expected {expected} elements, got {actual}")
            }
            LinalgError::Empty => write!(f, "operation requires a non-empty matrix"),
            LinalgError::NonFinite { op, index } => {
                write!(f, "non-finite value in {op} at ({}, {})", index.0, index.1)
            }
            LinalgError::Negative { op, index } => {
                write!(f, "negative value in {op} at ({}, {})", index.0, index.1)
            }
            LinalgError::Changed { op, index } => write!(
                f,
                "cell changed since compile in {op} at ({}, {})",
                index.0, index.1
            ),
            LinalgError::TooLarge { op, len } => write!(
                f,
                "{op}: {len} exceeds the 32-bit index limit of {}",
                u32::MAX
            ),
            LinalgError::Internal { invariant } => {
                write!(f, "internal invariant violated: {invariant}")
            }
        }
    }
}

/// Checks that `len` fits the `u32` index arrays of an
/// [`ObservedPattern`](crate::ObservedPattern) or a spatial graph, so
/// every index in `0..=len` converts without truncation; `TooLarge`
/// otherwise. Both compiles call it on each count they store before
/// building anything.
pub fn ensure_u32(op: &'static str, len: usize) -> Result<()> {
    match u32::try_from(len) {
        Ok(_) => Ok(()),
        Err(_) => Err(LinalgError::TooLarge { op, len }),
    }
}

impl std::error::Error for LinalgError {}

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, LinalgError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dimension_mismatch() {
        let e = LinalgError::DimensionMismatch {
            left: (2, 3),
            right: (4, 5),
            op: "matmul",
        };
        assert_eq!(
            e.to_string(),
            "dimension mismatch in matmul: left is 2x3, right is 4x5"
        );
    }

    #[test]
    fn display_not_square() {
        let e = LinalgError::NotSquare { shape: (2, 3) };
        assert_eq!(e.to_string(), "matrix must be square, got 2x3");
    }

    #[test]
    fn display_no_convergence() {
        let e = LinalgError::NoConvergence {
            routine: "jacobi",
            iterations: 50,
        };
        assert_eq!(
            e.to_string(),
            "jacobi failed to converge after 50 iterations"
        );
    }

    #[test]
    fn display_bad_length_and_empty() {
        assert_eq!(
            LinalgError::BadLength {
                expected: 6,
                actual: 5
            }
            .to_string(),
            "expected 6 elements, got 5"
        );
        assert_eq!(
            LinalgError::Empty.to_string(),
            "operation requires a non-empty matrix"
        );
    }

    #[test]
    fn display_non_finite_and_internal() {
        assert_eq!(
            LinalgError::NonFinite {
                op: "fit",
                index: (3, 1)
            }
            .to_string(),
            "non-finite value in fit at (3, 1)"
        );
        assert_eq!(
            LinalgError::Negative {
                op: "fit",
                index: (2, 4)
            }
            .to_string(),
            "negative value in fit at (2, 4)"
        );
        assert_eq!(
            LinalgError::Changed {
                op: "plan_rebind",
                index: (5, 0)
            }
            .to_string(),
            "cell changed since compile in plan_rebind at (5, 0)"
        );
        assert_eq!(
            LinalgError::Internal {
                invariant: "si computed"
            }
            .to_string(),
            "internal invariant violated: si computed"
        );
    }

    #[test]
    fn display_too_large() {
        assert_eq!(
            LinalgError::TooLarge {
                op: "pattern_compile",
                len: 4_294_967_296
            }
            .to_string(),
            "pattern_compile: 4294967296 exceeds the 32-bit index limit of 4294967295"
        );
    }

    #[test]
    fn u32_guard_accepts_the_limit_and_rejects_one_more() {
        let limit = u32::MAX as usize;
        assert_eq!(ensure_u32("graph_build", limit), Ok(()));
        assert_eq!(ensure_u32("graph_build", 0), Ok(()));
        #[cfg(target_pointer_width = "64")]
        assert_eq!(
            ensure_u32("graph_build", limit + 1),
            Err(LinalgError::TooLarge {
                op: "graph_build",
                len: limit + 1
            })
        );
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&LinalgError::Empty);
    }
}
