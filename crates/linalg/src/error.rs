use std::fmt;

/// Errors produced by linear-algebra kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Two operands had incompatible shapes.
    DimensionMismatch {
        /// Shape expected by the operation, e.g. `"2x3"` or `"len 5"`.
        expected: String,
        /// Shape actually supplied.
        actual: String,
    },
    /// A construction was attempted with inconsistent row lengths.
    RaggedRows {
        /// Length of the first row.
        first: usize,
        /// Index of the offending row.
        row: usize,
        /// Length of the offending row.
        len: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            LinalgError::RaggedRows { first, row, len } => write!(
                f,
                "ragged rows: row 0 has length {first} but row {row} has length {len}"
            ),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let err = LinalgError::DimensionMismatch {
            expected: "2x3".into(),
            actual: "3x2".into(),
        };
        let msg = err.to_string();
        assert!(msg.contains("2x3"));
        assert!(msg.contains("3x2"));
        assert!(msg.starts_with("dimension mismatch"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}
