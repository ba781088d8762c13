//! Error types shared across the core model.

use std::error::Error;
use std::fmt;

/// Two Molecules of different widths were combined.
///
/// All Molecules on one platform share the width `n` fixed by the
/// [`AtomSet`](crate::atom::AtomSet); mixing platforms is a logic error that
/// the checked operations surface as this error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WidthMismatchError {
    /// Width of the left-hand operand.
    pub left: usize,
    /// Width of the right-hand operand.
    pub right: usize,
}

impl fmt::Display for WidthMismatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "molecule width mismatch: {} vs {}",
            self.left, self.right
        )
    }
}

impl Error for WidthMismatchError {}

/// Errors produced by the core model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// Molecule widths differ (see [`WidthMismatchError`]).
    WidthMismatch(WidthMismatchError),
    /// A Special Instruction was declared without any hardware Molecule.
    EmptySpecialInstruction {
        /// Name of the offending SI.
        name: String,
    },
    /// A Molecule's cycle count was zero, which the latency model forbids.
    ZeroCycleMolecule {
        /// Name of the offending SI.
        si: String,
    },
    /// An [`SiId`](crate::si::SiId) was not issued by the library it was
    /// used with.
    UnknownSi {
        /// The offending id's index.
        id: usize,
        /// Number of SIs in the library that rejected it.
        library_len: usize,
    },
    /// A forecast's probability or expected execution count is negative
    /// or not finite, so it cannot weigh a demand.
    InvalidForecast {
        /// Index of the SI the forecast names.
        si: usize,
        /// The offending field: `"probability"` or
        /// `"expected_executions"`.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::WidthMismatch(e) => e.fmt(f),
            CoreError::EmptySpecialInstruction { name } => {
                write!(f, "special instruction {name:?} has no hardware molecule")
            }
            CoreError::ZeroCycleMolecule { si } => {
                write!(
                    f,
                    "special instruction {si:?} declares a zero-cycle molecule"
                )
            }
            CoreError::UnknownSi { id, library_len } => {
                write!(
                    f,
                    "unknown special instruction id {id} (library holds {library_len} SIs)"
                )
            }
            CoreError::InvalidForecast { si, field, value } => {
                write!(
                    f,
                    "forecast for special instruction id {si} has {field} {value}, \
                     which is negative or not finite"
                )
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::WidthMismatch(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WidthMismatchError> for CoreError {
    fn from(e: WidthMismatchError) -> Self {
        CoreError::WidthMismatch(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        let e = WidthMismatchError { left: 2, right: 3 };
        assert_eq!(e.to_string(), "molecule width mismatch: 2 vs 3");
        let c = CoreError::EmptySpecialInstruction {
            name: "SATD_4x4".into(),
        };
        assert!(c.to_string().contains("SATD_4x4"));
        let u = CoreError::UnknownSi {
            id: 7,
            library_len: 3,
        };
        assert_eq!(
            u.to_string(),
            "unknown special instruction id 7 (library holds 3 SIs)"
        );
    }

    #[test]
    fn core_error_wraps_width_mismatch_as_source() {
        let c: CoreError = WidthMismatchError { left: 1, right: 2 }.into();
        assert!(c.source().is_some());
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<CoreError>();
        assert_bounds::<WidthMismatchError>();
    }
}
