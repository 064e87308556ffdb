//! The shared error type of the detection API.
//!
//! One `DetectorError` covers TranAD itself, every baseline detector and
//! the bench harness, so fallible `fit`/`score`/`detect` signatures compose
//! without per-crate error conversions. `tranad-evt`'s [`PotError`] maps in
//! with the dimension that failed attached.

use std::fmt;
use tranad_evt::PotError;

/// Why a detector could not fit, score or threshold.
#[derive(Debug, Clone, PartialEq)]
pub enum DetectorError {
    /// A configuration field (or combination) is out of range.
    InvalidConfig(String),
    /// The input series has no timestamps (or no score rows were given).
    EmptySeries,
    /// The input series is shorter than the method's minimum.
    SeriesTooShort {
        /// Minimum number of timestamps the method needs.
        needed: usize,
        /// Timestamps actually supplied.
        got: usize,
    },
    /// The input's dimensionality does not match what was fitted/expected.
    DimensionMismatch {
        /// Expected number of dimensions.
        expected: usize,
        /// Dimensions actually supplied.
        got: usize,
    },
    /// Training produced a non-finite loss (diverged or NaN-poisoned).
    NonFiniteLoss {
        /// 0-based epoch at which the loss left the finite range.
        epoch: usize,
    },
    /// A streamed datapoint contains NaN or ±Inf. Scoring it would poison
    /// the model window and streaming SPOT state, so it is rejected before
    /// any state is touched — the detector keeps working on the next valid
    /// point.
    NonFiniteInput {
        /// 0-based dimension of the first non-finite value.
        dim: usize,
    },
    /// A score row is empty or contains NaN — the detector produced no
    /// usable score for that timestamp.
    MalformedScores {
        /// 0-based timestamp of the first malformed row.
        timestamp: usize,
    },
    /// POT/SPOT calibration failed for a dimension.
    PotFitFailed {
        /// 0-based score dimension (`usize::MAX` for the aggregate score).
        dim: usize,
        /// Human-readable cause from the EVT layer.
        detail: String,
    },
    /// `score`/`train_scores` was called before a successful `fit`.
    NotFitted,
    /// A method-specific failure that fits no other variant.
    Failed(String),
}

impl DetectorError {
    /// Wraps an EVT-layer error with the dimension it occurred on (use
    /// `usize::MAX` for the aggregate score).
    pub(crate) fn pot(dim: usize, e: PotError) -> Self {
        DetectorError::PotFitFailed {
            dim,
            detail: e.to_string(),
        }
    }
}

impl fmt::Display for DetectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectorError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            DetectorError::EmptySeries => write!(f, "input series is empty"),
            DetectorError::SeriesTooShort { needed, got } => {
                write!(
                    f,
                    "series too short: need at least {needed} timestamps, got {got}"
                )
            }
            DetectorError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            DetectorError::NonFiniteLoss { epoch } => {
                write!(f, "non-finite training loss at epoch {epoch}")
            }
            DetectorError::NonFiniteInput { dim } => {
                write!(f, "non-finite (NaN/Inf) input value at dimension {dim}")
            }
            DetectorError::MalformedScores { timestamp } => {
                write!(
                    f,
                    "malformed (empty or NaN) score row at timestamp {timestamp}"
                )
            }
            DetectorError::PotFitFailed { dim, detail } => {
                if *dim == usize::MAX {
                    write!(f, "POT fit failed on the aggregate score: {detail}")
                } else {
                    write!(f, "POT fit failed on dimension {dim}: {detail}")
                }
            }
            DetectorError::NotFitted => write!(f, "detector used before fit"),
            DetectorError::Failed(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for DetectorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_descriptive() {
        let e = DetectorError::SeriesTooShort { needed: 5, got: 2 };
        assert!(e.to_string().contains("need at least 5"));
        let e = DetectorError::pot(3, PotError::EmptyCalibration);
        assert!(e.to_string().contains("dimension 3"));
        let e = DetectorError::pot(usize::MAX, PotError::NonFiniteScores);
        assert!(e.to_string().contains("aggregate"));
    }
}
