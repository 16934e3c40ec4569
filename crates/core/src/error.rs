use paro_quant::QuantError;
use paro_tensor::TensorError;
use std::error::Error;
use std::fmt;

/// Error type for the PARO core algorithm.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// An underlying quantization operation failed.
    Quant(QuantError),
    /// Q/K/V row count does not match the token grid.
    GridMismatch {
        /// Rows in the supplied embeddings.
        tokens: usize,
        /// Tokens implied by the grid.
        grid_len: usize,
    },
    /// A DiT forward's content has the right token count but not the
    /// model's `[tokens, hidden]` shape.
    ContentShape {
        /// The model's `[tokens, hidden]`.
        expected: Vec<usize>,
        /// Shape of the supplied content.
        actual: Vec<usize>,
    },
    /// Q/K/V shapes disagree with each other.
    InconsistentQkv {
        /// Shape of Q.
        q: Vec<usize>,
        /// Shape of K.
        k: Vec<usize>,
        /// Shape of V.
        v: Vec<usize>,
    },
    /// A bitwidth budget is outside the feasible `[0, 8]` average range.
    BadBudget {
        /// The offending average-bitwidth budget.
        budget: f32,
    },
    /// The sensitivity table is empty (no blocks to allocate).
    EmptyAllocation,
    /// The operation was cancelled cooperatively (its deadline expired
    /// between pipeline stages). Not retryable: the time budget is gone.
    Cancelled,
    /// A transient fault (injected by a `paro-failpoint` site in chaos
    /// builds). Retrying the operation is expected to succeed.
    Transient {
        /// The failpoint site that raised the fault.
        site: &'static str,
    },
}

impl CoreError {
    /// Whether retrying the failed operation can plausibly succeed —
    /// `true` only for [`CoreError::Transient`] faults (directly or
    /// wrapped in [`CoreError::Quant`]).
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            CoreError::Transient { .. } | CoreError::Quant(QuantError::Transient { .. })
        )
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Tensor(e) => write!(f, "tensor error: {e}"),
            CoreError::Quant(e) => write!(f, "quantization error: {e}"),
            CoreError::GridMismatch { tokens, grid_len } => write!(
                f,
                "embedding rows {tokens} do not match token grid size {grid_len}"
            ),
            CoreError::ContentShape { expected, actual } => write!(
                f,
                "content shape {actual:?} does not match the model's [tokens, hidden] {expected:?}"
            ),
            CoreError::InconsistentQkv { q, k, v } => {
                write!(f, "inconsistent QKV shapes: q={q:?} k={k:?} v={v:?}")
            }
            CoreError::BadBudget { budget } => {
                write!(f, "average bitwidth budget {budget} outside [0, 8]")
            }
            CoreError::EmptyAllocation => write!(f, "no blocks to allocate bits for"),
            CoreError::Cancelled => write!(f, "cancelled: request deadline expired"),
            CoreError::Transient { site } => {
                write!(f, "transient fault injected at '{site}'")
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Tensor(e) => Some(e),
            CoreError::Quant(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for CoreError {
    fn from(e: TensorError) -> Self {
        CoreError::Tensor(e)
    }
}

impl From<QuantError> for CoreError {
    fn from(e: QuantError) -> Self {
        CoreError::Quant(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let errs = [
            CoreError::Tensor(TensorError::EmptyDimension),
            CoreError::Quant(QuantError::BadBlockGrid {
                block_rows: 0,
                block_cols: 1,
            }),
            CoreError::GridMismatch {
                tokens: 10,
                grid_len: 12,
            },
            CoreError::ContentShape {
                expected: vec![12, 8],
                actual: vec![12, 9],
            },
            CoreError::InconsistentQkv {
                q: vec![2, 2],
                k: vec![2, 3],
                v: vec![2, 2],
            },
            CoreError::BadBudget { budget: 9.0 },
            CoreError::EmptyAllocation,
            CoreError::Cancelled,
            CoreError::Transient {
                site: "pipeline.int_attn",
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn transient_classification() {
        assert!(CoreError::Transient { site: "s" }.is_transient());
        assert!(CoreError::Quant(QuantError::Transient { site: "s" }).is_transient());
        assert!(!CoreError::Cancelled.is_transient());
        assert!(!CoreError::EmptyAllocation.is_transient());
    }

    #[test]
    fn conversions_and_sources() {
        let e: CoreError = TensorError::EmptyDimension.into();
        assert!(Error::source(&e).is_some());
        let e: CoreError = QuantError::BadBlockGrid {
            block_rows: 0,
            block_cols: 0,
        }
        .into();
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&CoreError::EmptyAllocation).is_none());
    }
}
