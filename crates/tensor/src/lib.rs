//! # tranad-tensor
//!
//! A minimal, dependency-free dense tensor library with tape-based
//! reverse-mode automatic differentiation, written as the deep-learning
//! substrate for the TranAD reproduction.
//!
//! The design mirrors what the TranAD paper needs and nothing more:
//!
//! - [`Tensor`]: dense row-major `f64` storage of arbitrary rank with
//!   NumPy-style broadcasting, 2-d/batched matmul, softmax, layer-norm
//!   building blocks, concatenation and narrowing along the feature axis.
//! - [`Tape`] / [`Var`]: eager operator recording and reverse-mode
//!   differentiation. A fresh tape per training step; model parameters live
//!   outside and are re-introduced as leaves.
//! - `buf` / [`bufpool`]: shared, copy-on-write tensor storage backed by
//!   a thread-local buffer pool — tensor clones are O(1) and steady-state
//!   training steps recycle buffers instead of allocating.
//! - [`check`]: finite-difference gradient checking used across the
//!   workspace's tests.
//! - [`kernels`]: packed, register-tiled matmul micro-kernels, tested
//!   bitwise-equal to the naive loops in `tests/support/reference.rs`.
//! - [`pool`]: a from-scratch thread pool driving the matmul/elementwise
//!   hot paths (`TRANAD_THREADS` to override sizing; results are bitwise
//!   identical for any thread count).
//! - [`Rng`]: the workspace's seeded SplitMix64 generator (keeps the build
//!   hermetic — no external `rand`).
//!
//! ## Example
//!
//! ```
//! use tranad_tensor::{Tape, Tensor};
//!
//! let tape = Tape::new();
//! let w = tape.leaf(Tensor::from_vec(vec![0.5, -0.5], [1, 2]));
//! let x = tape.leaf(Tensor::from_vec(vec![2.0], [1, 1]));
//! let y = x.matmul(&w).sigmoid();
//! let loss = y.square().mean_all();
//! loss.backward();
//! assert_eq!(w.grad().shape().dims(), &[1, 2]);
//! ```

mod buf;
// perfbench names `bufpool::stats`/`high_watermark_bytes`; `bench-alloc`
// names `bufpool::set_enabled`/`clear`.
pub mod bufpool;
// `tranad-nn`'s unit tests and the op-property suites name
// `check::assert_gradients_match` / `check::check_gradients`.
pub mod check;
// `kernel_parity.rs` and `bench-kernels` name the `kernels::*_tiled` kernels.
pub mod kernels;
// perfbench names `pool::current_threads`; `tranad` names
// `pool::parallel_chunks_mut`.
pub mod pool;
mod rng;
mod shape;
mod tape;
mod tensor;

pub use rng::Rng;
pub use shape::{Shape, MAX_RANK};
pub use tape::{Tape, Var};
pub use tensor::{Act, Tensor};
