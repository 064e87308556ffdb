//! # tranad-nn
//!
//! Neural-network layers, optimizers and meta-learning utilities built on
//! [`tranad_tensor`]'s autograd tape. This crate is the shared deep-learning
//! substrate for the TranAD model and all neural baselines of the paper.
//!
//! ## Architecture
//!
//! Parameters live in a [`ParamStore`]; each forward pass opens a [`Ctx`]
//! binding a fresh tape to the store, modules pull their parameters in as
//! tape leaves, and after `backward()` the context hands gradients back as
//! `(ParamId, Tensor)` pairs for [`optim::AdamW`] / `optim::Sgd`.
//!
//! Layers are written once against the [`Fwd`] trait and compute with
//! [`tranad_tensor::Var`]s, whose ops are each defined once. They run
//! taped through [`Ctx`] for training, or
//! detached through [`InferCtx`] for serving — the same ops recording no
//! tape nodes, with bitwise-identical outputs (see [`Fwd`]).
//!
//! ```
//! use tranad_nn::{Ctx, Init, Linear, ParamStore};
//! use tranad_nn::optim::AdamW;
//! use tranad_tensor::Tensor;
//!
//! let mut store = ParamStore::new();
//! let mut init = Init::with_seed(0);
//! let layer = Linear::new(&mut store, &mut init, 4, 1);
//! let mut opt = AdamW::new(0.01);
//!
//! for _step in 0..10 {
//!     let grads = {
//!         let ctx = Ctx::train(&store, 0);
//!         let x = ctx.input(Tensor::ones([8, 4]));
//!         let y = ctx.input(Tensor::zeros([8, 1]));
//!         let loss = layer.forward(&ctx, &x).mse(&y);
//!         loss.backward();
//!         ctx.grads()
//!     };
//!     opt.step(&mut store, &grads);
//! }
//! ```

mod attention;
mod ctx;
mod fwd;
mod layers;
mod maml;
// perfbench names `optim::AdamW`.
pub mod optim;
mod param;
mod rnn;
mod transformer;

pub use attention::{causal_mask, scaled_dot_attention};
pub use ctx::Ctx;
pub use fwd::{Fwd, InferCtx, InferWorkspace};
pub use layers::{Activation, FeedForward, Linear};
pub use maml::{fomaml_step, MamlConfig};
pub use param::{Init, ParamId, ParamStore};
pub use rnn::{GruCell, LstmCell};
pub use transformer::{EncoderLayer, PositionalEncoding, WindowEncoderLayer};
