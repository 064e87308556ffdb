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
//! `(ParamId, Tensor)` pairs for [`optim::AdamW`] / [`optim::Sgd`].
//!
//! Layers are written once against the [`Fwd`] trait and compute with
//! [`tranad_tensor::Var`]s, whose ops are each defined once. They run
//! taped through [`TrainCtx`] (the historical `Ctx`) for training, or
//! detached through [`InferCtx`] for serving — the same ops recording no
//! tape nodes, with bitwise-identical outputs (see [`fwd`]).
//!
//! ```
//! use tranad_nn::{Ctx, Init, ParamStore};
//! use tranad_nn::layers::Linear;
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

pub mod attention;
pub mod ctx;
pub mod fwd;
pub mod layers;
pub mod maml;
pub mod optim;
pub mod param;
pub mod rnn;
pub mod transformer;

pub use ctx::{Ctx, TrainCtx};
pub use fwd::{Fwd, InferCtx, InferWorkspace};
pub use param::{Init, ParamId, ParamStore};
