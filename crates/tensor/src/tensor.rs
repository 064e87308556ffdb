//! Dense row-major `f64` tensors and the eager (non-differentiable) ops the
//! autograd tape is built on.
//!
//! Storage is shared and pooled (see [`crate::buf`] / [`crate::bufpool`]):
//! cloning a tensor is O(1), mutation is copy-on-write through
//! [`Tensor::data_mut`], and every op draws its output buffer from the
//! thread-local pool instead of the system allocator.

use crate::buf::Buf;
use crate::kernels::{self, Epilogue};
use crate::pool;
use crate::shape::Shape;
use std::fmt;

/// Elementwise ops on tensors smaller than this stay serial: pool dispatch
/// costs more than the loop itself.
const ELEMENTWISE_CUTOFF: usize = 16 * 1024;
/// Matmuls below this many multiply-adds (`n * k * m`) stay serial.
const MATMUL_CUTOFF: usize = 64 * 64 * 64;
/// Rows handed to one elementwise/softmax/transpose task.
const ROW_GRAIN: usize = 64;

/// Activation fused into [`Tensor::matmul_bias_act`] and the tape's fused
/// linear op. Every variant's derivative is expressible from the activation
/// *output*, which is what makes the fusion free: backward needs no saved
/// pre-activation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Act {
    /// No activation.
    Identity,
    /// `max(x, 0)`.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Act {
    /// Applies the activation to one value.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Act::Identity => x,
            Act::Relu => x.max(0.0),
            Act::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Act::Tanh => x.tanh(),
        }
    }
}

/// A dense, row-major `f64` tensor backed by shared, pooled storage.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Buf,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor from raw data and a shape. Panics if the element
    /// count does not match the shape.
    pub fn from_vec(data: Vec<f64>, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        Tensor {
            data: Buf::from_vec(data),
            shape,
        }
    }

    /// Internal: a pooled tensor whose contents are stale and must be fully
    /// overwritten before the tensor escapes.
    pub(crate) fn uninit(shape: Shape) -> Self {
        Tensor {
            data: Buf::uninit(shape.numel()),
            shape,
        }
    }

    /// A rank-0 tensor holding a single value.
    pub(crate) fn scalar(v: f64) -> Self {
        let mut t = Tensor::uninit(Shape::scalar());
        t.data.make_mut()[0] = v;
        t
    }

    /// All-zeros tensor of the given shape.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        Tensor {
            data: Buf::zeroed(shape.numel()),
            shape,
        }
    }

    /// All-ones tensor of the given shape.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Constant-filled tensor of the given shape.
    pub(crate) fn full(shape: impl Into<Shape>, v: f64) -> Self {
        let mut t = Tensor::uninit(shape.into());
        t.data.make_mut().fill(v);
        t
    }

    /// Builds a tensor by calling `f` for each flat (row-major) index.
    pub fn from_fn(shape: impl Into<Shape>, mut f: impl FnMut(usize) -> f64) -> Self {
        let mut t = Tensor::uninit(shape.into());
        for (i, o) in t.data.make_mut().iter_mut().enumerate() {
            *o = f(i);
        }
        t
    }

    /// A 1-d tensor over a slice.
    pub fn from_slice(v: &[f64]) -> Self {
        Tensor {
            data: Buf::copy_of(v),
            shape: Shape::new([v.len()]),
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Flat row-major view of the elements.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat view of the elements. Copy-on-write: if the storage is
    /// shared with another tensor, it is copied first, so writes are never
    /// visible through other handles.
    pub fn data_mut(&mut self) -> &mut [f64] {
        self.data.make_mut()
    }

    /// True if this tensor shares storage with `other` (diagnostics/tests).
    pub fn shares_storage(&self, other: &Tensor) -> bool {
        self.data.ptr_eq(&other.data)
    }

    /// The single value of a rank-0 or single-element tensor.
    pub fn item(&self) -> f64 {
        assert_eq!(self.numel(), 1, "item() on tensor of shape {}", self.shape);
        self.data[0]
    }

    /// Element at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> f64 {
        assert_eq!(index.len(), self.shape.rank(), "index rank mismatch");
        let strides = self.shape.strides();
        let mut flat = 0;
        for (i, (&ix, &st)) in index.iter().zip(strides.iter()).enumerate() {
            assert!(ix < self.shape.dim(i), "index {ix} out of range in dim {i}");
            flat += ix * st;
        }
        self.data[flat]
    }

    /// Reinterprets the data with a new shape of equal element count. O(1):
    /// the result shares this tensor's storage.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            self.numel(),
            shape.numel(),
            "reshape {} -> {shape}",
            self.shape
        );
        Tensor {
            data: self.data.clone(),
            shape,
        }
    }

    // ---- elementwise helpers ----------------------------------------------

    /// Applies `f` to every element, returning a new tensor. Large tensors
    /// are processed in parallel chunks (each output element depends only
    /// on its input element, so chunking never changes the result).
    pub fn map(&self, f: impl Fn(f64) -> f64 + Sync) -> Tensor {
        let mut out = Tensor::uninit(self.shape);
        let od = out.data.make_mut();
        if self.numel() < ELEMENTWISE_CUTOFF {
            for (o, &v) in od.iter_mut().zip(self.data.iter()) {
                *o = f(v);
            }
        } else {
            pool::parallel_chunks_mut(od, ELEMENTWISE_CUTOFF, |start, chunk| {
                let src = &self.data[start..start + chunk.len()];
                for (o, &v) in chunk.iter_mut().zip(src) {
                    *o = f(v);
                }
            });
        }
        out
    }

    /// Combines two same-shaped tensors elementwise (parallel above the
    /// size cutoff, like [`Tensor::map`]).
    pub fn zip(&self, other: &Tensor, f: impl Fn(f64, f64) -> f64 + Sync) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip shape mismatch");
        let mut out = Tensor::uninit(self.shape);
        let od = out.data.make_mut();
        if self.numel() < ELEMENTWISE_CUTOFF {
            for ((o, &x), &y) in od.iter_mut().zip(self.data.iter()).zip(other.data.iter()) {
                *o = f(x, y);
            }
        } else {
            pool::parallel_chunks_mut(od, ELEMENTWISE_CUTOFF, |start, chunk| {
                let a = &self.data[start..start + chunk.len()];
                let b = &other.data[start..start + chunk.len()];
                for ((o, &x), &y) in chunk.iter_mut().zip(a).zip(b) {
                    *o = f(x, y);
                }
            });
        }
        out
    }

    /// In-place `self += other` (same shape; copy-on-write if shared).
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        let od = other.data.clone(); // O(1); survives even if self == other
        for (a, &b) in self.data.make_mut().iter_mut().zip(od.iter()) {
            *a += b;
        }
    }

    /// In-place scale by a constant (copy-on-write if shared).
    pub fn scale_assign(&mut self, c: f64) {
        for a in self.data.make_mut().iter_mut() {
            *a *= c;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f64 {
        self.sum() / self.numel() as f64
    }

    /// Euclidean (L2) norm of the flattened tensor.
    pub fn l2_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    // ---- binary ops with broadcasting -------------------------------------

    /// Elementwise binary op with NumPy-style broadcasting.
    pub fn broadcast_zip(&self, other: &Tensor, f: impl Fn(f64, f64) -> f64 + Sync) -> Tensor {
        if self.shape == other.shape {
            return self.zip(other, f);
        }
        // Fast path: one operand's shape is a suffix of the other's (bias
        // adds, attention-mask adds, affine layer-norm) — tile blockwise
        // without per-element index arithmetic.
        if is_suffix(&other.shape, &self.shape) {
            let block = other.numel();
            let mut out = Tensor::uninit(self.shape);
            let od = out.data.make_mut();
            for (dst, chunk) in od
                .chunks_exact_mut(block)
                .zip(self.data.chunks_exact(block))
            {
                for ((o, &a), &b) in dst.iter_mut().zip(chunk).zip(other.data.iter()) {
                    *o = f(a, b);
                }
            }
            return out;
        }
        if is_suffix(&self.shape, &other.shape) {
            let block = self.numel();
            let mut out = Tensor::uninit(other.shape);
            let od = out.data.make_mut();
            for (dst, chunk) in od
                .chunks_exact_mut(block)
                .zip(other.data.chunks_exact(block))
            {
                for ((o, &a), &b) in dst.iter_mut().zip(self.data.iter()).zip(chunk) {
                    *o = f(a, b);
                }
            }
            return out;
        }
        let out_shape = self
            .shape
            .broadcast_with(&other.shape)
            .unwrap_or_else(|| panic!("cannot broadcast {} with {}", self.shape, other.shape));
        let a_bstrides = broadcast_strides(&self.shape, &out_shape);
        let b_bstrides = broadcast_strides(&other.shape, &out_shape);
        let mut out = Tensor::uninit(out_shape);
        let od = out.data.make_mut();
        let rank = out_shape.rank();
        let mut index = [0usize; crate::shape::MAX_RANK];
        for o in od.iter_mut() {
            let mut a_off = 0;
            let mut b_off = 0;
            for d in 0..rank {
                a_off += index[d] * a_bstrides[d];
                b_off += index[d] * b_bstrides[d];
            }
            *o = f(self.data[a_off], other.data[b_off]);
            // increment multi-index
            for d in (0..rank).rev() {
                index[d] += 1;
                if index[d] < out_shape.dim(d) {
                    break;
                }
                index[d] = 0;
            }
        }
        out
    }

    /// Reduces (sums) a gradient of `grad_shape` down to `self`-like
    /// `target_shape`, undoing broadcasting. Used by autograd backward.
    pub fn reduce_to_shape(&self, target: &Shape) -> Tensor {
        if &self.shape == target {
            return self.clone();
        }
        assert!(
            target.broadcasts_to(&self.shape),
            "cannot reduce {} to {target}",
            self.shape
        );
        // Fast path mirroring the broadcast fast path: the target is a
        // plain suffix of this shape — sum the leading blocks.
        if is_suffix(target, &self.shape) {
            let block = target.numel();
            let mut out = Tensor::zeros(*target);
            let od = out.data.make_mut();
            for chunk in self.data.chunks_exact(block) {
                for (o, &v) in od.iter_mut().zip(chunk) {
                    *o += v;
                }
            }
            return out;
        }
        let rank = self.shape.rank();
        let t_rank = target.rank();
        let mut out = Tensor::zeros(*target);
        let od = out.data.make_mut();
        let t_strides = target.strides();
        let mut index = [0usize; crate::shape::MAX_RANK];
        for &v in self.data.iter() {
            // Map the broadcast index back onto the (possibly lower-rank,
            // possibly extent-1) target index.
            let mut t_off = 0;
            for (d, &stride) in t_strides.iter().enumerate().take(t_rank) {
                let src_d = rank - t_rank + d;
                let ix = if target.dim(d) == 1 { 0 } else { index[src_d] };
                t_off += ix * stride;
            }
            od[t_off] += v;
            for d in (0..rank).rev() {
                index[d] += 1;
                if index[d] < self.shape.dim(d) {
                    break;
                }
                index[d] = 0;
            }
        }
        out
    }

    // ---- linear algebra ----------------------------------------------------

    /// Matrix product. Supports:
    /// - `[n, k] x [k, m]` -> `[n, m]`
    /// - `[b, n, k] x [k, m]` -> `[b, n, m]` (shared rhs)
    /// - `[b, n, k] x [b, k, m]` -> `[b, n, m]` (batched)
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        self.matmul_epilogue(rhs, Epilogue::NONE)
    }

    /// Shared dispatch for [`Tensor::matmul`] and
    /// [`Tensor::matmul_bias_act`]: the tiled kernels from
    /// [`crate::kernels`] with `epi` folded into each tile write-out.
    fn matmul_epilogue(&self, rhs: &Tensor, epi: Epilogue) -> Tensor {
        let mut out;
        match (self.shape.rank(), rhs.shape.rank()) {
            (2, 2) => {
                let (n, k) = (self.shape.dim(0), self.shape.dim(1));
                let (k2, m) = (rhs.shape.dim(0), rhs.shape.dim(1));
                assert_eq!(k, k2, "matmul inner dim: {} vs {}", self.shape, rhs.shape);
                out = Tensor::uninit(Shape::new([n, m]));
                matmul_shared_rhs(&self.data, &rhs.data, out.data.make_mut(), n, k, m, epi);
            }
            (3, 2) => {
                // A shared rhs makes the batch dimension just more rows:
                // `[b, n, k] @ [k, m]` is `[b * n, k] @ [k, m]` on the same
                // contiguous storage, so the whole batch row-blocks (and
                // packs the rhs once) like one big 2-d product.
                let (b, n, k) = (self.shape.dim(0), self.shape.dim(1), self.shape.dim(2));
                let (k2, m) = (rhs.shape.dim(0), rhs.shape.dim(1));
                assert_eq!(k, k2, "matmul inner dim: {} vs {}", self.shape, rhs.shape);
                out = Tensor::uninit(Shape::new([b, n, m]));
                matmul_shared_rhs(&self.data, &rhs.data, out.data.make_mut(), b * n, k, m, epi);
            }
            (3, 3) => {
                let (b, n, k) = (self.shape.dim(0), self.shape.dim(1), self.shape.dim(2));
                let (b2, k2, m) = (rhs.shape.dim(0), rhs.shape.dim(1), rhs.shape.dim(2));
                assert_eq!(b, b2, "matmul batch dim: {} vs {}", self.shape, rhs.shape);
                assert_eq!(k, k2, "matmul inner dim: {} vs {}", self.shape, rhs.shape);
                out = Tensor::uninit(Shape::new([b, n, m]));
                matmul_batched_rhs(&self.data, &rhs.data, out.data.make_mut(), b, n, k, m, epi);
            }
            _ => panic!("unsupported matmul ranks: {} x {}", self.shape, rhs.shape),
        }
        out
    }

    /// Fused `act(self @ w + bias)`. Bias and activation are folded into
    /// the micro-kernel's tile write-out — per row-block, on whichever
    /// thread computed the block — so the result is bitwise identical to
    /// the unfused `matmul` → broadcast-add → `map` chain while recording a
    /// single tape node, allocating a single output, and never re-walking
    /// the finished buffer.
    pub fn matmul_bias_act(&self, w: &Tensor, bias: Option<&Tensor>, act: Act) -> Tensor {
        let m = w.shape.last_dim();
        if let Some(b) = bias {
            assert_eq!(b.numel(), m, "bias {} vs last dim {m}", b.shape());
        }
        let epi = Epilogue {
            bias: bias.map(|b| b.data()),
            act,
        };
        self.matmul_epilogue(w, epi)
    }

    /// Fused `(self @ rhs^T) * scale` without materializing the transpose.
    /// Shapes: `[n, k] x [m, k] -> [n, m]` or batched `[b, n, k] x [b, m, k]
    /// -> [b, n, m]`. Row dot-products accumulate in the same index order as
    /// `matmul(rhs.transpose())`, so results match the unfused chain
    /// bitwise; batched planes run in parallel above the work cutoff.
    pub fn matmul_nt_scaled(&self, rhs: &Tensor, scale: f64) -> Tensor {
        let rank = self.shape.rank();
        assert_eq!(
            rank,
            rhs.shape.rank(),
            "matmul_nt rank: {} vs {}",
            self.shape,
            rhs.shape
        );
        assert!(
            rank == 2 || rank == 3,
            "matmul_nt supports rank 2 or 3, got {}",
            self.shape
        );
        let (b, n, k) = if rank == 2 {
            (1, self.shape.dim(0), self.shape.dim(1))
        } else {
            (self.shape.dim(0), self.shape.dim(1), self.shape.dim(2))
        };
        let (b2, m, k2) = if rank == 2 {
            (1, rhs.shape.dim(0), rhs.shape.dim(1))
        } else {
            (rhs.shape.dim(0), rhs.shape.dim(1), rhs.shape.dim(2))
        };
        assert_eq!(
            b, b2,
            "matmul_nt batch dim: {} vs {}",
            self.shape, rhs.shape
        );
        assert_eq!(
            k, k2,
            "matmul_nt inner dim: {} vs {}",
            self.shape, rhs.shape
        );
        let out_shape = if rank == 2 {
            Shape::new([n, m])
        } else {
            Shape::new([b, n, m])
        };
        let mut out = Tensor::uninit(out_shape);
        let od = out.data.make_mut();
        if b == 1 {
            // Single plane: row-block it like the NN path (tile-aligned so
            // the chunks replay the serial tile sequence exactly).
            if n * k * m < MATMUL_CUTOFF {
                kernels::matmul_nt_tiled(&self.data, &rhs.data, od, n, k, m, scale);
            } else {
                let grain =
                    pool::aligned_grain((MATMUL_CUTOFF / (k * m).max(1)).max(1), kernels::MR);
                pool::parallel_chunks_mut(od, grain * m, |start, chunk| {
                    let r0 = start / m;
                    let rows = chunk.len() / m;
                    kernels::matmul_nt_tiled(
                        &self.data[r0 * k..(r0 + rows) * k],
                        &rhs.data,
                        chunk,
                        rows,
                        k,
                        m,
                        scale,
                    );
                });
            }
            return out;
        }
        let plane = n * m;
        let kernel_one = |bi: usize, dst: &mut [f64]| {
            kernels::matmul_nt_tiled(
                &self.data[bi * n * k..(bi + 1) * n * k],
                &rhs.data[bi * m * k..(bi + 1) * m * k],
                dst,
                n,
                k,
                m,
                scale,
            );
        };
        if b * n * k * m < MATMUL_CUTOFF {
            for (bi, dst) in od.chunks_mut(plane).enumerate() {
                kernel_one(bi, dst);
            }
        } else {
            pool::parallel_chunks_mut(od, plane, |start, chunk| {
                kernel_one(start / plane, chunk);
            });
        }
        out
    }

    /// `self^T @ rhs` without materializing the transpose: `[n, k] x [n, m]
    /// -> [k, m]`, or batched `[b, n, k] x [b, n, m] -> [b, k, m]` (plane by
    /// plane). Every output element sums over the shared `n` axis in
    /// ascending order — the same order as
    /// `self.transpose().matmul(rhs)` — so results match the
    /// transpose-then-multiply chain bitwise. This is the grad-matmul shape
    /// the tape's backward closures need.
    pub fn matmul_tn(&self, rhs: &Tensor) -> Tensor {
        let rank = self.shape.rank();
        assert_eq!(
            rank,
            rhs.shape.rank(),
            "matmul_tn rank: {} vs {}",
            self.shape,
            rhs.shape
        );
        assert!(
            rank == 2 || rank == 3,
            "matmul_tn supports rank 2 or 3, got {}",
            self.shape
        );
        let (b, n, k) = if rank == 2 {
            (1, self.shape.dim(0), self.shape.dim(1))
        } else {
            (self.shape.dim(0), self.shape.dim(1), self.shape.dim(2))
        };
        let (b2, n2, m) = if rank == 2 {
            (1, rhs.shape.dim(0), rhs.shape.dim(1))
        } else {
            (rhs.shape.dim(0), rhs.shape.dim(1), rhs.shape.dim(2))
        };
        assert_eq!(
            b, b2,
            "matmul_tn batch dim: {} vs {}",
            self.shape, rhs.shape
        );
        assert_eq!(
            n, n2,
            "matmul_tn shared dim: {} vs {}",
            self.shape, rhs.shape
        );
        let out_shape = if rank == 2 {
            Shape::new([k, m])
        } else {
            Shape::new([b, k, m])
        };
        let mut out = Tensor::uninit(out_shape);
        let od = out.data.make_mut();
        if b == 1 {
            // Row-block the [k, m] output: each task owns output rows
            // [l0, l0 + rows) — columns [l0, l0 + rows) of self — and
            // streams all of `rhs`.
            if n * k * m < MATMUL_CUTOFF {
                kernels::matmul_tn_tiled(&self.data, k, &rhs.data, od, n, k, m);
            } else {
                let grain =
                    pool::aligned_grain((MATMUL_CUTOFF / (n * m).max(1)).max(1), kernels::MR);
                pool::parallel_chunks_mut(od, grain * m, |start, chunk| {
                    let l0 = start / m;
                    let rows = chunk.len() / m;
                    kernels::matmul_tn_tiled(&self.data[l0..], k, &rhs.data, chunk, n, rows, m);
                });
            }
            return out;
        }
        let plane = k * m;
        let kernel_one = |bi: usize, dst: &mut [f64]| {
            kernels::matmul_tn_tiled(
                &self.data[bi * n * k..(bi + 1) * n * k],
                k,
                &rhs.data[bi * n * m..(bi + 1) * n * m],
                dst,
                n,
                k,
                m,
            );
        };
        if b * n * k * m < MATMUL_CUTOFF {
            for (bi, dst) in od.chunks_mut(plane).enumerate() {
                kernel_one(bi, dst);
            }
        } else {
            pool::parallel_chunks_mut(od, plane, |start, chunk| {
                kernel_one(start / plane, chunk);
            });
        }
        out
    }

    /// Swaps the last two dimensions, materializing the result. Batched
    /// inputs transpose their `[n, m]` planes in parallel.
    pub fn transpose(&self) -> Tensor {
        let rank = self.shape.rank();
        assert!(
            rank >= 2,
            "transpose requires rank >= 2, got {}",
            self.shape
        );
        let n = self.shape.dim(rank - 2);
        let m = self.shape.dim(rank - 1);
        let plane = n * m;
        let mut out = Tensor::uninit(self.shape.transposed());
        let od = out.data.make_mut();
        let transpose_plane = |b: usize, dst: &mut [f64]| {
            let src = &self.data[b * plane..(b + 1) * plane];
            for i in 0..n {
                for j in 0..m {
                    dst[j * n + i] = src[i * m + j];
                }
            }
        };
        if self.numel() < ELEMENTWISE_CUTOFF {
            for (b, dst) in od.chunks_mut(plane).enumerate() {
                transpose_plane(b, dst);
            }
        } else {
            pool::parallel_chunks_mut(od, plane, |start, chunk| {
                transpose_plane(start / plane, chunk);
            });
        }
        out
    }

    /// Softmax over the last dimension. Rows are independent, so row blocks
    /// run in parallel above the size cutoff.
    pub fn softmax_last(&self) -> Tensor {
        let m = self.shape.last_dim();
        assert!(m > 0, "softmax over empty dim");
        let mut out = Tensor::uninit(self.shape);
        let od = out.data.make_mut();
        let softmax_rows = |start: usize, out_rows: &mut [f64]| {
            for (r, dst) in out_rows.chunks_mut(m).enumerate() {
                let base = start + r * m;
                let row = &self.data[base..base + m];
                let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let mut sum = 0.0;
                for (o, &v) in dst.iter_mut().zip(row) {
                    // If the whole row is -inf (fully masked), fall back to uniform.
                    let e = if max == f64::NEG_INFINITY {
                        1.0
                    } else {
                        (v - max).exp()
                    };
                    *o = e;
                    sum += e;
                }
                for o in dst.iter_mut() {
                    *o /= sum;
                }
            }
        };
        if self.numel() < ELEMENTWISE_CUTOFF {
            softmax_rows(0, od);
        } else {
            pool::parallel_chunks_mut(od, ROW_GRAIN * m, softmax_rows);
        }
        out
    }

    /// Row-wise layer normalization over the last dimension. Returns the
    /// normalized tensor and the per-row inverse standard deviation (needed
    /// by the backward pass).
    pub fn layer_norm_parts(&self, eps: f64) -> (Tensor, Tensor) {
        let m = self.shape.last_dim();
        let rows = self.numel() / m;
        let mut normed = Tensor::uninit(self.shape);
        let mut inv_std = Tensor::uninit(Shape::new([rows]));
        let nd = normed.data.make_mut();
        let isd = inv_std.data.make_mut();
        for r in 0..rows {
            let row = &self.data[r * m..(r + 1) * m];
            let mean: f64 = row.iter().sum::<f64>() / m as f64;
            let var: f64 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / m as f64;
            let is = 1.0 / (var + eps).sqrt();
            for (o, &v) in nd[r * m..(r + 1) * m].iter_mut().zip(row) {
                *o = (v - mean) * is;
            }
            isd[r] = is;
        }
        (normed, inv_std)
    }

    /// Layer normalization over the last dimension fused with the learned
    /// affine transform. Bitwise identical to `layer_norm_parts` followed
    /// by the row-wise affine `x * gamma + beta` — the same f64 operations
    /// in the same order, without materializing the normalized
    /// intermediate or the inverse-std vector (which only the backward
    /// pass needs).
    pub fn layer_norm_affine(&self, gamma: &Tensor, beta: &Tensor, eps: f64) -> Tensor {
        let m = self.shape.last_dim();
        assert_eq!(gamma.numel(), m, "gamma {} vs last dim {m}", gamma.shape());
        assert_eq!(beta.numel(), m, "beta {} vs last dim {m}", beta.shape());
        let rows = self.numel() / m;
        let (g, b) = (gamma.data(), beta.data());
        let mut out = Tensor::uninit(self.shape);
        let od = out.data.make_mut();
        for r in 0..rows {
            let row = &self.data[r * m..(r + 1) * m];
            let mean: f64 = row.iter().sum::<f64>() / m as f64;
            let var: f64 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / m as f64;
            let is = 1.0 / (var + eps).sqrt();
            for (o, (&v, (&gj, &bj))) in od[r * m..(r + 1) * m]
                .iter_mut()
                .zip(row.iter().zip(g.iter().zip(b)))
            {
                *o = (v - mean) * is * gj + bj;
            }
        }
        out
    }

    /// Sums over the last dimension, dropping it.
    pub(crate) fn sum_last(&self) -> Tensor {
        let m = self.shape.last_dim().max(1);
        let rows = self.numel() / m;
        let dims = self.shape.dims();
        let mut out = Tensor::uninit(Shape::new(&dims[..dims.len().saturating_sub(1)]));
        for (o, row) in out
            .data
            .make_mut()
            .iter_mut()
            .zip(self.data.chunks_exact(m))
        {
            *o = row.iter().sum();
        }
        debug_assert_eq!(out.numel(), rows);
        out
    }

    /// Mean over the last dimension, dropping it.
    pub(crate) fn mean_last(&self) -> Tensor {
        let m = self.shape.last_dim().max(1) as f64;
        let mut t = self.sum_last();
        t.scale_assign(1.0 / m);
        t
    }

    /// Concatenates tensors along the last dimension. All inputs must agree
    /// on every other dimension.
    pub(crate) fn concat_last(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat of zero tensors");
        let rank = parts[0].shape.rank();
        assert!(rank >= 1, "concat requires rank >= 1");
        let lead = &parts[0].shape.dims()[..rank - 1];
        let rows: usize = lead.iter().product();
        let widths: Vec<usize> = parts
            .iter()
            .map(|p| {
                assert_eq!(&p.shape.dims()[..rank - 1], lead, "concat leading dims");
                p.shape.last_dim()
            })
            .collect();
        let total: usize = widths.iter().sum();
        let mut out = Tensor::uninit(parts[0].shape.with_last_dim(total));
        let od = out.data.make_mut();
        for r in 0..rows {
            let mut at = r * total;
            for (p, &w) in parts.iter().zip(&widths) {
                od[at..at + w].copy_from_slice(&p.data[r * w..(r + 1) * w]);
                at += w;
            }
        }
        out
    }

    /// Takes `len` columns starting at `start` from the last dimension.
    pub(crate) fn narrow_last(&self, start: usize, len: usize) -> Tensor {
        let m = self.shape.last_dim();
        assert!(
            start + len <= m,
            "narrow [{start}, {start}+{len}) out of last dim {m}"
        );
        let rows = self.numel() / m;
        let mut out = Tensor::uninit(self.shape.with_last_dim(len));
        let od = out.data.make_mut();
        for r in 0..rows {
            od[r * len..(r + 1) * len]
                .copy_from_slice(&self.data[r * m + start..r * m + start + len]);
        }
        out
    }

    /// Prepares this tensor as a staging buffer of `shape` and returns the
    /// writable storage: reused in place when uniquely owned with a
    /// matching element count (the steady-state case for a workspace
    /// tensor), swapped for a pooled buffer otherwise. Contents are stale
    /// and must be fully overwritten by the caller. This is the public
    /// entry point for workspaces whose row count changes per batch — the
    /// serving engine sizes its `[n, window, m]` / `[n, context, m]` input
    /// stacks through it every ragged round.
    pub fn stage(&mut self, shape: impl Into<Shape>) -> &mut [f64] {
        take_out(self, shape.into())
    }
}

/// Prepares `out` to receive a result of `shape`: reuses its storage in
/// place when it is uniquely owned and already holds `shape.numel()`
/// elements (the steady-state case for a reused workspace tensor), and
/// otherwise swaps in a pooled buffer. Returns the writable slice; contents
/// are stale and must be fully overwritten (or zeroed) by the caller.
fn take_out(out: &mut Tensor, shape: Shape) -> &mut [f64] {
    if out.numel() != shape.numel() || !out.data.is_unique() {
        *out = Tensor::uninit(shape);
    } else {
        out.shape = shape;
    }
    out.data.make_mut()
}

/// `rows x k @ k x m` against a single shared rhs: packs the rhs once (into
/// recycled [`crate::bufpool`] scratch) when [`kernels::should_pack`] says
/// the pack pass pays for itself, then drives tile-aligned row blocks —
/// serial below [`MATMUL_CUTOFF`] multiply-adds, parallel above. Chunk
/// boundaries land on [`kernels::MR`]-row tile edges, so serial and
/// parallel runs execute the identical micro-kernel sequence.
fn matmul_shared_rhs(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    rows: usize,
    k: usize,
    m: usize,
    epi: Epilogue,
) {
    if kernels::should_pack(rows, k, m) {
        kernels::with_pack_scratch(k * m, |bp| {
            kernels::pack_rhs(b, k, m, bp);
            let bp = &*bp;
            run_row_blocks(a, out, rows, k, m, &|ar, oc, rs| {
                kernels::matmul_tiled_packed(ar, bp, oc, rs, k, m, epi);
            });
        });
    } else {
        run_row_blocks(a, out, rows, k, m, &|ar, oc, rs| {
            kernels::matmul_tiled_direct(ar, b, oc, rs, k, m, epi);
        });
    }
}

/// Runs `kern(a_rows, out_chunk, rows_in_chunk)` over tile-aligned row
/// blocks of the output — one serial call below the work cutoff, parallel
/// chunks above. Each task owns rows `[r0, r1)` of `out` and reads the same
/// rows of `a`.
#[allow(clippy::type_complexity)]
fn run_row_blocks(
    a: &[f64],
    out: &mut [f64],
    rows: usize,
    k: usize,
    m: usize,
    kern: &(dyn Fn(&[f64], &mut [f64], usize) + Sync),
) {
    if rows * k * m < MATMUL_CUTOFF {
        kern(a, out, rows);
    } else {
        let grain = pool::aligned_grain((MATMUL_CUTOFF / (k * m)).max(1), kernels::MR);
        pool::parallel_chunks_mut(out, grain * m, |start, chunk| {
            let r0 = start / m;
            let rs = chunk.len() / m;
            kern(&a[r0 * k..(r0 + rs) * k], chunk, rs);
        });
    }
}

/// `[b, n, k] x [b, k, m]` with a per-batch rhs, parallel over the batch
/// dimension above the work cutoff. Each task owns one batch's output
/// plane and — when packing pays — packs its rhs plane into its *own*
/// thread-local pool scratch, so workers never share panel buffers.
#[allow(clippy::too_many_arguments)]
fn matmul_batched_rhs(
    a: &[f64],
    rhs: &[f64],
    out: &mut [f64],
    b: usize,
    n: usize,
    k: usize,
    m: usize,
    epi: Epilogue,
) {
    let plane = n * m;
    let pack = kernels::should_pack(n, k, m);
    let kernel_one = |bi: usize, dst: &mut [f64]| {
        let ap = &a[bi * n * k..(bi + 1) * n * k];
        let bp = &rhs[bi * k * m..(bi + 1) * k * m];
        if pack {
            kernels::with_pack_scratch(k * m, |scratch| {
                kernels::pack_rhs(bp, k, m, scratch);
                kernels::matmul_tiled_packed(ap, scratch, dst, n, k, m, epi);
            });
        } else {
            kernels::matmul_tiled_direct(ap, bp, dst, n, k, m, epi);
        }
    };
    if b * n * k * m < MATMUL_CUTOFF {
        for (bi, dst) in out.chunks_mut(plane).enumerate() {
            kernel_one(bi, dst);
        }
    } else {
        pool::parallel_chunks_mut(out, plane, |start, chunk| {
            kernel_one(start / plane, chunk);
        });
    }
}

/// True if `small`'s dims equal the trailing dims of `big` (and `small` has
/// at least one element), i.e. broadcasting is pure leading-axis tiling.
fn is_suffix(small: &Shape, big: &Shape) -> bool {
    let (sd, bd) = (small.dims(), big.dims());
    sd.len() <= bd.len()
        && small.numel() > 0
        && sd == &bd[bd.len() - sd.len()..]
        && big.numel().is_multiple_of(small.numel().max(1))
}

/// Strides for reading `src` as if broadcast to `target` (0-stride on
/// broadcast dimensions).
pub(crate) fn broadcast_strides(src: &Shape, target: &Shape) -> [usize; crate::shape::MAX_RANK] {
    let src_strides = src.strides();
    let offset = target.rank() - src.rank();
    let mut out = [0usize; crate::shape::MAX_RANK];
    for d in 0..src.rank() {
        out[offset + d] = if src.dim(d) == 1 { 0 } else { src_strides[d] };
    }
    out
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.numel() <= 16 {
            write!(f, "Tensor({}, {:?})", self.shape, self.data())
        } else {
            write!(
                f,
                "Tensor({}, [{:.4}, {:.4}, ... ; n={}])",
                self.shape,
                self.data[0],
                self.data[1],
                self.numel()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2(rows: &[&[f64]]) -> Tensor {
        let n = rows.len();
        let m = rows[0].len();
        let data: Vec<f64> = rows.iter().flat_map(|r| r.iter().copied()).collect();
        Tensor::from_vec(data, [n, m])
    }

    /// The unfused reference for [`Tensor::layer_norm_affine`]'s affine
    /// half: row-wise `x * gamma + beta` with `gamma`/`beta` of length
    /// `last_dim`. One pass, bitwise identical to the broadcast `mul` →
    /// `add` chain.
    fn scale_shift_last(x: &Tensor, gamma: &Tensor, beta: &Tensor) -> Tensor {
        let m = x.shape.last_dim();
        assert_eq!(gamma.numel(), m, "gamma {} vs last dim {m}", gamma.shape());
        assert_eq!(beta.numel(), m, "beta {} vs last dim {m}", beta.shape());
        let (g, b) = (gamma.data(), beta.data());
        let mut out = Tensor::uninit(x.shape);
        let od = out.data.make_mut();
        for (dst, src) in od.chunks_exact_mut(m).zip(x.data.chunks_exact(m)) {
            for j in 0..m {
                dst[j] = src[j] * g[j] + b[j];
            }
        }
        out
    }

    #[test]
    fn construct_and_index() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        assert_eq!(t.at(&[0, 0]), 1.0);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.numel(), 6);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn bad_shape_panics() {
        Tensor::from_vec(vec![1.0; 5], [2, 3]);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }

    #[test]
    fn clone_is_shared_and_cow_detaches() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let mut b = a.clone();
        assert!(a.shares_storage(&b), "clone must share storage");
        b.data_mut()[0] = 9.0;
        assert!(!a.shares_storage(&b), "write must detach");
        assert_eq!(a.data(), &[1.0, 2.0]);
        assert_eq!(b.data(), &[9.0, 2.0]);
    }

    #[test]
    fn reshape_shares_storage() {
        let a = Tensor::from_vec((0..6).map(|v| v as f64).collect(), [2, 3]);
        let r = a.reshape([3, 2]);
        assert!(a.shares_storage(&r));
        assert_eq!(r.at(&[2, 1]), 5.0);
    }

    #[test]
    fn matmul_2d() {
        let a = t2(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = t2(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_batched_shared_rhs() {
        let a = Tensor::from_vec((0..12).map(|v| v as f64).collect(), [2, 2, 3]);
        let w = Tensor::ones([3, 4]);
        let c = a.matmul(&w);
        assert_eq!(c.shape().dims(), &[2, 2, 4]);
        // first row of first batch: 0+1+2 = 3
        assert_eq!(c.at(&[0, 0, 0]), 3.0);
        assert_eq!(c.at(&[1, 1, 3]), 9.0 + 10.0 + 11.0);
    }

    #[test]
    fn matmul_batched_both() {
        let a = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 2.0], [2, 2, 2]);
        let b = Tensor::from_vec((1..=8).map(|v| v as f64).collect(), [2, 2, 2]);
        let c = a.matmul(&b);
        // batch 0: identity * [[1,2],[3,4]]
        assert_eq!(c.at(&[0, 0, 0]), 1.0);
        assert_eq!(c.at(&[0, 1, 1]), 4.0);
        // batch 1: 2*I * [[5,6],[7,8]]
        assert_eq!(c.at(&[1, 0, 0]), 10.0);
        assert_eq!(c.at(&[1, 1, 1]), 16.0);
    }

    #[test]
    fn matmul_propagates_nan_through_zero_rows() {
        // Regression: the old kernel skipped `a_il == 0.0`, turning
        // 0 * NaN into 0 and hiding NaNs behind masked attention weights.
        let a = t2(&[&[0.0, 1.0], &[0.0, 0.0]]);
        let b = t2(&[&[f64::NAN, 2.0], &[3.0, 4.0]]);
        let c = a.matmul(&b);
        assert!(c.at(&[0, 0]).is_nan(), "0 * NaN must stay NaN");
        assert!(c.at(&[1, 0]).is_nan());
        assert_eq!(c.at(&[1, 1]), 0.0); // NaN-free column is untouched
        let inf = Tensor::full([2, 2], f64::INFINITY);
        let z = Tensor::zeros([2, 2]);
        assert!(
            z.matmul(&inf).data().iter().all(|v| v.is_nan()),
            "0 * inf must be NaN"
        );
    }

    #[test]
    fn parallel_matmul_matches_serial_bitwise() {
        // Big enough to cross MATMUL_CUTOFF in both the 2-d and batched
        // paths; serial (1 thread) and parallel results must be identical.
        let a = Tensor::from_fn([80, 70], |i| ((i * 37 % 101) as f64 - 50.0) * 0.013);
        let b = Tensor::from_fn([70, 90], |i| ((i * 53 % 97) as f64 - 48.0) * 0.017);
        let serial = crate::pool::with_threads(1, || a.matmul(&b));
        assert_eq!(a.matmul(&b).data(), serial.data());

        let ba = Tensor::from_fn([6, 40, 50], |i| ((i * 29 % 89) as f64 - 44.0) * 0.011);
        let bb = Tensor::from_fn([6, 50, 45], |i| ((i * 31 % 83) as f64 - 41.0) * 0.009);
        let serial = crate::pool::with_threads(1, || ba.matmul(&bb));
        assert_eq!(ba.matmul(&bb).data(), serial.data());
    }

    #[test]
    fn parallel_elementwise_matches_serial_bitwise() {
        let t = Tensor::from_fn([600, 80], |i| ((i % 211) as f64 - 105.0) * 0.03);
        let serial = crate::pool::with_threads(1, || {
            (
                t.map(|v| v.tanh()),
                t.zip(&t, |a, b| a * b + 0.5),
                t.softmax_last(),
                t.transpose(),
            )
        });
        assert_eq!(t.map(|v| v.tanh()).data(), serial.0.data());
        assert_eq!(t.zip(&t, |a, b| a * b + 0.5).data(), serial.1.data());
        assert_eq!(t.softmax_last().data(), serial.2.data());
        assert_eq!(t.transpose().data(), serial.3.data());
    }

    #[test]
    fn matmul_bias_act_matches_unfused() {
        let x = Tensor::from_fn([3, 5, 4], |i| ((i * 13 % 23) as f64 - 11.0) * 0.21);
        let w = Tensor::from_fn([4, 6], |i| ((i * 7 % 19) as f64 - 9.0) * 0.17);
        let b = Tensor::from_fn([6], |i| i as f64 * 0.3 - 1.0);
        for act in [Act::Identity, Act::Relu, Act::Sigmoid, Act::Tanh] {
            let fused = x.matmul_bias_act(&w, Some(&b), act);
            let unfused = x
                .matmul(&w)
                .broadcast_zip(&b, |p, q| p + q)
                .map(|v| act.apply(v));
            assert_eq!(fused.data(), unfused.data(), "{act:?}");
            let fused_nb = x.matmul_bias_act(&w, None, act);
            let unfused_nb = x.matmul(&w).map(|v| act.apply(v));
            assert_eq!(fused_nb.data(), unfused_nb.data(), "{act:?} (no bias)");
        }
    }

    #[test]
    fn matmul_nt_scaled_matches_unfused() {
        let q = Tensor::from_fn([2, 5, 3], |i| ((i * 11 % 29) as f64 - 14.0) * 0.13);
        let k = Tensor::from_fn([2, 7, 3], |i| ((i * 17 % 31) as f64 - 15.0) * 0.07);
        let fused = q.matmul_nt_scaled(&k, 0.5);
        let unfused = q.matmul(&k.transpose()).map(|v| v * 0.5);
        assert_eq!(fused.data(), unfused.data());
        assert_eq!(fused.shape().dims(), &[2, 5, 7]);
        // 2-d form
        let a = t2(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = t2(&[&[5.0, 6.0], &[7.0, 8.0]]);
        assert_eq!(
            a.matmul_nt_scaled(&b, 1.0).data(),
            a.matmul(&b.transpose()).data()
        );
    }

    #[test]
    fn scale_shift_last_matches_unfused() {
        let x = Tensor::from_fn([4, 3], |i| i as f64 - 5.0);
        let gamma = Tensor::from_slice(&[2.0, 0.5, -1.0]);
        let beta = Tensor::from_slice(&[1.0, -1.0, 0.25]);
        let fused = scale_shift_last(&x, &gamma, &beta);
        let unfused = x
            .broadcast_zip(&gamma, |a, b| a * b)
            .broadcast_zip(&beta, |a, b| a + b);
        assert_eq!(fused.data(), unfused.data());
    }

    #[test]
    fn transpose_2d() {
        let a = t2(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.shape().dims(), &[3, 2]);
        assert_eq!(t.at(&[0, 1]), 4.0);
        assert_eq!(t.at(&[2, 0]), 3.0);
    }

    #[test]
    fn transpose_batched() {
        let a = Tensor::from_vec((0..8).map(|v| v as f64).collect(), [2, 2, 2]);
        let t = a.transpose();
        assert_eq!(t.at(&[1, 0, 1]), a.at(&[1, 1, 0]));
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = t2(&[&[1.0, 2.0, 3.0], &[0.0, 0.0, 0.0]]);
        let s = a.softmax_last();
        let row0: f64 = s.data()[0..3].iter().sum();
        let row1: f64 = s.data()[3..6].iter().sum();
        assert!((row0 - 1.0).abs() < 1e-12);
        assert!((row1 - 1.0).abs() < 1e-12);
        assert!((s.at(&[1, 0]) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn softmax_fully_masked_row_is_uniform() {
        let a = Tensor::from_vec(vec![f64::NEG_INFINITY; 4], [1, 4]);
        let s = a.softmax_last();
        for &v in s.data() {
            assert!((v - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn broadcast_add_bias() {
        let a = Tensor::from_vec((0..6).map(|v| v as f64).collect(), [2, 3]);
        let bias = Tensor::from_slice(&[10.0, 20.0, 30.0]);
        let c = a.broadcast_zip(&bias, |x, y| x + y);
        assert_eq!(c.data(), &[10.0, 21.0, 32.0, 13.0, 24.0, 35.0]);
    }

    #[test]
    fn broadcast_scalar() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let s = Tensor::scalar(5.0);
        let c = a.broadcast_zip(&s, |x, y| x * y);
        assert_eq!(c.data(), &[5.0, 10.0]);
    }

    #[test]
    fn broadcast_middle_one() {
        let a = Tensor::ones([2, 1, 3]);
        let b = Tensor::from_vec(vec![1.0, 2.0], [1, 2, 1]);
        let c = a.broadcast_zip(&b, |x, y| x * y);
        assert_eq!(c.shape().dims(), &[2, 2, 3]);
        assert_eq!(c.at(&[0, 1, 2]), 2.0);
        assert_eq!(c.at(&[1, 0, 0]), 1.0);
    }

    #[test]
    fn reduce_to_shape_sums_broadcast_dims() {
        let g = Tensor::ones([2, 3]);
        let r = g.reduce_to_shape(&Shape::new([3]));
        assert_eq!(r.data(), &[2.0, 2.0, 2.0]);
        let r2 = g.reduce_to_shape(&Shape::scalar());
        assert_eq!(r2.item(), 6.0);
    }

    #[test]
    fn reduce_to_shape_extent_one() {
        let g = Tensor::ones([2, 3, 4]);
        let r = g.reduce_to_shape(&Shape::new([2, 1, 4]));
        assert_eq!(r.shape().dims(), &[2, 1, 4]);
        assert_eq!(r.data()[0], 3.0);
    }

    #[test]
    fn concat_and_narrow_roundtrip() {
        let a = Tensor::from_vec((0..6).map(|v| v as f64).collect(), [2, 3]);
        let b = Tensor::from_vec((10..14).map(|v| v as f64).collect(), [2, 2]);
        let c = Tensor::concat_last(&[&a, &b]);
        assert_eq!(c.shape().dims(), &[2, 5]);
        assert_eq!(
            c.data(),
            &[0.0, 1.0, 2.0, 10.0, 11.0, 3.0, 4.0, 5.0, 12.0, 13.0]
        );
        assert_eq!(c.narrow_last(0, 3).data(), a.data());
        assert_eq!(c.narrow_last(3, 2).data(), b.data());
    }

    #[test]
    fn sum_and_mean_last() {
        let a = t2(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.sum_last().data(), &[6.0, 15.0]);
        assert_eq!(a.mean_last().data(), &[2.0, 5.0]);
    }

    #[test]
    fn l2_norm() {
        let a = Tensor::from_slice(&[3.0, 4.0]);
        assert!((a.l2_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn map_zip() {
        let a = Tensor::from_slice(&[1.0, -2.0]);
        assert_eq!(a.map(f64::abs).data(), &[1.0, 2.0]);
        let b = Tensor::from_slice(&[10.0, 10.0]);
        assert_eq!(a.zip(&b, |x, y| x + y).data(), &[11.0, 8.0]);
    }

    #[test]
    fn layer_norm_affine_matches_unfused_chain() {
        let x = Tensor::from_fn([6, 5], |i| ((i * 19 % 37) as f64 - 18.0) * 0.11);
        let gamma = Tensor::from_fn([5], |i| 1.0 - i as f64 * 0.3);
        let beta = Tensor::from_fn([5], |i| i as f64 * 0.05);
        let fused = x.layer_norm_affine(&gamma, &beta, 1e-5);
        let unfused = scale_shift_last(&x.layer_norm_parts(1e-5).0, &gamma, &beta);
        assert_eq!(fused.data(), unfused.data());
    }

    #[test]
    fn stage_reuses_unique_matching_storage() {
        let mut out = Tensor::zeros([64]); // right numel, wrong shape: reused
        let ptr = out.data().as_ptr();
        out.stage([8, 8]).fill(1.5);
        assert_eq!(
            out.data().as_ptr(),
            ptr,
            "unique matching buffer must be reused"
        );
        assert_eq!(out.shape().dims(), &[8, 8]);
        assert!(out.data().iter().all(|&v| v == 1.5));
        out.stage([4, 16]);
        assert_eq!(out.data().as_ptr(), ptr);

        // A shared buffer must be detached, not written through.
        let alias = out.clone();
        let before = alias.data().to_vec();
        out.stage([2, 32]).fill(-1.0);
        assert_eq!(
            alias.data(),
            &before[..],
            "shared storage must not be clobbered"
        );
        assert!(!out.shares_storage(&alias));

        // A different element count takes a fresh buffer of the new size.
        out.stage([3, 5]).fill(0.0);
        assert_eq!(out.numel(), 15);
        assert_eq!(out.shape().dims(), &[3, 5]);
    }

    #[test]
    fn add_assign_aliased_storage() {
        // `x += x` through a shared handle: COW must snapshot the addend.
        let mut a = Tensor::from_slice(&[1.0, 2.0]);
        let alias = a.clone();
        a.add_assign(&alias);
        assert_eq!(a.data(), &[2.0, 4.0]);
        assert_eq!(alias.data(), &[1.0, 2.0]);
    }
}
