//! Packed, register-tiled matmul micro-kernels (see DESIGN.md "Kernel
//! architecture").
//!
//! Every kernel in this module computes each output element as the same
//! ascending-`k` sum of products the naive triple loop produces: tiles
//! change *which* elements a block of code computes, never the order of
//! additions *within* an element. That makes the tiled kernels bitwise
//! identical to the reference loops in `tests/support/reference.rs` (the
//! pre-tiling kernels, kept as the executable spec for the parity tests) at any
//! `TRANAD_THREADS` setting — determinism by construction, not by
//! re-baselining.
//!
//! Layout of the family:
//!
//! - [`pack_rhs`] copies the shared `[k, m]` rhs into column panels of
//!   width `NR` so the micro-kernel streams it contiguously. Panel
//!   scratch comes from the thread-local [`crate::bufpool`] via
//!   [`with_pack_scratch`] (recycled across steps; every element is
//!   overwritten, so stale NaN-poisoned contents can never leak).
//! - [`matmul_tiled_packed`] / [`matmul_tiled_direct`] drive an
//!   `MR x NR` register tile over the output, with the bias +
//!   activation [`Epilogue`] folded into the tile write-out (no second
//!   full-buffer pass).
//! - [`matmul_nt_tiled`] (attention scores, `a @ b^T * scale`) and
//!   [`matmul_tn_tiled`] (grad-matmuls, `a^T @ g`) tile the transposed
//!   forms without materializing a transpose.
//!
//! Deliberately no `x == 0.0` shortcuts anywhere: skipping a term would
//! turn `0 * NaN` / `0 * inf` into `0`, silently masking non-finite values
//! instead of propagating them IEEE-754-style.

use crate::bufpool;
use crate::tensor::Act;
use std::sync::Arc;

/// Rows of output per register tile.
pub(crate) const MR: usize = 4;
/// Columns of output per register tile (also the packed panel width). Eight
/// columns give the k-loop eight independent accumulator chains per row —
/// enough to cover FMA latency, which four could not.
pub(crate) const NR: usize = 8;

/// Minimum rhs element count before panel packing pays for itself: below
/// this the rhs sits in L1 and strided reads are free; above it, packing
/// converts the re-streamed panel walk into sequential, fully-utilized
/// cache lines.
const PACK_MIN_RHS: usize = 2048;
/// Minimum output row count before packing pays: the pack pass costs one
/// sweep over rhs, amortized across `rows / MR` row blocks.
const PACK_MIN_ROWS: usize = 4 * MR;

/// Bias + activation folded into the micro-kernel write-out. The two
/// per-element operations (`v + bias[j]`, then `act`) are exactly the ones
/// the reference serial epilogue applies, in the same order, so fusing them
/// into the tile store is bitwise-free.
#[derive(Clone, Copy)]
pub struct Epilogue<'a> {
    /// Per-column bias of length `m`, added before the activation.
    pub bias: Option<&'a [f64]>,
    /// Activation applied to the biased value.
    pub act: Act,
}

impl Epilogue<'_> {
    /// The identity epilogue: plain matmul write-out.
    pub const NONE: Epilogue<'static> = Epilogue {
        bias: None,
        act: Act::Identity,
    };

    /// Applies the epilogue to one finished dot product in output column `j`.
    #[inline(always)]
    fn apply(&self, j: usize, v: f64) -> f64 {
        let pre = match self.bias {
            Some(b) => v + b[j],
            None => v,
        };
        self.act.apply(pre)
    }
}

/// True when packing `rhs` into panels is worth the extra sweep for a
/// `rows x k @ k x m` product. Depends only on the shape — never on thread
/// count — so the serial and parallel paths take the same branch.
pub fn should_pack(rows: usize, k: usize, m: usize) -> bool {
    rows >= PACK_MIN_ROWS && k * m >= PACK_MIN_RHS
}

/// Runs `f` with a pooled scratch buffer of `len` elements. Contents are
/// stale values from a previous use; [`pack_rhs`] overwrites every element
/// before anything reads it. The buffer is recycled into this thread's
/// pool afterwards, so steady-state training/serving steps re-pack into
/// the same allocation.
pub fn with_pack_scratch<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    if len == 0 {
        return f(&mut []);
    }
    let mut arc = bufpool::take(len);
    let r = f(Arc::get_mut(&mut arc).expect("pooled buffer is uniquely owned"));
    bufpool::recycle(arc);
    r
}

/// Packs `b[k, m]` into column panels of width `NR`: panel `p` holds
/// columns `[p*NR, min((p+1)*NR, m))` row-major at its true width, so the
/// micro-kernel's k-loop streams it as contiguous, fully-utilized cache
/// lines. `dst` must hold exactly `k * m` elements; every one is written.
pub fn pack_rhs(b: &[f64], k: usize, m: usize, dst: &mut [f64]) {
    debug_assert_eq!(dst.len(), k * m, "pack_rhs scratch size");
    let mut at = 0;
    let mut j0 = 0;
    while j0 < m {
        let w = NR.min(m - j0);
        for l in 0..k {
            dst[at..at + w].copy_from_slice(&b[l * m + j0..l * m + j0 + w]);
            at += w;
        }
        j0 += NR;
    }
}

/// Full-speed `MR x NR` register tile: 16 accumulators live in registers
/// across the whole k-loop, each accumulating its `a[i] * b[j]` products in
/// ascending-`k` order (the reference order). `a` holds exactly [`MR`] rows
/// of length `k`; `b`'s row `l` starts at `l * ldb` and is at least [`NR`]
/// wide.
#[inline(always)]
fn tile_full(a: &[f64], k: usize, b: &[f64], ldb: usize) -> [[f64; NR]; MR] {
    let (a0, rest) = a.split_at(k);
    let (a1, rest) = rest.split_at(k);
    let (a2, a3) = rest.split_at(k);
    let mut acc = [[0.0f64; NR]; MR];
    for l in 0..k {
        let bl = &b[l * ldb..l * ldb + NR];
        let av = [a0[l], a1[l], a2[l], a3[l]];
        for r in 0..MR {
            for c in 0..NR {
                acc[r][c] += av[r] * bl[c];
            }
        }
    }
    acc
}

/// Ragged-edge tile: `mr <= MR` rows by `w <= NR` columns, same ascending-`k`
/// accumulation order per element as [`tile_full`].
#[inline(always)]
fn tile_edge(a: &[f64], k: usize, mr: usize, b: &[f64], ldb: usize, w: usize) -> [[f64; NR]; MR] {
    let mut acc = [[0.0f64; NR]; MR];
    for l in 0..k {
        let bl = &b[l * ldb..l * ldb + w];
        for r in 0..mr {
            let ar = a[r * k + l];
            for (c, &bv) in bl.iter().enumerate() {
                acc[r][c] += ar * bv;
            }
        }
    }
    acc
}

/// Stores one finished tile, applying the epilogue per element. Writes (not
/// accumulates), so callers never pre-zero the output.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn write_tile(
    out: &mut [f64],
    m: usize,
    i0: usize,
    j0: usize,
    mr: usize,
    w: usize,
    acc: &[[f64; NR]; MR],
    epi: Epilogue,
) {
    for r in 0..mr {
        let row = &mut out[(i0 + r) * m + j0..(i0 + r) * m + j0 + w];
        for (c, o) in row.iter_mut().enumerate() {
            *o = epi.apply(j0 + c, acc[r][c]);
        }
    }
}

/// Shared tile walk for the NN kernels: `panel(j0, w)` resolves the rhs
/// columns `[j0, j0 + w)` to a base slice and row stride — the packed and
/// strided drivers differ only in that lookup.
fn drive_nn<'b>(
    a: &[f64],
    out: &mut [f64],
    n: usize,
    k: usize,
    m: usize,
    epi: Epilogue,
    panel: impl Fn(usize, usize) -> (&'b [f64], usize),
) {
    let mut i0 = 0;
    while i0 < n {
        let mr = MR.min(n - i0);
        let arows = &a[i0 * k..(i0 + mr) * k];
        let mut j0 = 0;
        while j0 < m {
            let w = NR.min(m - j0);
            let (bsrc, ldb) = panel(j0, w);
            let acc = if mr == MR && w == NR {
                tile_full(arows, k, bsrc, ldb)
            } else {
                tile_edge(arows, k, mr, bsrc, ldb, w)
            };
            write_tile(out, m, i0, j0, mr, w, &acc, epi);
            j0 += NR;
        }
        i0 += MR;
    }
}

/// Tiled `out[n, m] = epi(a[n, k] @ b)` against a [`pack_rhs`]-packed rhs.
pub fn matmul_tiled_packed(
    a: &[f64],
    packed_b: &[f64],
    out: &mut [f64],
    n: usize,
    k: usize,
    m: usize,
    epi: Epilogue,
) {
    debug_assert_eq!(packed_b.len(), k * m, "packed rhs size");
    // Panel p's rows are its true width wide, so full panels before column
    // j0 occupy (j0 / NR) * k * NR elements.
    drive_nn(a, out, n, k, m, epi, |j0, w| {
        (&packed_b[(j0 / NR) * k * NR..], w)
    });
}

/// Tiled `out[n, m] = epi(a[n, k] @ b[k, m])` reading `b` in place (row
/// stride `m`). Used when [`should_pack`] says packing won't pay.
pub fn matmul_tiled_direct(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    n: usize,
    k: usize,
    m: usize,
    epi: Epilogue,
) {
    debug_assert_eq!(b.len(), k * m, "rhs size");
    drive_nn(a, out, n, k, m, epi, |j0, _w| (&b[j0..], m));
}

/// Tiled `out[n, m] = (a[n, k] @ b[m, k]^T) * scale` (attention scores).
/// Both operands are already k-contiguous, so no packing is needed; each
/// accumulator's dot product runs over `k` in ascending order — the same
/// order as the reference nt loop and as plain matmul on a materialized
/// transpose.
pub fn matmul_nt_tiled(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    n: usize,
    k: usize,
    m: usize,
    scale: f64,
) {
    let mut i0 = 0;
    while i0 < n {
        let mr = MR.min(n - i0);
        let arows = &a[i0 * k..(i0 + mr) * k];
        let mut j0 = 0;
        while j0 < m {
            let w = NR.min(m - j0);
            let brows = &b[j0 * k..(j0 + w) * k];
            let mut acc = [[0.0f64; NR]; MR];
            if mr == MR && w == NR {
                let (a0, rest) = arows.split_at(k);
                let (a1, rest) = rest.split_at(k);
                let (a2, a3) = rest.split_at(k);
                let mut brow: [&[f64]; NR] = [&[]; NR];
                for (c, s) in brow.iter_mut().enumerate() {
                    *s = &brows[c * k..(c + 1) * k];
                }
                for l in 0..k {
                    let av = [a0[l], a1[l], a2[l], a3[l]];
                    let mut bv = [0.0f64; NR];
                    for (c, v) in bv.iter_mut().enumerate() {
                        *v = brow[c][l];
                    }
                    for r in 0..MR {
                        for c in 0..NR {
                            acc[r][c] += av[r] * bv[c];
                        }
                    }
                }
            } else {
                for l in 0..k {
                    for r in 0..mr {
                        let ar = arows[r * k + l];
                        for c in 0..w {
                            acc[r][c] += ar * brows[c * k + l];
                        }
                    }
                }
            }
            for r in 0..mr {
                for c in 0..w {
                    out[(i0 + r) * m + j0 + c] = acc[r][c] * scale;
                }
            }
            j0 += NR;
        }
        i0 += MR;
    }
}

/// Tiled `out[kr, m] = a^T @ g[n, m]` over `kr` columns of `a` (grad-matmul
/// for the tape, without materializing `a^T`). `a`'s column `r` of this
/// block is at `a[i * lda + r]`; the caller offsets `a` to the first column.
/// Each element sums over the shared `n` axis in ascending order — the same
/// order plain matmul uses on a materialized transpose, so results match
/// `transpose().matmul()` bitwise.
pub fn matmul_tn_tiled(
    a: &[f64],
    lda: usize,
    g: &[f64],
    out: &mut [f64],
    n: usize,
    kr: usize,
    m: usize,
) {
    let mut l0 = 0;
    while l0 < kr {
        let mr = MR.min(kr - l0);
        let mut j0 = 0;
        while j0 < m {
            let w = NR.min(m - j0);
            let mut acc = [[0.0f64; NR]; MR];
            if mr == MR && w == NR {
                for i in 0..n {
                    let arow = &a[i * lda + l0..i * lda + l0 + MR];
                    let grow = &g[i * m + j0..i * m + j0 + NR];
                    for r in 0..MR {
                        for c in 0..NR {
                            acc[r][c] += arow[r] * grow[c];
                        }
                    }
                }
            } else {
                for i in 0..n {
                    let arow = &a[i * lda + l0..i * lda + l0 + mr];
                    let grow = &g[i * m + j0..i * m + j0 + w];
                    for (r, &av) in arow.iter().enumerate() {
                        for (c, &gv) in grow.iter().enumerate() {
                            acc[r][c] += av * gv;
                        }
                    }
                }
            }
            for r in 0..mr {
                for c in 0..w {
                    out[(l0 + r) * m + j0 + c] = acc[r][c];
                }
            }
            j0 += NR;
        }
        l0 += MR;
    }
}

#[cfg(test)]
#[path = "../tests/support/reference.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, mul: usize, md: usize, off: f64, sc: f64) -> Vec<f64> {
        (0..n).map(|i| ((i * mul % md) as f64 - off) * sc).collect()
    }

    #[test]
    fn packed_and_direct_match_reference_bitwise() {
        for &(n, k, m) in &[(1, 1, 1), (4, 4, 4), (5, 3, 7), (13, 9, 6), (33, 17, 31)] {
            let a = seq(n * k, 37, 101, 50.0, 0.013);
            let b = seq(k * m, 53, 97, 48.0, 0.017);
            let mut rf = vec![0.0; n * m];
            reference::matmul(&a, &b, &mut rf, n, k, m);
            let mut td = vec![f64::NAN; n * m];
            matmul_tiled_direct(&a, &b, &mut td, n, k, m, Epilogue::NONE);
            let mut tp = vec![f64::NAN; n * m];
            let mut packed = vec![f64::NAN; k * m];
            pack_rhs(&b, k, m, &mut packed);
            matmul_tiled_packed(&a, &packed, &mut tp, n, k, m, Epilogue::NONE);
            for i in 0..n * m {
                assert_eq!(
                    rf[i].to_bits(),
                    td[i].to_bits(),
                    "direct {n}x{k}x{m} at {i}"
                );
                assert_eq!(
                    rf[i].to_bits(),
                    tp[i].to_bits(),
                    "packed {n}x{k}x{m} at {i}"
                );
            }
        }
    }

    #[test]
    fn epilogue_matches_reference_pass() {
        let (n, k, m) = (7, 5, 6);
        let a = seq(n * k, 13, 23, 11.0, 0.21);
        let b = seq(k * m, 7, 19, 9.0, 0.17);
        let bias = seq(m, 1, m, 1.0, 0.3);
        for act in [Act::Identity, Act::Relu, Act::Sigmoid, Act::Tanh] {
            let mut rf = vec![0.0; n * m];
            reference::matmul(&a, &b, &mut rf, n, k, m);
            reference::bias_act(&mut rf, m, Some(&bias), act);
            let mut tl = vec![f64::NAN; n * m];
            let epi = Epilogue {
                bias: Some(&bias),
                act,
            };
            matmul_tiled_direct(&a, &b, &mut tl, n, k, m, epi);
            assert!(
                rf.iter().zip(&tl).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{act:?}"
            );
        }
    }

    #[test]
    fn nt_and_tn_match_reference_bitwise() {
        let (n, k, m) = (9, 7, 11);
        let a = seq(n * k, 11, 29, 14.0, 0.13);
        let b = seq(m * k, 17, 31, 15.0, 0.07);
        let mut rf = vec![0.0; n * m];
        reference::matmul_nt(&a, &b, &mut rf, n, k, m, 0.5);
        let mut tl = vec![f64::NAN; n * m];
        matmul_nt_tiled(&a, &b, &mut tl, n, k, m, 0.5);
        assert!(rf.iter().zip(&tl).all(|(x, y)| x.to_bits() == y.to_bits()));

        let g = seq(n * m, 19, 37, 18.0, 0.11);
        let mut rf = vec![0.0; k * m];
        reference::matmul_tn(&a, k, &g, &mut rf, n, k, m);
        let mut tl = vec![f64::NAN; k * m];
        matmul_tn_tiled(&a, k, &g, &mut tl, n, k, m);
        assert!(rf.iter().zip(&tl).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn pack_scratch_overwrites_every_element() {
        let (k, m) = (6, 10);
        let b = seq(k * m, 3, 41, 20.0, 0.5);
        with_pack_scratch(k * m, |dst| {
            dst.fill(f64::NAN);
            pack_rhs(&b, k, m, dst);
            assert!(
                dst.iter().all(|v| v.is_finite()),
                "pack left stale elements"
            );
        });
    }
}
