//! The reference matmul kernels: the pre-tiling loops, kept verbatim as the
//! executable spec of `tranad_tensor::kernels`. The parity suites assert the
//! tiled kernels reproduce these bitwise, and `bench-kernels` measures the
//! tiled speedup against them. Not a public API: the kernels' unit tests,
//! `tests/kernel_parity.rs` and `bench-kernels` each include this file with
//! `#[path]`, with `Act` in scope at the include site.

use super::Act;

/// Reference `out[n, m] += a[n, k] @ b[k, m]` (`out` must start zeroed).
/// Iterates `i, l, j` — the inner loop is contiguous over `b` and `out`,
/// and each element accumulates over `l` (= k) in ascending order.
pub fn matmul(a: &[f64], b: &[f64], out: &mut [f64], n: usize, k: usize, m: usize) {
    for i in 0..n {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * m..(i + 1) * m];
        for (l, &a_il) in a_row.iter().enumerate() {
            let b_row = &b[l * m..(l + 1) * m];
            for (o, &b_lj) in out_row.iter_mut().zip(b_row) {
                *o += a_il * b_lj;
            }
        }
    }
}

/// Reference serial bias + activation epilogue: one full pass over the
/// finished matmul output, cycling the bias across rows.
pub fn bias_act(out: &mut [f64], m: usize, bias: Option<&[f64]>, act: Act) {
    for (o, j) in out.iter_mut().zip((0..m).cycle()) {
        let pre = match bias {
            Some(b) => *o + b[j],
            None => *o,
        };
        *o = act.apply(pre);
    }
}

/// Reference `out[n, m] = (a[n, k] . b[m, k]) * scale`: row-by-row dot
/// products against an un-transposed `b`, accumulating over `k` in
/// ascending order.
#[allow(clippy::too_many_arguments)]
pub fn matmul_nt(a: &[f64], b: &[f64], out: &mut [f64], n: usize, k: usize, m: usize, scale: f64) {
    for i in 0..n {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..m {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0;
            for (&x, &y) in a_row.iter().zip(b_row) {
                acc += x * y;
            }
            out[i * m + j] = acc * scale;
        }
    }
}

/// Reference `out[kr, m] = a^T @ g[n, m]` (same `a` addressing as
/// `kernels::matmul_tn_tiled`; `out` must start zeroed): each element sums
/// over the shared `n` axis in ascending order.
pub fn matmul_tn(a: &[f64], lda: usize, g: &[f64], out: &mut [f64], n: usize, kr: usize, m: usize) {
    for r in 0..kr {
        let out_row = &mut out[r * m..(r + 1) * m];
        for i in 0..n {
            let av = a[i * lda + r];
            let g_row = &g[i * m..(i + 1) * m];
            for (o, &gv) in out_row.iter_mut().zip(g_row) {
                *o += av * gv;
            }
        }
    }
}
