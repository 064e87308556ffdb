//! Data preprocessing (paper §3.2): min-max normalization fitted on the
//! training series, and sliding windows with replication padding.

use crate::series::TimeSeries;
use std::borrow::Cow;
use tranad_tensor::Tensor;

/// Min-max normalizer fitted per dimension on the training series
/// (Eq. 1: `x ← (x - min) / (max - min + ε)`).
#[derive(Debug, Clone)]
pub struct Normalizer {
    mins: Vec<f64>,
    ranges: Vec<f64>, // max - min + eps
}

/// Small constant preventing zero division in Eq. 1.
const EPS: f64 = 1e-4;

impl Normalizer {
    /// Fits the per-dimension ranges on `train`.
    pub fn fit(train: &TimeSeries) -> Normalizer {
        let mins = train.min_per_dim();
        let maxs = train.max_per_dim();
        let ranges = mins
            .iter()
            .zip(&maxs)
            .map(|(&lo, &hi)| hi - lo + EPS)
            .collect();
        Normalizer { mins, ranges }
    }

    /// Applies the fitted transform. Values outside the training range are
    /// clamped to `[-0.5, 1.5]` to keep extreme test anomalies finite while
    /// still letting them stand out from the nominal `[0, 1)` band.
    pub fn transform(&self, series: &TimeSeries) -> TimeSeries {
        assert_eq!(series.dims(), self.mins.len(), "dimension mismatch");
        let mut out = series.clone();
        for t in 0..out.len() {
            let row = out.row_mut(t);
            for ((v, &lo), &range) in row.iter_mut().zip(&self.mins).zip(&self.ranges) {
                *v = ((*v - lo) / range).clamp(-0.5, 1.5);
            }
        }
        out
    }

    /// Applies the fitted transform to one raw row, writing into `dst` —
    /// the allocation-free single-point path the serving layer runs per
    /// streamed datapoint. Element-for-element the same arithmetic as
    /// [`Normalizer::transform`], so streaming and batch scores agree
    /// bitwise.
    pub fn transform_row_into(&self, row: &[f64], dst: &mut [f64]) {
        assert_eq!(row.len(), self.mins.len(), "dimension mismatch");
        assert_eq!(row.len(), dst.len(), "destination width mismatch");
        for (((o, &v), &lo), &range) in dst.iter_mut().zip(row).zip(&self.mins).zip(&self.ranges) {
            *o = ((v - lo) / range).clamp(-0.5, 1.5);
        }
    }

    /// Exports the fitted state `(mins, ranges)` for persistence.
    pub fn to_parts(&self) -> (Vec<f64>, Vec<f64>) {
        (self.mins.clone(), self.ranges.clone())
    }

    /// Rebuilds a normalizer from persisted state.
    pub fn from_parts(mins: Vec<f64>, ranges: Vec<f64>) -> Normalizer {
        assert_eq!(mins.len(), ranges.len(), "mins/ranges length mismatch");
        assert!(ranges.iter().all(|&r| r > 0.0), "ranges must be positive");
        Normalizer { mins, ranges }
    }
}

/// Sliding windows over a series with replication padding for `t < K`
/// (paper §3.2). Window `t` covers timestamps `t-K+1 ..= t`; positions
/// before the start of the series are filled with the first datapoint, as
/// in the reference implementation.
///
/// The series is held as a `Cow`: [`Windows::new`] takes ownership, while
/// [`Windows::borrowed`] wraps a reference so scoring paths never copy the
/// full series just to slide a window over it.
#[derive(Debug, Clone)]
pub struct Windows<'a> {
    series: Cow<'a, TimeSeries>,
    k: usize,
}

impl Windows<'static> {
    /// Creates windows of length `k`, taking ownership of `series`.
    pub fn new(series: TimeSeries, k: usize) -> Windows<'static> {
        Windows::from_cow(Cow::Owned(series), k)
    }
}

impl<'a> Windows<'a> {
    /// Creates windows of length `k` over a borrowed series (no copy).
    pub fn borrowed(series: &'a TimeSeries, k: usize) -> Windows<'a> {
        Windows::from_cow(Cow::Borrowed(series), k)
    }

    fn from_cow(series: Cow<'a, TimeSeries>, k: usize) -> Windows<'a> {
        assert!(k >= 1, "window length must be positive");
        assert!(!series.is_empty(), "cannot window an empty series");
        Windows { series, k }
    }

    /// Number of windows (= series length).
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True if there are no windows.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Number of modes.
    pub fn dims(&self) -> usize {
        self.series.dims()
    }

    /// The underlying series.
    pub fn series(&self) -> &TimeSeries {
        self.series.as_ref()
    }

    /// Copies the `len` timestamps ending at `t` (replication-padded) into
    /// `dst`, which must hold exactly `len * dims` elements.
    fn fill(&self, t: usize, len: usize, dst: &mut [f64]) {
        let m = self.series.dims();
        debug_assert_eq!(dst.len(), len * m);
        for (offset, row) in dst.chunks_exact_mut(m).enumerate() {
            let pos = (t + offset + 1).checked_sub(len);
            row.copy_from_slice(self.series.row(pos.unwrap_or(0)));
        }
    }

    /// Window at timestamp `t` as a `[k, dims]` tensor.
    pub fn window(&self, t: usize) -> Tensor {
        let m = self.series.dims();
        let mut out = Tensor::zeros([self.k, m]);
        self.fill(t, self.k, out.data_mut());
        out
    }

    /// A batch of windows `[batch, k, dims]` for the given timestamps.
    pub fn batch(&self, ts: &[usize]) -> Tensor {
        let m = self.series.dims();
        let stride = self.k * m;
        let mut out = Tensor::zeros([ts.len(), self.k, m]);
        let data = out.data_mut();
        for (&t, plane) in ts.iter().zip(data.chunks_exact_mut(stride)) {
            self.fill(t, self.k, plane);
        }
        out
    }

    /// A batch of windows for the contiguous timestamp range `start..end` —
    /// equivalent to `batch(&[start, start+1, ..])` without materializing
    /// the index list. Shape `[end - start, k, dims]`.
    pub fn batch_range(&self, start: usize, end: usize) -> Tensor {
        let m = self.series.dims();
        let stride = self.k * m;
        let mut out = Tensor::zeros([end - start, self.k, m]);
        let data = out.data_mut();
        for (t, plane) in (start..end).zip(data.chunks_exact_mut(stride)) {
            self.fill(t, self.k, plane);
        }
        out
    }

    /// The context slice `C_t`: the last `max_context` timestamps up to and
    /// including `t`, replication-padded at the start like windows. Shape
    /// `[max_context, dims]`.
    pub fn context(&self, t: usize, max_context: usize) -> Tensor {
        let m = self.series.dims();
        let mut out = Tensor::zeros([max_context, m]);
        self.fill(t, max_context, out.data_mut());
        out
    }

    /// A batch of contexts `[batch, max_context, dims]`.
    pub fn context_batch(&self, ts: &[usize], max_context: usize) -> Tensor {
        let m = self.series.dims();
        let stride = max_context * m;
        let mut out = Tensor::zeros([ts.len(), max_context, m]);
        let data = out.data_mut();
        for (&t, plane) in ts.iter().zip(data.chunks_exact_mut(stride)) {
            self.fill(t, max_context, plane);
        }
        out
    }

    /// A batch of contexts for the contiguous timestamp range `start..end`.
    /// Shape `[end - start, max_context, dims]`.
    pub fn context_batch_range(&self, start: usize, end: usize, max_context: usize) -> Tensor {
        let m = self.series.dims();
        let stride = max_context * m;
        let mut out = Tensor::zeros([end - start, max_context, m]);
        let data = out.data_mut();
        for (t, plane) in (start..end).zip(data.chunks_exact_mut(stride)) {
            self.fill(t, max_context, plane);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series_1d(values: &[f64]) -> TimeSeries {
        TimeSeries::from_columns(&[values.to_vec()])
    }

    #[test]
    fn normalizer_maps_train_to_unit_interval() {
        let train = series_1d(&[2.0, 4.0, 6.0]);
        let norm = Normalizer::fit(&train);
        let out = norm.transform(&train);
        assert!(out.data().iter().all(|&v| (0.0..1.0).contains(&v)));
        assert!((out.get(0, 0) - 0.0).abs() < 1e-9);
        assert!(out.get(2, 0) < 1.0 && out.get(2, 0) > 0.99);
    }

    #[test]
    fn normalizer_clamps_extreme_test_values() {
        let train = series_1d(&[0.0, 1.0]);
        let norm = Normalizer::fit(&train);
        let test = series_1d(&[1000.0, -1000.0]);
        let out = norm.transform(&test);
        assert_eq!(out.get(0, 0), 1.5);
        assert_eq!(out.get(1, 0), -0.5);
    }

    #[test]
    fn normalizer_constant_dimension() {
        let train = series_1d(&[3.0, 3.0, 3.0]);
        let norm = Normalizer::fit(&train);
        let out = norm.transform(&train);
        assert!(out.data().iter().all(|v| v.is_finite()));
        assert!(out.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn window_full_history() {
        let ws = Windows::new(series_1d(&[1.0, 2.0, 3.0, 4.0]), 3);
        let w = ws.window(3);
        assert_eq!(w.data(), &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn window_replication_padding() {
        let ws = Windows::new(series_1d(&[10.0, 20.0, 30.0]), 3);
        // t=0: two pad copies of x_0 + x_0
        assert_eq!(ws.window(0).data(), &[10.0, 10.0, 10.0]);
        // t=1: one pad copy + x_0, x_1
        assert_eq!(ws.window(1).data(), &[10.0, 10.0, 20.0]);
    }

    #[test]
    fn window_multivariate_shape() {
        let ts = TimeSeries::from_columns(&[vec![1.0, 2.0], vec![5.0, 6.0]]);
        let ws = Windows::new(ts, 2);
        let w = ws.window(1);
        assert_eq!(w.shape().dims(), &[2, 2]);
        assert_eq!(w.data(), &[1.0, 5.0, 2.0, 6.0]);
    }

    #[test]
    fn batch_stacks_windows() {
        let ws = Windows::new(series_1d(&[1.0, 2.0, 3.0, 4.0]), 2);
        let b = ws.batch(&[1, 3]);
        assert_eq!(b.shape().dims(), &[2, 2, 1]);
        assert_eq!(b.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn context_longer_than_window() {
        let ws = Windows::new(series_1d(&[1.0, 2.0, 3.0, 4.0, 5.0]), 2);
        let c = ws.context(4, 4);
        assert_eq!(c.data(), &[2.0, 3.0, 4.0, 5.0]);
        let c0 = ws.context(0, 4);
        assert_eq!(c0.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn windows_cover_every_timestamp() {
        let ws = Windows::new(series_1d(&[1.0; 17]), 5);
        assert_eq!(ws.len(), 17);
        for t in 0..17 {
            assert_eq!(ws.window(t).shape().dims(), &[5, 1]);
        }
    }

    #[test]
    fn borrowed_windows_match_owned() {
        let series = series_1d(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let owned = Windows::new(series.clone(), 3);
        let borrowed = Windows::borrowed(&series, 3);
        for t in 0..series.len() {
            assert_eq!(owned.window(t).data(), borrowed.window(t).data());
            assert_eq!(
                owned.context(t, 4).data(),
                borrowed.context(t, 4).data()
            );
        }
        assert_eq!(
            owned.batch(&[0, 2, 4]).data(),
            borrowed.batch(&[0, 2, 4]).data()
        );
    }

    #[test]
    fn range_batches_match_index_batches() {
        let ts = TimeSeries::from_columns(&[vec![1.0, 2.0, 3.0, 4.0, 5.0], vec![6.0, 7.0, 8.0, 9.0, 10.0]]);
        let ws = Windows::new(ts, 3);
        let idx: Vec<usize> = (1..4).collect();
        let by_range = ws.batch_range(1, 4);
        let by_index = ws.batch(&idx);
        assert_eq!(by_range.shape().dims(), by_index.shape().dims());
        assert_eq!(by_range.data(), by_index.data());
        let c_range = ws.context_batch_range(1, 4, 4);
        let c_index = ws.context_batch(&idx, 4);
        assert_eq!(c_range.shape().dims(), c_index.shape().dims());
        assert_eq!(c_range.data(), c_index.data());
        assert_eq!(ws.batch_range(2, 2).shape().dims(), &[0, 3, 2]);
    }

    #[test]
    fn transform_row_into_matches_series_transform_bitwise() {
        let train = TimeSeries::from_columns(&[vec![0.0, 2.0, 4.0], vec![-1.0, 1.0, 3.0]]);
        let norm = Normalizer::fit(&train);
        // Includes values outside the training range to cover the clamp.
        let test = TimeSeries::from_rows(vec![1.0, 0.5, -9.0, 2.0, 7.0, -3.0], 3, 2);
        let expected = norm.transform(&test);
        let mut dst = [0.0; 2];
        for t in 0..test.len() {
            norm.transform_row_into(test.row(t), &mut dst);
            for (d, (&a, &b)) in dst.iter().zip(expected.row(t)).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "t={t} dim {d}");
            }
        }
    }
}
