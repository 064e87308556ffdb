//! Multivariate time-series containers and ground-truth labels.
/// A multivariate time series: `len` timestamps × `dims` modes, stored
/// row-major (timestamp-major).
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    data: Vec<f64>,
    len: usize,
    dims: usize,
}

impl TimeSeries {
    /// Creates a series from row-major data.
    pub fn from_rows(data: Vec<f64>, len: usize, dims: usize) -> Self {
        assert_eq!(data.len(), len * dims, "data size mismatch");
        TimeSeries { data, len, dims }
    }

    /// Builds a series from per-dimension column vectors.
    pub fn from_columns(columns: &[Vec<f64>]) -> Self {
        assert!(!columns.is_empty(), "need at least one column");
        let len = columns[0].len();
        let dims = columns.len();
        let mut data = vec![0.0; len * dims];
        for (d, col) in columns.iter().enumerate() {
            assert_eq!(col.len(), len, "ragged columns");
            for (t, &v) in col.iter().enumerate() {
                data[t * dims + d] = v;
            }
        }
        TimeSeries { data, len, dims }
    }

    /// Number of timestamps.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the series has no timestamps.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of modes (dimensions).
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The datapoint at timestamp `t` (a slice of `dims` values).
    pub fn row(&self, t: usize) -> &[f64] {
        &self.data[t * self.dims..(t + 1) * self.dims]
    }

    /// Mutable datapoint at timestamp `t`.
    pub(crate) fn row_mut(&mut self, t: usize) -> &mut [f64] {
        &mut self.data[t * self.dims..(t + 1) * self.dims]
    }

    /// One value.
    pub fn get(&self, t: usize, d: usize) -> f64 {
        self.data[t * self.dims + d]
    }

    /// Sets one value.
    pub fn set(&mut self, t: usize, d: usize, v: f64) {
        self.data[t * self.dims + d] = v;
    }

    /// Copies out one dimension as a column vector.
    pub fn column(&self, d: usize) -> Vec<f64> {
        (0..self.len).map(|t| self.get(t, d)).collect()
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// The sub-series of timestamps `[start, end)`.
    pub(crate) fn slice(&self, start: usize, end: usize) -> TimeSeries {
        assert!(start <= end && end <= self.len, "slice out of range");
        TimeSeries {
            data: self.data[start * self.dims..end * self.dims].to_vec(),
            len: end - start,
            dims: self.dims,
        }
    }

    /// Per-dimension minimum over time.
    pub(crate) fn min_per_dim(&self) -> Vec<f64> {
        let mut mins = vec![f64::INFINITY; self.dims];
        for t in 0..self.len {
            for (m, &v) in mins.iter_mut().zip(self.row(t)) {
                *m = m.min(v);
            }
        }
        mins
    }

    /// Per-dimension maximum over time.
    pub(crate) fn max_per_dim(&self) -> Vec<f64> {
        let mut maxs = vec![f64::NEG_INFINITY; self.dims];
        for t in 0..self.len {
            for (m, &v) in maxs.iter_mut().zip(self.row(t)) {
                *m = m.max(v);
            }
        }
        maxs
    }
}

/// Ground-truth anomaly labels: per-timestamp and per-dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Labels {
    /// Per-dimension labels, row-major `[len * dims]`.
    per_dim: Vec<bool>,
    len: usize,
    dims: usize,
}

impl Labels {
    /// All-normal labels.
    pub(crate) fn normal(len: usize, dims: usize) -> Self {
        Labels {
            per_dim: vec![false; len * dims],
            len,
            dims,
        }
    }

    /// Number of timestamps.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of dimensions.
    pub(crate) fn dims(&self) -> usize {
        self.dims
    }

    /// Marks dimension `d` anomalous over `[start, end)`.
    pub(crate) fn mark(&mut self, start: usize, end: usize, d: usize) {
        for t in start..end.min(self.len) {
            self.per_dim[t * self.dims + d] = true;
        }
    }

    /// Per-dimension label at `(t, d)`.
    pub fn at(&self, t: usize, d: usize) -> bool {
        self.per_dim[t * self.dims + d]
    }

    /// Timestamp label: true if *any* dimension is anomalous at `t`.
    pub(crate) fn point(&self, t: usize) -> bool {
        self.per_dim[t * self.dims..(t + 1) * self.dims]
            .iter()
            .any(|&b| b)
    }

    /// Per-timestamp label vector.
    pub(crate) fn point_labels(&self) -> Vec<bool> {
        (0..self.len).map(|t| self.point(t)).collect()
    }

    /// Per-dimension labels at timestamp `t`.
    pub fn dim_labels(&self, t: usize) -> Vec<bool> {
        self.per_dim[t * self.dims..(t + 1) * self.dims].to_vec()
    }

    /// Fraction of anomalous timestamps.
    pub fn anomaly_rate(&self) -> f64 {
        let anom = (0..self.len).filter(|&t| self.point(t)).count();
        anom as f64 / self.len.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_columns_layout() {
        let ts = TimeSeries::from_columns(&[vec![1.0, 2.0], vec![10.0, 20.0]]);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.dims(), 2);
        assert_eq!(ts.row(0), &[1.0, 10.0]);
        assert_eq!(ts.row(1), &[2.0, 20.0]);
        assert_eq!(ts.column(1), vec![10.0, 20.0]);
    }

    #[test]
    fn slice_preserves_dims() {
        let ts = TimeSeries::from_rows((0..12).map(|v| v as f64).collect(), 4, 3);
        let s = ts.slice(1, 3);
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(0), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn min_max_per_dim() {
        let ts = TimeSeries::from_columns(&[vec![1.0, -2.0, 5.0], vec![0.0, 3.0, 1.0]]);
        assert_eq!(ts.min_per_dim(), vec![-2.0, 0.0]);
        assert_eq!(ts.max_per_dim(), vec![5.0, 3.0]);
    }

    #[test]
    fn labels_mark_and_point() {
        let mut labels = Labels::normal(5, 2);
        labels.mark(1, 3, 1);
        assert!(!labels.point(0));
        assert!(labels.point(1));
        assert!(labels.point(2));
        assert!(!labels.point(3));
        assert!(labels.at(1, 1));
        assert!(!labels.at(1, 0));
        assert_eq!(labels.anomaly_rate(), 0.4);
    }

    #[test]
    fn labels_mark_clamps_to_len() {
        let mut labels = Labels::normal(3, 1);
        labels.mark(2, 100, 0);
        assert!(labels.point(2));
        assert_eq!(labels.len(), 3);
    }
}
