//! Shape and stride arithmetic for dense row-major tensors.
//!
//! Shapes are stored inline (`[usize; MAX_RANK]` + a rank) so they are
//! `Copy` and shape bookkeeping never touches the allocator — every tensor
//! op clones a shape, and with `Vec`-backed shapes those clones dominated
//! the small-allocation count.

use std::fmt;
use std::hash::{Hash, Hasher};

/// Maximum tensor rank. The TranAD stack needs at most 3 (`[batch, time,
/// feature]`); 4 leaves headroom without bloating every tensor.
pub const MAX_RANK: usize = 4;

/// The shape of a tensor: a list of dimension extents, outermost first.
///
/// Rank-0 (scalar) tensors are represented by an empty dimension list and
/// hold exactly one element.
#[derive(Clone, Copy, Eq)]
pub struct Shape {
    dims: [usize; MAX_RANK],
    rank: u8,
}

impl Shape {
    /// Creates a shape from dimension extents (panics above [`MAX_RANK`]).
    pub fn new(dims: impl Into<Shape>) -> Self {
        dims.into()
    }

    /// The scalar (rank-0) shape.
    pub(crate) fn scalar() -> Self {
        Shape {
            dims: [0; MAX_RANK],
            rank: 0,
        }
    }

    fn from_dims(d: &[usize]) -> Self {
        assert!(
            d.len() <= MAX_RANK,
            "rank {} exceeds MAX_RANK {MAX_RANK}",
            d.len()
        );
        let mut dims = [0; MAX_RANK];
        dims[..d.len()].copy_from_slice(d);
        Shape {
            dims,
            rank: d.len() as u8,
        }
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.rank as usize
    }

    /// Dimension extents, outermost first.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank as usize]
    }

    /// Extent of dimension `i` (panics if out of range).
    pub fn dim(&self, i: usize) -> usize {
        self.dims()[i]
    }

    /// Total number of elements.
    pub(crate) fn numel(&self) -> usize {
        self.dims().iter().product()
    }

    /// Extent of the last dimension; 1 for scalars.
    pub fn last_dim(&self) -> usize {
        self.dims().last().copied().unwrap_or(1)
    }

    /// This shape with the last dimension replaced by `m` (rank >= 1).
    pub(crate) fn with_last_dim(mut self, m: usize) -> Shape {
        assert!(self.rank > 0, "with_last_dim on scalar shape");
        self.dims[self.rank as usize - 1] = m;
        self
    }

    /// Row-major strides (in elements); entries past the rank are unused.
    pub(crate) fn strides(&self) -> [usize; MAX_RANK] {
        let mut strides = [0; MAX_RANK];
        let mut acc = 1;
        for i in (0..self.rank as usize).rev() {
            strides[i] = acc;
            acc *= self.dims[i];
        }
        strides
    }

    /// Shape with the last two dimensions swapped (requires rank >= 2).
    pub(crate) fn transposed(&self) -> Shape {
        assert!(self.rank() >= 2, "transpose requires rank >= 2, got {self}");
        let mut s = *self;
        s.dims.swap(self.rank as usize - 1, self.rank as usize - 2);
        s
    }

    /// Returns the shape that `self` and `other` broadcast to, following
    /// NumPy rules (align trailing dimensions; each pair must be equal or
    /// one of them 1). Returns `None` if incompatible.
    pub(crate) fn broadcast_with(&self, other: &Shape) -> Option<Shape> {
        let rank = self.rank().max(other.rank());
        let mut out = [0; MAX_RANK];
        for i in 0..rank {
            let a = dim_from_end(self.dims(), i);
            let b = dim_from_end(other.dims(), i);
            out[rank - 1 - i] = match (a, b) {
                (a, b) if a == b => a,
                (1, b) => b,
                (a, 1) => a,
                _ => return None,
            };
        }
        Some(Shape {
            dims: out,
            rank: rank as u8,
        })
    }

    /// True if `self` can broadcast to exactly `target`.
    pub(crate) fn broadcasts_to(&self, target: &Shape) -> bool {
        if self.rank() > target.rank() {
            return false;
        }
        (0..target.rank()).all(|i| {
            let a = dim_from_end(self.dims(), i);
            let t = dim_from_end(target.dims(), i);
            a == t || a == 1
        })
    }
}

fn dim_from_end(dims: &[usize], i: usize) -> usize {
    if i < dims.len() {
        dims[dims.len() - 1 - i]
    } else {
        1
    }
}

impl PartialEq for Shape {
    fn eq(&self, other: &Self) -> bool {
        self.dims() == other.dims()
    }
}

impl Hash for Shape {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.dims().hash(state);
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.dims())
    }
}

impl From<Vec<usize>> for Shape {
    fn from(v: Vec<usize>) -> Self {
        Shape::from_dims(&v)
    }
}

impl From<&[usize]> for Shape {
    fn from(v: &[usize]) -> Self {
        Shape::from_dims(v)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(v: [usize; N]) -> Self {
        Shape::from_dims(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_rank() {
        let s = Shape::new([2, 3, 4]);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.last_dim(), 4);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.last_dim(), 1);
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::new([2, 3, 4]);
        assert_eq!(&s.strides()[..3], &[12, 4, 1]);
    }

    #[test]
    fn transpose_swaps_last_two() {
        let s = Shape::new([5, 2, 3]);
        assert_eq!(s.transposed().dims(), &[5, 3, 2]);
    }

    #[test]
    #[should_panic(expected = "transpose requires rank >= 2")]
    fn transpose_rank1_panics() {
        Shape::new([5]).transposed();
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_RANK")]
    fn over_max_rank_panics() {
        Shape::new([2, 2, 2, 2, 2]);
    }

    #[test]
    fn with_last_dim_replaces() {
        let s = Shape::new([4, 7]).with_last_dim(3);
        assert_eq!(s.dims(), &[4, 3]);
    }

    #[test]
    fn eq_ignores_unused_slots() {
        let a = Shape::new([2, 3]);
        let b = Shape::new(vec![2, 3]);
        assert_eq!(a, b);
        assert_ne!(a, Shape::new([2, 3, 1]));
    }

    #[test]
    fn broadcast_equal_shapes() {
        let a = Shape::new([2, 3]);
        assert_eq!(a.broadcast_with(&a).unwrap(), a);
    }

    #[test]
    fn broadcast_prefix_padding() {
        let a = Shape::new([4, 2, 3]);
        let b = Shape::new([3]);
        assert_eq!(a.broadcast_with(&b).unwrap().dims(), &[4, 2, 3]);
        assert!(b.broadcasts_to(&a));
        assert!(!a.broadcasts_to(&b));
    }

    #[test]
    fn broadcast_ones_expand() {
        let a = Shape::new([4, 1, 3]);
        let b = Shape::new([1, 2, 1]);
        assert_eq!(a.broadcast_with(&b).unwrap().dims(), &[4, 2, 3]);
    }

    #[test]
    fn broadcast_incompatible() {
        let a = Shape::new([4, 2]);
        let b = Shape::new([3, 2]);
        assert!(a.broadcast_with(&b).is_none());
    }

    #[test]
    fn broadcast_with_scalar() {
        let a = Shape::new([4, 2]);
        let s = Shape::scalar();
        assert_eq!(a.broadcast_with(&s).unwrap(), a);
        assert!(s.broadcasts_to(&a));
    }
}
