//! Shared, cheaply-cloneable tensor storage with copy-on-write.
//!
//! A [`Buf`] is a handle to an `Arc<Vec<f64>>`. Cloning a buffer (and hence
//! a [`crate::Tensor`]) is one atomic increment — reshapes, tape snapshots,
//! optimizer state and gradient hand-offs all share storage instead of
//! copying it. Mutation goes through [`Buf::make_mut`], which copies the
//! data first if (and only if) another handle is alive, so sharing is never
//! observable: a `Tensor` still behaves like a value.
//!
//! Dropping the last handle does not free the buffer: the whole `Arc` is
//! parked in the thread-local [`crate::bufpool`] and handed to the next
//! same-sized allocation, which is what makes steady-state training steps
//! allocation-free.
//!
//! `Arc` (not `Rc`) is deliberate: scoring fans whole forward passes out
//! across the thread pool, whose closures capture `&ParamStore` / `&Tensor`
//! and therefore require `Sync` storage. The cost difference (atomic vs
//! plain counter bump) is noise next to the copies this removes.

use crate::bufpool;
use std::mem::ManuallyDrop;
use std::ops::Deref;
use std::sync::Arc;

/// Shared tensor storage: a pooled, copy-on-write `f64` buffer.
pub(crate) struct Buf {
    // ManuallyDrop so `drop` can move the Arc out and recycle it.
    arc: ManuallyDrop<Arc<Vec<f64>>>,
}

impl Buf {
    /// Wraps caller-provided data (not pooled until it is later freed).
    pub(crate) fn from_vec(v: Vec<f64>) -> Self {
        Buf {
            arc: ManuallyDrop::new(Arc::new(v)),
        }
    }

    /// A pooled buffer of length `n` holding stale-but-initialized values;
    /// the caller must overwrite every element it exposes.
    pub(crate) fn uninit(n: usize) -> Self {
        Buf {
            arc: ManuallyDrop::new(bufpool::take(n)),
        }
    }

    /// A pooled all-zero buffer of length `n`.
    pub(crate) fn zeroed(n: usize) -> Self {
        Buf {
            arc: ManuallyDrop::new(bufpool::take_zeroed(n)),
        }
    }

    /// A pooled copy of `src`.
    pub(crate) fn copy_of(src: &[f64]) -> Self {
        let mut b = Buf::uninit(src.len());
        b.make_mut().copy_from_slice(src);
        b
    }

    /// The elements.
    pub(crate) fn as_slice(&self) -> &[f64] {
        self.arc.as_slice()
    }

    /// Mutable access, copying first if the storage is shared. After this
    /// call the buffer is uniquely owned.
    pub(crate) fn make_mut(&mut self) -> &mut [f64] {
        if Arc::get_mut(&mut self.arc).is_none() {
            *self = Buf::copy_of(self.as_slice());
        }
        Arc::get_mut(&mut self.arc)
            .expect("unique after copy-on-write")
            .as_mut_slice()
    }

    /// True if this handle is the only owner of the allocation, i.e. a
    /// `make_mut` would write in place without copying. Takes `&mut self` so
    /// the answer cannot be invalidated by a concurrent clone of this handle.
    pub(crate) fn is_unique(&mut self) -> bool {
        Arc::get_mut(&mut self.arc).is_some()
    }

    /// True if both handles share one allocation (diagnostics / tests).
    pub(crate) fn ptr_eq(&self, other: &Buf) -> bool {
        Arc::ptr_eq(&self.arc, &other.arc)
    }
}

impl Clone for Buf {
    fn clone(&self) -> Self {
        Buf {
            arc: ManuallyDrop::new(Arc::clone(&self.arc)),
        }
    }
}

impl Drop for Buf {
    fn drop(&mut self) {
        // SAFETY: drop runs at most once; `self.arc` is not used afterwards.
        let arc = unsafe { ManuallyDrop::take(&mut self.arc) };
        if Arc::strong_count(&arc) == 1 {
            bufpool::recycle(arc);
        }
    }
}

impl Deref for Buf {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        self.as_slice()
    }
}

impl PartialEq for Buf {
    fn eq(&self, other: &Self) -> bool {
        self.ptr_eq(other) || self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_storage() {
        let a = Buf::from_vec(vec![1.0, 2.0]);
        let b = a.clone();
        assert!(a.ptr_eq(&b));
        assert_eq!(b.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn make_mut_copies_when_shared() {
        let mut a = Buf::from_vec(vec![1.0, 2.0]);
        let b = a.clone();
        a.make_mut()[0] = 9.0;
        assert!(!a.ptr_eq(&b), "write must detach shared storage");
        assert_eq!(a.as_slice(), &[9.0, 2.0]);
        assert_eq!(b.as_slice(), &[1.0, 2.0], "other handle unaffected");
    }

    #[test]
    fn make_mut_in_place_when_unique() {
        let mut a = Buf::from_vec(vec![1.0, 2.0]);
        let ptr = a.as_slice().as_ptr();
        a.make_mut()[1] = 5.0;
        assert_eq!(a.as_slice().as_ptr(), ptr, "unique write must not copy");
    }

    #[test]
    fn drop_recycles_unique_buffers() {
        bufpool::clear();
        let a = Buf::uninit(300);
        let ptr = a.as_slice().as_ptr();
        drop(a);
        let b = Buf::uninit(257); // same power-of-two class as 300
        assert_eq!(b.as_slice().as_ptr(), ptr);
    }

    #[test]
    fn shared_drop_does_not_recycle() {
        bufpool::clear();
        let a = Buf::uninit(4000);
        let b = a.clone();
        let ptr = a.as_slice().as_ptr();
        drop(a); // b still alive — must not enter the pool
        let c = Buf::uninit(4000);
        assert_ne!(c.as_slice().as_ptr(), ptr);
        assert_eq!(b.len(), 4000);
    }
}
