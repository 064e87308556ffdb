//! Step-scoped buffer pool: recycles freed tensor storage across training
//! steps so the hot path stops hitting the system allocator.
//!
//! Every tensor buffer is an `Arc<Vec<f64>>` (see `crate::buf::Buf`). When
//! the last handle to a buffer drops, the whole `Arc` — control block and
//! data — is parked here instead of being freed; the next tensor of a
//! similar size reuses it. Because training repeats the same op sequence
//! every step, the pool reaches a fixed point after the first step and
//! subsequent steps allocate (almost) nothing.
//!
//! Pools are thread-local: the autograd tape is single-threaded per step,
//! and the worker threads of [`crate::pool`] that build whole tensors (e.g.
//! per-chunk scoring) each keep their own free lists, so no locking is
//! needed and recycling order is deterministic.
//!
//! Buffers are bucketed by power-of-two capacity class: a request for `n`
//! elements is served from class `ceil(log2 n)`, and a freed buffer of
//! capacity `c` is filed under class `floor(log2 c)`, so anything popped
//! from class `k` is guaranteed to hold `2^k` elements without
//! reallocating. Fresh buffers are allocated with capacity rounded up to
//! the class size so they re-enter their own class when freed.
//!
//! Safety note: pooled buffers keep their previous (initialized) contents.
//! `take` therefore hands out *stale but initialized* memory — callers
//! must overwrite every element (or use a zeroing wrapper). No
//! never-written memory is ever exposed.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Number of capacity classes; class `k` holds buffers of capacity
/// `[2^k, 2^(k+1))`. Class 27 tops out at 1 GiB of `f64`s — anything bigger
/// is freed normally.
const CLASSES: usize = 28;

/// Maximum buffers retained per class; excess frees fall through to the
/// system allocator. A training step frees its whole tape at once — several
/// hundred buffers landing in the same class — so this must absorb a full
/// step's tape. Retention is bounded by the step's own peak live set: the
/// pool can only hold what was simultaneously allocated before being freed.
const PER_CLASS: usize = 4096;

/// Allocation-pool counters for one thread (see [`stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `take` calls served from the pool.
    pub hits: u64,
    /// `take` calls that fell through to a fresh allocation.
    pub misses: u64,
    /// Freed buffers parked for reuse.
    pub recycled: u64,
    /// Freed buffers dropped (class full or oversized).
    pub dropped: u64,
    /// Bytes of storage parked for reuse (capacity, not length).
    pub bytes_recycled: u64,
    /// Bytes of pool-served storage currently checked out (taken and not
    /// yet returned). Buffers created outside `take` are invisible to
    /// this, so it is a lower bound; arithmetic saturates at zero.
    pub live_bytes: u64,
    /// High watermark of [`PoolStats::live_bytes`] since the thread
    /// started — the peak working set as seen by the pool.
    pub hwm_bytes: u64,
}

struct Pool {
    classes: Vec<Vec<Arc<Vec<f64>>>>,
    stats: PoolStats,
}

impl Pool {
    fn new() -> Self {
        Pool {
            classes: (0..CLASSES).map(|_| Vec::new()).collect(),
            stats: PoolStats::default(),
        }
    }
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::new());
}

/// Global recycling switch (all threads). Disabled pools allocate fresh and
/// free normally — used to measure the pool's effect (`bench-alloc`).
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns buffer recycling on or off process-wide. Disabling does not free
/// already-pooled buffers; call [`clear`] per thread for that.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Capacity class that guarantees room for `n` elements.
fn class_for(n: usize) -> usize {
    n.max(1).next_power_of_two().trailing_zeros() as usize
}

/// Takes a unique buffer of length `n`. Contents are stale-but-initialized
/// values from a previous use (or zeros where the buffer grew); the caller
/// must overwrite every element it reads.
pub(crate) fn take(n: usize) -> Arc<Vec<f64>> {
    let class = class_for(n);
    let mut arc = POOL.with(|p| {
        let mut p = p.borrow_mut();
        let arc = match p
            .classes
            .get_mut(class)
            .filter(|_| enabled())
            .and_then(Vec::pop)
        {
            Some(a) => {
                p.stats.hits += 1;
                a
            }
            None => {
                p.stats.misses += 1;
                Arc::new(Vec::with_capacity(1usize << class))
            }
        };
        p.stats.live_bytes += (arc.capacity() * std::mem::size_of::<f64>()) as u64;
        if p.stats.live_bytes > p.stats.hwm_bytes {
            p.stats.hwm_bytes = p.stats.live_bytes;
        }
        arc
    });
    let v = Arc::get_mut(&mut arc).expect("pooled buffer is uniquely owned");
    if v.len() < n {
        v.resize(n, 0.0); // grows within capacity — no reallocation
    } else {
        v.truncate(n);
    }
    arc
}

/// Takes a unique all-zero buffer of length `n`.
pub(crate) fn take_zeroed(n: usize) -> Arc<Vec<f64>> {
    let mut arc = take(n);
    Arc::get_mut(&mut arc)
        .expect("pooled buffer is uniquely owned")
        .fill(0.0);
    arc
}

/// Returns a buffer to the pool. The caller must hold the only strong
/// reference (checked); buffers that are oversized or whose class is full
/// are freed normally.
pub(crate) fn recycle(arc: Arc<Vec<f64>>) {
    debug_assert_eq!(Arc::strong_count(&arc), 1, "recycling a shared buffer");
    let cap = arc.capacity();
    if cap == 0 {
        return;
    }
    let class = cap.ilog2() as usize;
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        let bytes = (cap * std::mem::size_of::<f64>()) as u64;
        p.stats.live_bytes = p.stats.live_bytes.saturating_sub(bytes);
        if enabled() && class < CLASSES && p.classes[class].len() < PER_CLASS {
            p.stats.recycled += 1;
            p.stats.bytes_recycled += bytes;
            p.classes[class].push(arc);
        } else {
            p.stats.dropped += 1;
        }
    });
}

/// This thread's pool counters since the thread started.
pub fn stats() -> PoolStats {
    POOL.with(|p| p.borrow().stats)
}

/// Zeroes this thread's pool counters (buffers stay pooled).
#[cfg(test)]
fn reset_stats() {
    POOL.with(|p| p.borrow_mut().stats = PoolStats::default());
}

/// This thread's peak checked-out pool storage in bytes since the thread
/// started (see [`PoolStats::hwm_bytes`]). Cheap enough to read
/// per step for a memory gauge.
pub fn high_watermark_bytes() -> u64 {
    POOL.with(|p| p.borrow().stats.hwm_bytes)
}

/// Emits this thread's buffer-pool counters as a `pool.buffers` event on
/// [`tranad_telemetry::current`] (no-op when it is disabled).
pub fn record_stats() {
    let rec = tranad_telemetry::current();
    if !rec.enabled() {
        return;
    }
    let s = stats();
    rec.emit("pool.buffers", |e| {
        e.u64("hits", s.hits)
            .u64("misses", s.misses)
            .u64("recycled", s.recycled)
            .u64("dropped", s.dropped)
            .u64("bytes_recycled", s.bytes_recycled)
            .u64("live_bytes", s.live_bytes)
            .u64("hwm_bytes", s.hwm_bytes);
    });
}

/// Frees every pooled buffer on this thread (counters stay).
pub fn clear() {
    POOL.with(|p| {
        for class in &mut p.borrow_mut().classes {
            class.clear();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_requested_length() {
        clear();
        for n in [0, 1, 2, 3, 7, 8, 9, 100, 1000] {
            let a = take(n);
            assert_eq!(a.len(), n);
            assert!(a.capacity() >= n);
        }
    }

    #[test]
    fn recycled_buffer_is_reused() {
        clear();
        reset_stats();
        let a = take(100);
        let ptr = a.as_ptr();
        recycle(a);
        let b = take(90); // same class (2^7 = 128 covers both)
        assert_eq!(b.as_ptr(), ptr, "same-class take must reuse the buffer");
        let s = stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.recycled, 1);
    }

    #[test]
    fn class_guarantees_capacity() {
        clear();
        // A buffer allocated for 65 elements lands in class 7 (128); a later
        // take(128) from that class must not need to reallocate.
        let a = take(65);
        assert!(a.capacity() >= 128);
        recycle(a);
        let b = take(128);
        assert_eq!(b.len(), 128);
    }

    #[test]
    fn grown_region_is_zeroed() {
        clear();
        let mut a = take(4);
        Arc::get_mut(&mut a).unwrap().fill(9.0);
        recycle(a);
        let b = take(100); // larger than the recycled length
                           // Only a same-or-larger class buffer may be reused; whatever came
                           // back, every element beyond previously written data must be 0.
        assert!(b[4..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn high_watermark_tracks_peak_live_bytes() {
        clear();
        reset_stats();
        let a = take(100); // class 7 -> 128 elements
        let b = take(100);
        let peak = stats().live_bytes;
        assert!(
            peak >= 2 * 128 * 8,
            "two checked-out buffers must both count"
        );
        recycle(a);
        recycle(b);
        let s = stats();
        assert_eq!(
            s.live_bytes, 0,
            "returning every buffer empties the live set"
        );
        assert_eq!(s.hwm_bytes, peak, "watermark keeps the peak after frees");
        assert_eq!(high_watermark_bytes(), peak);
        // A smaller single take must not move the watermark.
        let c = take(10);
        assert_eq!(high_watermark_bytes(), peak);
        recycle(c);
    }

    #[test]
    fn take_zeroed_is_all_zero() {
        clear();
        let mut a = take(64);
        Arc::get_mut(&mut a).unwrap().fill(f64::NAN);
        recycle(a);
        let b = take_zeroed(64);
        assert!(b.iter().all(|&v| v == 0.0));
    }
}
