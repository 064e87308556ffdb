//! Regression test: a panicking task must not wedge the global pool.
//!
//! Runs in its own test binary so it can size the pool before anything
//! else touches it: the parallel path only exists with more than one
//! thread, and a single-CPU host would otherwise take the serial path and
//! never exercise the submission lock.

use std::sync::atomic::{AtomicUsize, Ordering};
use tranad_tensor::{pool, Tensor};

#[test]
fn parallel_regions_run_cleanly_after_a_panicking_one() {
    std::env::set_var("TRANAD_THREADS", "2");
    assert_eq!(
        pool::current_threads(),
        2,
        "the pool must be parallel for this test"
    );
    let jobs_before = pool::counters().jobs;
    for round in 0..3 {
        let result = std::panic::catch_unwind(|| {
            pool::run(8, &|i| {
                if i == 3 {
                    panic!("boom");
                }
            });
        });
        assert!(
            result.is_err(),
            "round {round}: the task's panic must reach the caller"
        );

        let sum = AtomicUsize::new(0);
        pool::run(8, &|i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 28, "round {round}");

        let mut out = vec![0usize; 100];
        pool::parallel_chunks_mut(&mut out, 7, |start, chunk| {
            for (off, v) in chunk.iter_mut().enumerate() {
                *v = start + off;
            }
        });
        assert_eq!(out, (0..100).collect::<Vec<_>>(), "round {round}");
    }
    // A large matmul goes through the pool as well.
    let a = Tensor::from_vec((0..256 * 64).map(|i| (i % 7) as f64).collect(), [256, 64]);
    let b = Tensor::from_vec((0..64 * 32).map(|i| (i % 5) as f64).collect(), [64, 32]);
    let serial = pool::with_threads(1, || a.matmul(&b));
    assert_eq!(a.matmul(&b).data(), serial.data());
    assert!(
        pool::counters().jobs >= jobs_before + 9,
        "every region must have been parallel"
    );
}
