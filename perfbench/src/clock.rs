//! One monotonic clock for the whole run: seconds since process start.

use std::sync::OnceLock;
use std::time::Instant;

static BASE: OnceLock<Instant> = OnceLock::new();

/// Pins the clock's zero; call first thing in `main`.
pub fn start() {
    BASE.get_or_init(Instant::now);
}

/// Seconds since [`start`].
pub fn now() -> f64 {
    BASE.get_or_init(Instant::now).elapsed().as_secs_f64()
}
