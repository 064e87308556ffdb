//! Open-loop arrival schedule: point `i` is due at `start + i * period`
//! whether or not the system kept up, so a stall shows in the latency of
//! every point that had to wait for it.

use crate::clock::now;

#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: f64,
    pub period: f64,
}

impl Schedule {
    /// When tick `i` is due.
    pub fn due(&self, i: u64) -> f64 {
        self.start + i as f64 * self.period
    }

    /// Spins until tick `i` is due; returns at once when it is already
    /// late. It never sleeps: waking a sleeping vCPU costs milliseconds on
    /// a virtual machine, and that jitter would land in every latency.
    pub fn wait(&self, i: u64) {
        let due = self.due(i);
        while now() < due {
            std::hint::spin_loop();
        }
    }
}

/// Push-to-verdict latency of a point, timed from when it was due.
pub fn latency(due: f64, verdict: f64) -> f64 {
    verdict - due
}

/// How late the generator sent a point: never negative.
pub fn lateness(due: f64, sent: f64) -> f64 {
    (sent - due).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_schedule() {
        let s = Schedule {
            start: 2.0,
            period: 0.5,
        };
        assert_eq!(s.due(0), 2.0);
        assert_eq!(s.due(4), 4.0);
    }

    #[test]
    fn a_stall_delays_every_later_point() {
        // Ticks every 1 s, each takes 0.25 s, but tick 1 stalls for 2.5 s.
        let s = Schedule {
            start: 0.0,
            period: 1.0,
        };
        let cost = [0.25, 2.5, 0.25, 0.25, 0.25];
        let mut free = 0.0_f64;
        let mut lat = Vec::new();
        let mut late = Vec::new();
        for (i, c) in cost.iter().enumerate() {
            let due = s.due(i as u64);
            let sent = free.max(due);
            free = sent + c;
            lat.push(latency(due, free));
            late.push(lateness(due, sent));
        }
        assert_eq!(lat, vec![0.25, 2.5, 1.75, 1.0, 0.25]);
        assert_eq!(late, vec![0.0, 0.0, 1.5, 0.75, 0.0]);
        // Timing from the send instead would hide the backlog.
        assert!(lat[2] > cost[2]);
    }

    #[test]
    fn early_sends_are_not_negative_lateness() {
        assert_eq!(lateness(5.0, 4.0), 0.0);
        assert_eq!(lateness(5.0, 5.5), 0.5);
    }
}
