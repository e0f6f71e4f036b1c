//! The closed-loop load generator core shared by every measured client.
//!
//! §6 measures each application figure the same way: `total` requests with
//! a fixed window kept in flight, the next one issued when one completes.
//! [`ClosedLoop`] is that bookkeeping as a plain value, so the FractOS
//! clients (the face-verification client here, the GPU and storage clients
//! in `fractos-bench`) and the raw baseline clients in `fractos-baselines`
//! differ only in how they put a request on the wire.

use fractos_sim::SimTime;

/// Bookkeeping of one closed-loop run.
#[derive(Debug, Clone)]
pub struct ClosedLoop {
    total: u64,
    window: u64,
    issued: u64,
    /// Token and issue time of every request still in flight.
    in_flight: Vec<(u64, SimTime)>,
    /// `(issued, completed)` of every finished request, in completion order.
    pub done: Vec<(SimTime, SimTime)>,
}

impl ClosedLoop {
    /// A run of `total` requests with `window` (at least one) in flight.
    pub fn new(total: u64, window: u64) -> Self {
        ClosedLoop {
            total,
            window: window.max(1),
            issued: 0,
            in_flight: Vec::new(),
            done: Vec::new(),
        }
    }

    /// Requests the run issues in all.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Requests kept in flight.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// How many requests to issue up front: the window, or the whole run
    /// when that is shorter.
    pub fn prime(&self) -> u64 {
        self.window.min(self.total)
    }

    /// Requests issued and not yet completed.
    pub fn outstanding(&self) -> u64 {
        self.in_flight.len() as u64
    }

    /// Starts the next request at `now` and returns its token (0, 1, 2, …
    /// in issue order), or `None` once all `total` have been issued.
    pub fn next(&mut self, now: SimTime) -> Option<u64> {
        if self.issued >= self.total {
            return None;
        }
        let token = self.issued;
        self.issued += 1;
        self.in_flight.push((token, now));
        Some(token)
    }

    /// Completes `token` at `now` and returns when it was issued; `None`
    /// (and nothing recorded) for a token that is not in flight.
    pub fn complete(&mut self, token: u64, now: SimTime) -> Option<SimTime> {
        let i = self.in_flight.iter().position(|(t, _)| *t == token)?;
        let (_, issued) = self.in_flight.swap_remove(i);
        self.done.push((issued, now));
        Some(issued)
    }

    /// Per-request latencies in µs, in completion order.
    pub fn latencies_us(&self) -> Vec<f64> {
        self.done
            .iter()
            .map(|(issued, completed)| completed.duration_since(*issued).as_micros_f64())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_refills_until_the_run_is_issued() {
        let at = SimTime::from_nanos;
        let mut run = ClosedLoop::new(3, 2);
        assert_eq!(run.prime(), 2);
        assert_eq!(run.next(at(0)), Some(0));
        assert_eq!(run.next(at(0)), Some(1));
        // Completion order, not issue order, is what `done` records.
        assert_eq!(run.complete(1, at(2_000)), Some(at(0)));
        assert_eq!(run.next(at(2_000)), Some(2));
        assert_eq!(run.next(at(2_000)), None, "all three issued");
        assert_eq!(run.complete(0, at(3_000)), Some(at(0)));
        assert_eq!(run.complete(0, at(4_000)), None, "already completed");
        assert_eq!(run.complete(2, at(5_000)), Some(at(2_000)));
        assert_eq!(run.latencies_us(), vec![2.0, 3.0, 3.0]);
    }

    #[test]
    fn a_zero_window_still_makes_progress() {
        let run = ClosedLoop::new(5, 0);
        assert_eq!(run.window(), 1);
        assert_eq!(ClosedLoop::new(1, 4).prime(), 1);
    }
}
