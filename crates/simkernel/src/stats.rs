//! Server utilization for simulation runs.

use crate::SimTime;

/// Accumulates busy intervals of a single server to report utilization.
///
/// Servers in this kernel are work-conserving FCFS, so busy intervals never
/// overlap and accumulate monotonically; the tracker only needs a running
/// sum.
#[derive(Debug, Clone, Default)]
pub struct UtilizationTracker {
    busy: SimTime,
}

impl UtilizationTracker {
    /// Creates an idle tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a busy interval `[start, end]`.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn add_busy(&mut self, start: SimTime, end: SimTime) {
        self.busy += end - start;
    }

    /// Busy fraction of `[0, horizon]`; 0 for a zero horizon.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            0.0
        } else {
            (self.busy.as_secs_f64() / horizon.as_secs_f64()).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_tracker() {
        let mut u = UtilizationTracker::new();
        u.add_busy(SimTime::from_nanos(0), SimTime::from_nanos(50));
        u.add_busy(SimTime::from_nanos(80), SimTime::from_nanos(100));
        assert!((u.utilization(SimTime::from_nanos(100)) - 0.7).abs() < 1e-12);
        assert_eq!(u.utilization(SimTime::ZERO), 0.0);
    }
}
