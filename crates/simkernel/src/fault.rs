//! Deterministic fault injection for the simulated disk array.
//!
//! A [`FaultPlan`] is a declarative, seed-reproducible description of
//! everything that goes wrong with the array during a run: fail-stop
//! outages (with optional recovery), transient slow-disk windows
//! (latency multipliers) and hot-spot contention windows (additive
//! per-request delay). The plan is resolved per disk into a
//! [`DiskFaultProfile`] that the [`Disk`](crate::Disk) timing model and
//! the executor's routing layer consult.
//!
//! Determinism contract: a plan is pure data — evaluating it draws no
//! randomness, so two runs with the same plan, workload and seed are
//! bit-identical. The only randomness is in *constructing* seed-driven
//! plans ([`FaultPlan::fail_disks`]), which uses its own `Rng` stream
//! and therefore never perturbs the simulation's RNG. An empty plan
//! ([`FaultPlan::none`]) is guaranteed to leave every code path of the
//! kernel and executor untouched (pinned by parity tests).

use crate::SimTime;
use sqda_geom::rng::Rng;

/// One injected fault, scoped to a single disk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DiskFault {
    /// The disk stops serving at `at` (fail-stop). If `recovers_at` is
    /// set the outage is transient and the disk serves again from that
    /// instant; otherwise it stays down for the rest of the run.
    FailStop {
        /// Index of the failing disk.
        disk: u32,
        /// When the disk stops serving.
        at: SimTime,
        /// When (if ever) it comes back.
        recovers_at: Option<SimTime>,
    },
    /// Every request whose service starts in `[from, until)` takes
    /// `multiplier`× its nominal service time (thermal throttling, media
    /// retries, a degraded head).
    SlowWindow {
        /// Index of the slowed disk.
        disk: u32,
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// Service-time multiplier (≥ 1 for a slowdown).
        multiplier: f64,
    },
    /// Every request whose service starts in `[from, until)` pays an
    /// extra constant delay (contention from a co-located workload).
    HotSpot {
        /// Index of the contended disk.
        disk: u32,
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// Additional service time per request.
        extra: SimTime,
    },
}

impl DiskFault {
    /// The disk this fault applies to.
    pub fn disk(&self) -> u32 {
        match *self {
            DiskFault::FailStop { disk, .. }
            | DiskFault::SlowWindow { disk, .. }
            | DiskFault::HotSpot { disk, .. } => disk,
        }
    }
}

/// How the executor retries a read whose every replica is unavailable.
///
/// A query that finds no live replica for a page does not fail
/// immediately: it re-probes after `backoff`, up to `max_attempts`
/// probes in total, and only then surfaces a typed unavailability
/// error. This bounds degraded-mode response time (no hangs) while
/// letting queries ride out transient outages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total probes before giving up (≥ 1; the first probe counts).
    pub max_attempts: u32,
    /// Delay between probes.
    pub backoff: SimTime,
}

impl Default for RetryPolicy {
    /// Three probes, 5 ms apart — two retries on top of the initial
    /// attempt, bounding the added latency at ~10 ms.
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff: SimTime::from_millis_f64(5.0),
        }
    }
}

/// A deterministic schedule of disk faults for one simulation run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    faults: Vec<DiskFault>,
    retry: RetryPolicy,
}

impl FaultPlan {
    /// The empty plan: nothing fails. Runs under the empty plan are
    /// byte-identical to runs without any plan at all.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The injected faults, in insertion order.
    pub fn faults(&self) -> &[DiskFault] {
        &self.faults
    }

    /// The retry policy queries use when no replica is available.
    pub fn retry(&self) -> RetryPolicy {
        self.retry
    }

    /// Replaces the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Adds a permanent fail-stop of `disk` at `at`.
    pub fn fail_stop(mut self, disk: u32, at: SimTime) -> Self {
        self.faults.push(DiskFault::FailStop {
            disk,
            at,
            recovers_at: None,
        });
        self
    }

    /// Adds a transient outage of `disk` over `[at, recovers_at)`.
    ///
    /// # Panics
    ///
    /// Panics if `recovers_at <= at` (an empty outage is a plan bug).
    pub fn transient_outage(mut self, disk: u32, at: SimTime, recovers_at: SimTime) -> Self {
        assert!(recovers_at > at, "outage must end after it starts");
        self.faults.push(DiskFault::FailStop {
            disk,
            at,
            recovers_at: Some(recovers_at),
        });
        self
    }

    /// Adds a slow window on `disk`: requests starting in `[from,
    /// until)` take `multiplier`× their nominal service time.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or the multiplier is not a
    /// positive finite number.
    pub fn slow_window(
        mut self,
        disk: u32,
        from: SimTime,
        until: SimTime,
        multiplier: f64,
    ) -> Self {
        assert!(until > from, "slow window must end after it starts");
        assert!(
            multiplier.is_finite() && multiplier > 0.0,
            "multiplier must be positive and finite, got {multiplier}"
        );
        self.faults.push(DiskFault::SlowWindow {
            disk,
            from,
            until,
            multiplier,
        });
        self
    }

    /// Adds a hot-spot window on `disk`: requests starting in `[from,
    /// until)` pay `extra` additional service time.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn hot_spot(mut self, disk: u32, from: SimTime, until: SimTime, extra: SimTime) -> Self {
        assert!(until > from, "hot-spot window must end after it starts");
        self.faults.push(DiskFault::HotSpot {
            disk,
            from,
            until,
            extra,
        });
        self
    }

    /// Builds a plan failing `count` distinct disks (chosen uniformly
    /// without replacement from `0..num_disks`, driven only by `seed`)
    /// permanently at time `at`. The selection RNG is private to this
    /// constructor, so building a plan never disturbs the simulation's
    /// own random stream.
    ///
    /// # Panics
    ///
    /// Panics if `count > num_disks`.
    pub fn fail_disks(count: usize, at: SimTime, num_disks: u32, seed: u64) -> Self {
        assert!(
            count <= num_disks as usize,
            "cannot fail {count} of {num_disks} disks"
        );
        // Partial Fisher–Yates: the first `count` slots are a uniform
        // sample without replacement.
        let mut pool: Vec<u32> = (0..num_disks).collect();
        let mut rng = Rng::seed_from_u64(seed);
        for i in 0..count {
            let j = rng.gen_range(i..pool.len());
            pool.swap(i, j);
        }
        let mut plan = Self::none();
        for &disk in &pool[..count] {
            plan = plan.fail_stop(disk, at);
        }
        plan
    }

    /// Disks with at least one fail-stop fault, deduplicated, ascending.
    pub fn failed_disks(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .faults
            .iter()
            .filter_map(|f| match *f {
                DiskFault::FailStop { disk, .. } => Some(disk),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The largest disk index any fault references (`None` for the
    /// empty plan) — lets executors validate a plan against the array.
    pub fn max_disk(&self) -> Option<u32> {
        self.faults.iter().map(|f| f.disk()).max()
    }

    /// Resolves the plan into the profile governing one disk.
    pub fn profile_for(&self, disk: u32) -> DiskFaultProfile {
        let mut p = DiskFaultProfile::clean();
        for f in &self.faults {
            match *f {
                DiskFault::FailStop {
                    disk: d,
                    at,
                    recovers_at,
                } if d == disk => p.fail.push((at, recovers_at)),
                DiskFault::SlowWindow {
                    disk: d,
                    from,
                    until,
                    multiplier,
                } if d == disk => p.slow.push((from, until, multiplier)),
                DiskFault::HotSpot {
                    disk: d,
                    from,
                    until,
                    extra,
                } if d == disk => p.hot.push((from, until, extra)),
                _ => {}
            }
        }
        p
    }
}

/// The fault schedule of a single disk, resolved from a [`FaultPlan`].
///
/// A clean profile ([`DiskFaultProfile::is_clean`]) is guaranteed not to
/// alter a single bit of the disk's timing arithmetic — the degraded
/// branch is gated on it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DiskFaultProfile {
    /// Fail-stop windows `(at, recovers_at)`.
    fail: Vec<(SimTime, Option<SimTime>)>,
    /// Slow windows `(from, until, multiplier)`.
    slow: Vec<(SimTime, SimTime, f64)>,
    /// Hot-spot windows `(from, until, extra)`.
    hot: Vec<(SimTime, SimTime, SimTime)>,
}

impl DiskFaultProfile {
    /// The profile of a healthy disk.
    pub fn clean() -> Self {
        Self::default()
    }

    /// Whether no fault ever touches this disk.
    pub fn is_clean(&self) -> bool {
        self.fail.is_empty() && self.slow.is_empty() && self.hot.is_empty()
    }

    /// Whether the disk is failed (down) at instant `at`.
    pub fn is_failed(&self, at: SimTime) -> bool {
        self.fail
            .iter()
            .any(|&(start, end)| at >= start && end.is_none_or(|e| at < e))
    }

    /// Combined service-time multiplier for a request whose service
    /// starts at `at` (product of all active slow windows; 1.0 when
    /// none are active).
    pub fn multiplier(&self, at: SimTime) -> f64 {
        self.slow
            .iter()
            .filter(|&&(from, until, _)| at >= from && at < until)
            .map(|&(_, _, m)| m)
            .product()
    }

    /// Extra service time for a request whose service starts at `at`
    /// (sum of all active hot-spot windows).
    pub fn extra(&self, at: SimTime) -> SimTime {
        self.hot
            .iter()
            .filter(|&&(from, until, _)| at >= from && at < until)
            .fold(SimTime::ZERO, |acc, &(_, _, e)| acc + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: f64) -> SimTime {
        SimTime::from_millis_f64(x)
    }

    #[test]
    fn empty_plan_is_clean_everywhere() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert_eq!(plan.max_disk(), None);
        for d in 0..8 {
            let p = plan.profile_for(d);
            assert!(p.is_clean());
            assert!(!p.is_failed(SimTime::ZERO));
            assert_eq!(p.multiplier(ms(1.0)), 1.0);
            assert_eq!(p.extra(ms(1.0)), SimTime::ZERO);
        }
    }

    #[test]
    fn fail_stop_windows() {
        let plan = FaultPlan::none()
            .fail_stop(2, ms(10.0))
            .transient_outage(3, ms(0.0), ms(5.0));
        let p2 = plan.profile_for(2);
        assert!(!p2.is_failed(ms(9.0)));
        assert!(p2.is_failed(ms(10.0)));
        assert!(p2.is_failed(ms(1e6))); // permanent
        let p3 = plan.profile_for(3);
        assert!(p3.is_failed(SimTime::ZERO));
        assert!(p3.is_failed(ms(4.9)));
        assert!(!p3.is_failed(ms(5.0))); // recovery instant serves again
        assert_eq!(plan.failed_disks(), vec![2, 3]);
        assert_eq!(plan.max_disk(), Some(3));
        // Untouched disk stays clean.
        assert!(plan.profile_for(0).is_clean());
    }

    #[test]
    fn slow_and_hot_windows_compose() {
        let plan = FaultPlan::none()
            .slow_window(1, ms(0.0), ms(10.0), 2.0)
            .slow_window(1, ms(5.0), ms(15.0), 3.0)
            .hot_spot(1, ms(0.0), ms(10.0), ms(1.0))
            .hot_spot(1, ms(5.0), ms(15.0), ms(2.0));
        let p = plan.profile_for(1);
        assert!(!p.is_clean());
        assert!(!p.is_failed(ms(1.0)));
        assert_eq!(p.multiplier(ms(1.0)), 2.0);
        assert_eq!(p.multiplier(ms(7.0)), 6.0); // overlap: product
        assert_eq!(p.multiplier(ms(12.0)), 3.0);
        assert_eq!(p.multiplier(ms(15.0)), 1.0); // until is exclusive
        assert_eq!(p.extra(ms(7.0)), ms(3.0)); // overlap: sum
        assert_eq!(p.extra(ms(12.0)), ms(2.0));
    }

    #[test]
    fn seeded_fail_disks_is_deterministic_and_distinct() {
        let a = FaultPlan::fail_disks(3, ms(2.0), 10, 42);
        let b = FaultPlan::fail_disks(3, ms(2.0), 10, 42);
        assert_eq!(a, b);
        let disks = a.failed_disks();
        assert_eq!(disks.len(), 3, "distinct disks: {disks:?}");
        assert!(disks.iter().all(|&d| d < 10));
        // A different seed (usually) picks a different set; at minimum
        // the construction must stay in range and distinct.
        let c = FaultPlan::fail_disks(10, ms(2.0), 10, 7);
        assert_eq!(c.failed_disks(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn retry_policy_roundtrip() {
        let plan = FaultPlan::none().with_retry(RetryPolicy {
            max_attempts: 5,
            backoff: ms(1.0),
        });
        assert_eq!(plan.retry().max_attempts, 5);
        assert_eq!(plan.retry().backoff, ms(1.0));
        let d = RetryPolicy::default();
        assert!(d.max_attempts >= 1);
        assert!(d.backoff > SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "must end after it starts")]
    fn empty_slow_window_panics() {
        let _ = FaultPlan::none().slow_window(0, ms(5.0), ms(5.0), 2.0);
    }
}
