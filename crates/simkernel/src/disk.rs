//! Disk drive model: two-phase non-linear seek, rotational latency,
//! transfer and controller overhead, behind an FCFS queue.

use crate::{DiskFaultProfile, SimTime, UtilizationTracker};
use sqda_geom::rng::Rng;
use std::collections::VecDeque;

/// Physical parameters of one disk drive.
///
/// Defaults model the HP-C2200A drive used in the paper's simulation
/// (Table 2; constants from Ruemmler & Wilkes, *An Introduction to Disk
/// Drive Modeling*, IEEE Computer 1994).
#[derive(Debug, Clone, PartialEq)]
pub struct DiskParams {
    /// Number of cylinders (`Cyl` in Table 2).
    pub num_cylinders: u32,
    /// Constant term of the short-seek (acceleration) phase, in ms.
    pub c1_ms: f64,
    /// √-coefficient of the short-seek phase, in ms per √cylinder.
    pub c2_ms: f64,
    /// Constant term of the long-seek (steady) phase, in ms.
    pub c3_ms: f64,
    /// Linear coefficient of the long-seek phase, in ms per cylinder.
    pub c4_ms: f64,
    /// Seek distance threshold `sdt` separating the two phases.
    pub seek_distance_threshold: u32,
    /// Full revolution time in seconds (`T_rev` = 0.0149 s in Table 2).
    pub revolution_time_s: f64,
    /// Time to transfer one page off the platters, in ms.
    pub transfer_ms: f64,
    /// Constant controller overhead per request, in ms.
    pub controller_overhead_ms: f64,
}

impl Default for DiskParams {
    fn default() -> Self {
        Self {
            num_cylinders: 1449,
            c1_ms: 3.24,
            c2_ms: 0.400,
            c3_ms: 8.00,
            c4_ms: 0.008,
            seek_distance_threshold: 383,
            revolution_time_s: 0.0149,
            transfer_ms: 1.0,
            controller_overhead_ms: 1.0,
        }
    }
}

impl DiskParams {
    /// Seek time for a head movement of `distance` cylinders.
    ///
    /// ```
    /// use sqda_simkernel::DiskParams;
    /// let p = DiskParams::default();
    /// assert_eq!(p.seek_time_s(0), 0.0);
    /// assert!(p.seek_time_s(100) < p.seek_time_s(1000));
    /// ```
    pub fn seek_time_s(&self, distance: u32) -> f64 {
        if distance == 0 {
            0.0
        } else if distance <= self.seek_distance_threshold {
            (self.c1_ms + self.c2_ms * (distance as f64).sqrt()) / 1e3
        } else {
            (self.c3_ms + self.c4_ms * distance as f64) / 1e3
        }
    }

    /// A worst-case bound on one request's service time (full-stroke seek,
    /// full revolution, transfer, overhead).
    pub fn max_service_time_s(&self) -> f64 {
        self.seek_time_s(self.num_cylinders.saturating_sub(1))
            + self.revolution_time_s
            + (self.transfer_ms + self.controller_overhead_ms) / 1e3
    }
}

/// One simulated disk: an FCFS queue in front of a single head assembly.
///
/// Requests are submitted in simulation-time order; each request's service
/// time is determined by the seek distance from the head position left by
/// the previous request, a uniformly random rotational latency, and the
/// constant transfer/overhead terms. Because the queue is FCFS and
/// submissions arrive in time order, service order equals submission order
/// and completion times can be computed at submission.
pub struct Disk {
    params: DiskParams,
    busy_until: SimTime,
    head_cylinder: u32,
    requests: u64,
    util: UtilizationTracker,
    total_wait: SimTime,
    total_service: SimTime,
    /// Completion times of outstanding requests, oldest first; entries
    /// at or before the current submission time are drained so the
    /// remaining length is the queue depth the new request sees.
    outstanding: VecDeque<SimTime>,
    /// Latest submission time seen, enforcing the FCFS contract.
    last_submit: SimTime,
    /// Injected fault schedule ([`DiskFaultProfile::clean`] by default).
    fault: DiskFaultProfile,
}

/// The full timing of one disk request, as computed at submission.
/// The phase components are reported individually for observability;
/// the authoritative completion time is `completion` (computed from the
/// summed service like [`Disk::submit`] always has).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskServiceDetail {
    /// When the page is ready to go on the bus.
    pub completion: SimTime,
    /// FCFS queueing delay before service started.
    pub queue: SimTime,
    /// Head-movement time.
    pub seek: SimTime,
    /// Rotational latency (uniformly drawn).
    pub rotation: SimTime,
    /// Platter transfer plus controller overhead.
    pub transfer: SimTime,
    /// Requests waiting or in service when this one was submitted
    /// (this request excluded).
    pub queue_depth: u32,
}

impl Disk {
    /// Creates an idle disk with its head parked at cylinder 0 (the paper
    /// initializes all arms at cylinder zero).
    pub fn new(params: DiskParams) -> Self {
        Self {
            params,
            busy_until: SimTime::ZERO,
            head_cylinder: 0,
            requests: 0,
            util: UtilizationTracker::new(),
            total_wait: SimTime::ZERO,
            total_service: SimTime::ZERO,
            outstanding: VecDeque::new(),
            last_submit: SimTime::ZERO,
            fault: DiskFaultProfile::clean(),
        }
    }

    /// Installs the disk's fault schedule (see
    /// [`FaultPlan`](crate::FaultPlan)). A clean profile leaves every
    /// timing computation bit-identical to an un-faulted disk.
    pub fn set_fault_profile(&mut self, fault: DiskFaultProfile) {
        self.fault = fault;
    }

    /// The disk's fault schedule.
    pub fn fault_profile(&self) -> &DiskFaultProfile {
        &self.fault
    }

    /// Whether the disk is failed (fail-stop) at instant `at`. Routing
    /// around failed disks is the executor's job; the timing model keeps
    /// serving so a submission that slipped through still completes.
    pub fn is_failed(&self, at: SimTime) -> bool {
        self.fault.is_failed(at)
    }

    /// The drive parameters.
    pub fn params(&self) -> &DiskParams {
        &self.params
    }

    /// Submits a page-read request at time `now` targeting `cylinder`.
    /// Returns the completion time (when the page is ready to go on the
    /// bus).
    ///
    /// # Panics
    ///
    /// Panics if `cylinder` is outside the drive or if `now` precedes an
    /// earlier submission (FCFS requires time-ordered submission).
    pub fn submit(&mut self, now: SimTime, cylinder: u32, rng: &mut Rng) -> SimTime {
        self.submit_detailed(now, cylinder, rng).completion
    }

    /// Like [`Disk::submit`], but also returns the phase breakdown
    /// (queue / seek / rotation / transfer) and the queue depth the
    /// request found — the raw material of the observability layer.
    /// Timing is identical to `submit`; the extra bookkeeping draws no
    /// randomness.
    pub fn submit_detailed(
        &mut self,
        now: SimTime,
        cylinder: u32,
        rng: &mut Rng,
    ) -> DiskServiceDetail {
        assert!(
            cylinder < self.params.num_cylinders,
            "cylinder {cylinder} out of range"
        );
        assert!(
            now >= self.last_submit,
            "FCFS contract violated: submission at {now} precedes earlier submission at {}",
            self.last_submit
        );
        self.last_submit = now;
        while self.outstanding.front().is_some_and(|&done| done <= now) {
            self.outstanding.pop_front();
        }
        let queue_depth = self.outstanding.len() as u32;
        let start = now.max(self.busy_until);
        let distance = self.head_cylinder.abs_diff(cylinder);
        // A zero-revolution drive (used by deterministic tests) has no
        // latency to draw — and `gen_range` panics on an empty range.
        let rot_latency = if self.params.revolution_time_s > 0.0 {
            rng.gen_range(0.0..self.params.revolution_time_s)
        } else {
            0.0
        };
        let mut seek_s = self.params.seek_time_s(distance);
        let mut rot_latency = rot_latency;
        let mut transfer_s = (self.params.transfer_ms + self.params.controller_overhead_ms) / 1e3;
        // Degraded-mode timing, gated so a clean profile leaves the
        // arithmetic (and thus fault-free runs) bit-identical. The
        // multiplier scales every phase; hot-spot delay is folded into
        // the transfer phase so the reported components still sum to
        // the service interval.
        if !self.fault.is_clean() {
            let m = self.fault.multiplier(start);
            let extra_s = self.fault.extra(start).as_secs_f64();
            seek_s *= m;
            rot_latency *= m;
            transfer_s = transfer_s * m + extra_s;
        }
        let service_s = seek_s + rot_latency + transfer_s;
        let service = SimTime::from_secs_f64(service_s);
        let completion = start + service;

        self.util.add_busy(start, completion);
        self.total_wait += start - now;
        self.total_service += service;
        self.requests += 1;
        self.head_cylinder = cylinder;
        self.busy_until = completion;
        self.outstanding.push_back(completion);
        DiskServiceDetail {
            completion,
            queue: start - now,
            seek: SimTime::from_secs_f64(seek_s),
            rotation: SimTime::from_secs_f64(rot_latency),
            transfer: SimTime::from_secs_f64(transfer_s),
            queue_depth,
        }
    }

    /// Number of requests served.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Fraction of `[0, horizon]` the disk spent busy.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        self.util.utilization(horizon)
    }

    /// Mean queueing delay (time between submission and service start).
    pub fn mean_wait_s(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_wait.as_secs_f64() / self.requests as f64
        }
    }

    /// Mean service time.
    pub fn mean_service_s(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_service.as_secs_f64() / self.requests as f64
        }
    }

    /// The time the disk becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Current head position (cylinder of the last serviced request).
    pub fn head_cylinder(&self) -> u32 {
        self.head_cylinder
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from_u64(1)
    }

    #[test]
    fn seek_model_phases() {
        let p = DiskParams::default();
        // No seek.
        assert_eq!(p.seek_time_s(0), 0.0);
        // Short seek: c1 + c2*sqrt(d).
        let s100 = p.seek_time_s(100);
        assert!((s100 - (3.24 + 0.4 * 10.0) / 1e3).abs() < 1e-12);
        // Boundary is short phase.
        let sb = p.seek_time_s(383);
        assert!((sb - (3.24 + 0.4 * (383.0f64).sqrt()) / 1e3).abs() < 1e-12);
        // Long seek: c3 + c4*d.
        let s1000 = p.seek_time_s(1000);
        assert!((s1000 - (8.0 + 0.008 * 1000.0) / 1e3).abs() < 1e-12);
        // Monotone increasing overall.
        let mut prev = 0.0;
        for d in 0..1449 {
            let s = p.seek_time_s(d);
            assert!(s >= prev - 1e-9, "seek time decreased at {d}");
            prev = s;
        }
    }

    #[test]
    fn idle_disk_services_immediately() {
        let mut d = Disk::new(DiskParams::default());
        let mut r = rng();
        let done = d.submit(SimTime::from_secs_f64(1.0), 0, &mut r);
        // No seek (head at 0), so service = rotation + transfer + overhead
        // < 1 revolution + 2 ms.
        let service = done - SimTime::from_secs_f64(1.0);
        assert!(service.as_secs_f64() <= 0.0149 + 0.002 + 1e-9);
        assert!(service.as_secs_f64() >= 0.002);
        assert_eq!(d.requests(), 1);
        assert_eq!(d.head_cylinder(), 0);
    }

    #[test]
    fn fcfs_queueing_delays_second_request() {
        let mut d = Disk::new(DiskParams::default());
        let mut r = rng();
        let t0 = SimTime::ZERO;
        let done1 = d.submit(t0, 700, &mut r);
        let done2 = d.submit(t0, 700, &mut r);
        assert!(done2 > done1, "second request must wait");
        assert!(d.mean_wait_s() > 0.0);
    }

    #[test]
    fn head_position_tracks_requests() {
        let mut d = Disk::new(DiskParams::default());
        let mut r = rng();
        d.submit(SimTime::ZERO, 1200, &mut r);
        assert_eq!(d.head_cylinder(), 1200);
        // Seek back is long (distance 1200 > threshold).
        let t = d.busy_until();
        let done = d.submit(t, 0, &mut r);
        let service = (done - t).as_secs_f64();
        assert!(service >= (8.0 + 0.008 * 1200.0) / 1e3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_cylinder_panics() {
        let mut d = Disk::new(DiskParams::default());
        d.submit(SimTime::ZERO, 9999, &mut rng());
    }

    #[test]
    fn utilization_between_zero_and_one() {
        let mut d = Disk::new(DiskParams::default());
        let mut r = rng();
        for i in 0..50 {
            d.submit(
                SimTime::from_millis_f64(i as f64 * 5.0),
                (i * 29) % 1449,
                &mut r,
            );
        }
        let horizon = d.busy_until();
        let u = d.utilization(horizon);
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
        assert!(d.mean_service_s() > 0.0);
    }

    #[test]
    fn detailed_breakdown_and_queue_depth() {
        let mut d = Disk::new(DiskParams::default());
        let mut r = rng();
        let t0 = SimTime::ZERO;
        let d1 = d.submit_detailed(t0, 700, &mut r);
        assert_eq!(d1.queue_depth, 0);
        assert_eq!(d1.queue, SimTime::ZERO);
        // Components reconstruct the service interval exactly (each is
        // converted from the same f64 terms; allow 1ns per rounding).
        let service = d1.completion - t0;
        let sum = d1.seek + d1.rotation + d1.transfer;
        assert!(service.as_nanos().abs_diff(sum.as_nanos()) <= 2);
        // Second and third requests at t0 see depths 1 and 2.
        let d2 = d.submit_detailed(t0, 700, &mut r);
        assert_eq!(d2.queue_depth, 1);
        assert_eq!(d2.queue, d1.completion - t0);
        let d3 = d.submit_detailed(t0, 700, &mut r);
        assert_eq!(d3.queue_depth, 2);
        // After everything drains the queue is empty again.
        let d4 = d.submit_detailed(d3.completion, 700, &mut r);
        assert_eq!(d4.queue_depth, 0);
    }

    #[test]
    fn detailed_matches_plain_submit_timing() {
        let mut a = Disk::new(DiskParams::default());
        let mut b = Disk::new(DiskParams::default());
        let mut ra = rng();
        let mut rb = rng();
        for i in 0..100u32 {
            let t = SimTime::from_millis_f64(i as f64 * 3.0);
            let cyl = (i * 131) % 1449;
            let plain = a.submit(t, cyl, &mut ra);
            let detail = b.submit_detailed(t, cyl, &mut rb);
            assert_eq!(plain, detail.completion, "divergence at request {i}");
        }
    }

    #[test]
    fn zero_revolution_disk_is_deterministic() {
        let params = DiskParams {
            revolution_time_s: 0.0,
            ..DiskParams::default()
        };
        let mut d = Disk::new(params);
        let mut r = rng();
        let detail = d.submit_detailed(SimTime::ZERO, 0, &mut r);
        assert_eq!(detail.rotation, SimTime::ZERO);
        // No seek, no rotation: service is exactly transfer + overhead.
        assert_eq!(detail.completion, SimTime::from_millis_f64(2.0));
    }

    #[test]
    #[should_panic(expected = "FCFS contract violated")]
    fn out_of_order_submission_panics() {
        // Regression: the doc always promised this panic, but the check
        // was missing — out-of-order submission silently corrupted the
        // outstanding-queue draining and utilization accounting.
        let mut d = Disk::new(DiskParams::default());
        let mut r = rng();
        d.submit(SimTime::from_millis_f64(10.0), 0, &mut r);
        d.submit(SimTime::from_millis_f64(5.0), 0, &mut r);
    }

    #[test]
    fn equal_time_submissions_are_allowed() {
        let mut d = Disk::new(DiskParams::default());
        let mut r = rng();
        let t = SimTime::from_millis_f64(3.0);
        d.submit(t, 0, &mut r);
        d.submit(t, 0, &mut r); // FIFO tie: not a contract violation
        assert_eq!(d.requests(), 2);
    }

    #[test]
    fn clean_profile_timing_is_bit_identical() {
        let mut plain = Disk::new(DiskParams::default());
        let mut profiled = Disk::new(DiskParams::default());
        profiled.set_fault_profile(DiskFaultProfile::clean());
        let (mut ra, mut rb) = (rng(), rng());
        for i in 0..50u32 {
            let t = SimTime::from_millis_f64(i as f64 * 2.0);
            let cyl = (i * 211) % 1449;
            assert_eq!(
                plain.submit(t, cyl, &mut ra),
                profiled.submit(t, cyl, &mut rb),
                "divergence at request {i}"
            );
        }
    }

    #[test]
    fn slow_window_scales_service_time() {
        let params = DiskParams {
            revolution_time_s: 0.0, // deterministic: no rotation draw
            ..DiskParams::default()
        };
        let mut d = Disk::new(params.clone());
        let mut r = rng();
        let plan = crate::FaultPlan::none().slow_window(
            0,
            SimTime::from_millis_f64(10.0),
            SimTime::from_millis_f64(20.0),
            3.0,
        );
        d.set_fault_profile(plan.profile_for(0));
        // Outside the window: nominal transfer + overhead = 2 ms.
        let d1 = d.submit_detailed(SimTime::ZERO, 0, &mut r);
        assert_eq!(d1.completion, SimTime::from_millis_f64(2.0));
        // Inside the window: 3× slower.
        let d2 = d.submit_detailed(SimTime::from_millis_f64(10.0), 0, &mut r);
        assert_eq!(
            d2.completion - SimTime::from_millis_f64(10.0),
            SimTime::from_millis_f64(6.0)
        );
        // Components still reconstruct the service interval.
        let sum = d2.seek + d2.rotation + d2.transfer;
        assert!(
            sum.as_nanos()
                .abs_diff(SimTime::from_millis_f64(6.0).as_nanos())
                <= 2
        );
        // After the window closes: nominal again.
        let d3 = d.submit_detailed(SimTime::from_millis_f64(20.0), 0, &mut r);
        assert_eq!(
            d3.completion - SimTime::from_millis_f64(20.0),
            SimTime::from_millis_f64(2.0)
        );
    }

    #[test]
    fn hot_spot_adds_constant_delay() {
        let params = DiskParams {
            revolution_time_s: 0.0,
            ..DiskParams::default()
        };
        let mut d = Disk::new(params);
        let mut r = rng();
        let plan = crate::FaultPlan::none().hot_spot(
            0,
            SimTime::ZERO,
            SimTime::from_millis_f64(5.0),
            SimTime::from_millis_f64(4.0),
        );
        d.set_fault_profile(plan.profile_for(0));
        let d1 = d.submit_detailed(SimTime::ZERO, 0, &mut r);
        // 2 ms nominal + 4 ms contention.
        assert_eq!(d1.completion, SimTime::from_millis_f64(6.0));
        assert!(!d.is_failed(SimTime::ZERO));
    }

    #[test]
    fn failed_state_follows_profile() {
        let mut d = Disk::new(DiskParams::default());
        let plan = crate::FaultPlan::none().transient_outage(
            0,
            SimTime::from_millis_f64(1.0),
            SimTime::from_millis_f64(2.0),
        );
        d.set_fault_profile(plan.profile_for(0));
        assert!(!d.is_failed(SimTime::ZERO));
        assert!(d.is_failed(SimTime::from_millis_f64(1.5)));
        assert!(!d.is_failed(SimTime::from_millis_f64(2.0)));
        assert!(!d.fault_profile().is_clean());
    }

    #[test]
    fn max_service_bound_holds() {
        let p = DiskParams::default();
        let bound = p.max_service_time_s();
        let mut d = Disk::new(p);
        let mut r = rng();
        let mut prev_done = SimTime::ZERO;
        for i in 0..200 {
            // Submit exactly at previous completion: no queueing, pure service.
            let done = d.submit(prev_done, (i * 977) % 1449, &mut r);
            assert!((done - prev_done).as_secs_f64() <= bound + 1e-9);
            prev_done = done;
        }
    }
}
