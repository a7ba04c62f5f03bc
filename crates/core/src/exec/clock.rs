//! The engine clock seam.
//!
//! The session/batch machinery in this module tree runs under two
//! notions of time: the *virtual* clock of the event-driven simulator
//! (advanced by popping the [`EventQueue`](sqda_simkernel::EventQueue))
//! and the *wall* clock of the real-file engine (advanced by the
//! machine). The session core reads time, and observability events are
//! stamped, through [`EngineClock`] in both modes, so a trace consumer
//! sees one timestamp discipline — nanoseconds since run start —
//! regardless of which engine produced the stream.

use sqda_simkernel::SimTime;
use std::cell::Cell;
use std::time::Instant;

/// Monotonic nanoseconds since the start of an engine run.
pub trait EngineClock {
    /// Current time in nanoseconds since run start.
    fn now_ns(&self) -> u64;
}

/// The simulator's clock: holds the timestamp of the event currently
/// being processed. The event loop advances it on every pop, so
/// `now_ns` is exactly the popped event's time — recording through it
/// is bit-identical to stamping with the event time directly. The
/// instant sits in a `Cell`: the loop advances the clock while the
/// narrator it stamps for holds it shared.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now: Cell<SimTime>,
}

impl VirtualClock {
    /// A clock at simulated time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances to the time of the event being processed. Events pop in
    /// non-decreasing time order, so the clock never runs backwards.
    #[inline]
    pub fn advance(&self, to: SimTime) {
        debug_assert!(to >= self.now.get(), "virtual clock cannot run backwards");
        self.now.set(to);
    }

    /// The current simulated instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now.get()
    }
}

impl EngineClock for VirtualClock {
    #[inline]
    fn now_ns(&self) -> u64 {
        self.now.get().as_nanos()
    }
}

/// The machine's clock, anchored at engine start so timestamps are
/// comparable to a simulated run's (both count from zero).
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    /// A clock anchored at the current instant.
    pub fn new() -> Self {
        Self {
            start: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineClock for WallClock {
    #[inline]
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_tracks_event_times() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now_ns(), 0);
        clock.advance(SimTime::from_nanos(42));
        assert_eq!(clock.now_ns(), 42);
        clock.advance(SimTime::from_nanos(42)); // equal times are fine
        assert_eq!(clock.now(), SimTime::from_nanos(42));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "backwards")]
    fn virtual_clock_rejects_time_travel() {
        let clock = VirtualClock::new();
        clock.advance(SimTime::from_nanos(10));
        clock.advance(SimTime::from_nanos(9));
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let clock = WallClock::new();
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
    }
}
