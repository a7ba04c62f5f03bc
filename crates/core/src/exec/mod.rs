//! Executors: run the batch state machines logically (counting node
//! accesses), under the full event-driven disk-array timing model, or
//! against real files on the machine's clock.
//!
//! The per-query lifecycle exists once, in [`session`]; the three
//! executors are schedulers over it that only decide where a page and a
//! timestamp come from: the logical executor reads on the spot with no
//! clock, the simulator routes pages through its disk/bus/CPU models on
//! the [`clock::VirtualClock`] its event queue advances, and the
//! real-clock engine submits batches to an [`sqda_storage::IoBackend`]
//! on the [`clock::WallClock`], one query per call on the caller's
//! thread. Each executor narrates to at most one sink: the simulator to
//! its caller's recorder, the real-clock engine to the flight ring of its
//! live telemetry.

mod clock;
mod logical;
mod real;
mod session;
mod sim;

pub use clock::{EngineClock, VirtualClock, WallClock};
pub use logical::{run_query, run_query_with};
pub(crate) use real::Round;
pub use real::{BatchKnnReport, RealTimeEngine, RealTimeReport};
pub use session::{mirror_partner, QueryRun};
pub use sim::{AlgoFactory, RunOptions, Simulation, SimulationReport};
