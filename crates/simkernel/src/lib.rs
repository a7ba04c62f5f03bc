//! Discrete event-driven simulation kernel for a RAID level-0 disk array.
//!
//! This crate reproduces the simulation model of Section 4.1 of the paper
//! (Figure 7): each disk has its own FCFS queue; a shared I/O bus with
//! constant per-page service time connects the disks to the processor;
//! queries arrive according to a Poisson process; the CPU cost of
//! processing a batch of MBRs is `2·N + 3·M·log₂M` instructions at a fixed
//! MIPS rate.
//!
//! Disk service times use the two-phase non-linear seek model of
//! Ruemmler & Wilkes / Manolopoulos:
//!
//! ```text
//!            ⎧ 0                        d = 0
//! T_seek(d) = ⎨ c1 + c2·√d               0 < d ≤ sdt   (acceleration phase)
//!            ⎩ c3 + c4·d                d > sdt       (steady phase)
//! ```
//!
//! plus uniformly distributed rotational latency, a constant transfer
//! time, and constant controller overhead. The default constants are the
//! published HP-C2200A figures (1449 cylinders, 14.9 ms revolution), the
//! drive the paper simulates.
//!
//! The kernel is deliberately generic: it knows nothing about R\*-trees or
//! similarity queries. `sqda-core` drives it by scheduling events for each
//! query's state machine.

#![forbid(unsafe_code)]

mod arrivals;
mod bus;
mod cpu;
mod disk;
mod events;
pub mod fault;
mod params;
mod rng;
mod stats;
mod time;

pub use arrivals::PoissonArrivals;
pub use bus::Bus;
pub use cpu::{cpu_instructions_for_batch, Cpu};
pub use disk::{Disk, DiskParams, DiskServiceDetail};
pub use events::{ArrivalMerge, EventQueue, Popped};
pub use fault::{DiskFault, DiskFaultProfile, FaultPlan, RetryPolicy};
pub use params::SystemParams;
pub use rng::SeedSequence;
pub use stats::UtilizationTracker;
pub use time::SimTime;
