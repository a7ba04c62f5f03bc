//! Whole-system simulation parameters.

use crate::{DiskParams, SimTime};

/// Parameters of the simulated system (Tables 1–2 of the paper).
///
/// Two extensions beyond the paper's RAID-0 baseline implement its
/// "future research" directions: [`SystemParams::mirrored_reads`]
/// (shadowed disks, RAID-1 read balancing) and
/// [`SystemParams::num_cpus`] (a shared-memory multiprocessor front
/// end).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemParams {
    /// Number of disks in the RAID-0 array.
    pub num_disks: u32,
    /// CPU execution speed in MIPS (Table 1: 100).
    pub cpu_mips: f64,
    /// Number of processors. 1 reproduces the paper; more implements the
    /// paper's shared-memory-multiprocessor future-work scenario: each
    /// batch is handled by the least-loaded CPU.
    pub num_cpus: u32,
    /// Fixed query startup cost in seconds (Table 1: 0.001 s).
    pub query_startup_s: f64,
    /// Time to move one page across the shared I/O bus, in ms.
    pub bus_transfer_ms: f64,
    /// Per-drive characteristics (Table 2, HP-C2200A).
    pub disk: DiskParams,
    /// Shadowed (mirrored) disks: disks are paired `(d, d + num_disks/2)`
    /// for `d < num_disks/2` and every page has a replica on its disk's
    /// partner; each read is served by whichever disk of the pair frees
    /// up first (with an odd array the last disk is unpaired). `false`
    /// reproduces the paper's RAID-0 system.
    pub mirrored_reads: bool,
}

impl Default for SystemParams {
    fn default() -> Self {
        Self {
            num_disks: 10,
            cpu_mips: 100.0,
            num_cpus: 1,
            query_startup_s: 0.001,
            bus_transfer_ms: 0.4,
            disk: DiskParams::default(),
            mirrored_reads: false,
        }
    }
}

impl SystemParams {
    /// Convenience constructor varying only the number of disks.
    pub fn with_disks(num_disks: u32) -> Self {
        Self {
            num_disks,
            ..Self::default()
        }
    }

    /// The query startup cost as simulated time.
    pub fn query_startup(&self) -> SimTime {
        SimTime::from_secs_f64(self.query_startup_s)
    }

    /// The bus transfer time as simulated time.
    pub fn bus_transfer(&self) -> SimTime {
        SimTime::from_millis_f64(self.bus_transfer_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_tables() {
        let p = SystemParams::default();
        assert_eq!(p.cpu_mips, 100.0);
        assert_eq!(p.query_startup_s, 0.001);
        assert_eq!(p.disk.num_cylinders, 1449);
        assert_eq!(p.disk.revolution_time_s, 0.0149);
    }

    #[test]
    fn with_disks_overrides_count_only() {
        let p = SystemParams::with_disks(40);
        assert_eq!(p.num_disks, 40);
        assert_eq!(p.cpu_mips, 100.0);
    }

    #[test]
    fn time_conversions() {
        let p = SystemParams::default();
        assert_eq!(p.query_startup(), SimTime::from_millis_f64(1.0));
        assert_eq!(p.bus_transfer(), SimTime::from_nanos(400_000));
    }
}
