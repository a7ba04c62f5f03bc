//! Per-query profiles: everything one query did, folded from the event
//! stream — node counts per tree level, response-time component
//! breakdown, and the CRSS threshold trajectory when present.

use crate::event::{Event, QueryId};
use crate::json::{f64_array, u64_array, ObjWriter};
use std::collections::BTreeMap;

/// The component breakdown of one query's response time. Components are
/// summed over the query's requests and can overlap in wall-clock time
/// (parallel disk fetches), so they add up to ≥ the critical path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Breakdown {
    /// Time requests waited in disk queues, ns.
    pub disk_queue_ns: u64,
    /// Seek time, ns.
    pub seek_ns: u64,
    /// Rotational latency, ns.
    pub rotation_ns: u64,
    /// Platter transfer + controller overhead, ns.
    pub transfer_ns: u64,
    /// Time pages waited for the bus, ns.
    pub bus_queue_ns: u64,
    /// Bus transfer time, ns.
    pub bus_ns: u64,
    /// Time batches waited for a CPU, ns.
    pub cpu_queue_ns: u64,
    /// CPU execution time, ns.
    pub cpu_ns: u64,
}

/// One point of a CRSS query's threshold trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrssPoint {
    /// Simulated timestamp, ns.
    pub ts_ns: u64,
    /// Squared threshold distance (may be infinite early on).
    pub d_th_sq: f64,
    /// Runs on the candidate stack.
    pub stack_runs: u32,
    /// Saved candidates across all runs.
    pub stack_candidates: u32,
}

/// The profile of a single query, reconstructed from its events.
#[derive(Debug, Clone, Default)]
pub struct QueryProfile {
    /// Workload index.
    pub query: QueryId,
    /// Arrival timestamp, ns.
    pub arrive_ns: u64,
    /// Completion timestamp, ns (0 if the query never completed).
    pub complete_ns: u64,
    /// Arrival-to-completion response time, ns.
    pub response_ns: u64,
    /// Nodes fetched per tree level (index = level, root = 0).
    pub nodes_per_level: Vec<u64>,
    /// Fetch batches issued.
    pub batches: u32,
    /// Response-time component breakdown.
    pub breakdown: Breakdown,
    /// CRSS threshold/stack trajectory (empty for other algorithms).
    pub crss_trajectory: Vec<CrssPoint>,
}

impl QueryProfile {
    /// Total nodes fetched across all levels.
    pub fn total_nodes(&self) -> u64 {
        self.nodes_per_level.iter().sum()
    }

    /// Renders the profile as one JSON object.
    pub fn to_json(&self) -> String {
        let mut o = ObjWriter::new();
        o.field_u64("query", self.query as u64);
        o.field_u64("arrive_ns", self.arrive_ns);
        o.field_u64("complete_ns", self.complete_ns);
        o.field_u64("response_ns", self.response_ns);
        o.field_u64("batches", self.batches as u64);
        o.field_raw("nodes_per_level", &u64_array(&self.nodes_per_level));
        let b = &self.breakdown;
        let mut bo = ObjWriter::new();
        bo.field_u64("disk_queue_ns", b.disk_queue_ns);
        bo.field_u64("seek_ns", b.seek_ns);
        bo.field_u64("rotation_ns", b.rotation_ns);
        bo.field_u64("transfer_ns", b.transfer_ns);
        bo.field_u64("bus_queue_ns", b.bus_queue_ns);
        bo.field_u64("bus_ns", b.bus_ns);
        bo.field_u64("cpu_queue_ns", b.cpu_queue_ns);
        bo.field_u64("cpu_ns", b.cpu_ns);
        o.field_raw("breakdown", &bo.finish());
        if !self.crss_trajectory.is_empty() {
            let ts: Vec<u64> = self.crss_trajectory.iter().map(|p| p.ts_ns).collect();
            let d: Vec<f64> = self.crss_trajectory.iter().map(|p| p.d_th_sq).collect();
            let runs: Vec<u64> = self
                .crss_trajectory
                .iter()
                .map(|p| p.stack_runs as u64)
                .collect();
            let cands: Vec<u64> = self
                .crss_trajectory
                .iter()
                .map(|p| p.stack_candidates as u64)
                .collect();
            let mut t = ObjWriter::new();
            t.field_raw("ts_ns", &u64_array(&ts));
            t.field_raw("d_th_sq", &f64_array(&d));
            t.field_raw("stack_runs", &u64_array(&runs));
            t.field_raw("stack_candidates", &u64_array(&cands));
            o.field_raw("crss", &t.finish());
        }
        o.finish()
    }
}

/// Folds an event stream into per-query profiles, in query-index order.
pub fn query_profiles(events: &[(u64, Event)]) -> Vec<QueryProfile> {
    let mut map: BTreeMap<QueryId, QueryProfile> = BTreeMap::new();
    for &(ts, ref ev) in events {
        // Disk-level fault events belong to no query.
        let Some(q) = ev.query() else { continue };
        let p = map.entry(q).or_insert_with(|| QueryProfile {
            query: q,
            ..QueryProfile::default()
        });
        match *ev {
            Event::QueryArrive { .. } => p.arrive_ns = ts,
            Event::QueryComplete {
                response_ns,
                batches,
                disk_queue_ns,
                seek_ns,
                rotation_ns,
                transfer_ns,
                bus_queue_ns,
                bus_ns,
                cpu_queue_ns,
                cpu_ns,
                ..
            } => {
                p.complete_ns = ts;
                p.response_ns = response_ns;
                p.batches = batches;
                p.breakdown = Breakdown {
                    disk_queue_ns,
                    seek_ns,
                    rotation_ns,
                    transfer_ns,
                    bus_queue_ns,
                    bus_ns,
                    cpu_queue_ns,
                    cpu_ns,
                };
            }
            Event::DiskService { level, .. } => {
                let lvl = level as usize;
                if p.nodes_per_level.len() <= lvl {
                    p.nodes_per_level.resize(lvl + 1, 0);
                }
                p.nodes_per_level[lvl] += 1;
            }
            Event::CrssState {
                d_th_sq,
                stack_runs,
                stack_candidates,
                ..
            } => p.crss_trajectory.push(CrssPoint {
                ts_ns: ts,
                d_th_sq,
                stack_runs,
                stack_candidates,
            }),
            Event::BatchIssued { .. }
            | Event::BusTransfer { .. }
            | Event::CpuSlice { .. }
            | Event::DegradedRead { .. }
            | Event::ReadRetry { .. }
            | Event::QueryAbort { .. } => {}
            // Filtered by the query() guard above.
            Event::DiskFailed { .. } | Event::DiskRecovered { .. } | Event::DiskDegraded { .. } => {
            }
        }
    }
    map.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn profiles_fold_levels_and_breakdown() {
        let events = vec![
            (100, Event::QueryArrive { query: 2 }),
            (
                200,
                Event::DiskService {
                    query: 2,
                    disk: 0,
                    cylinder: 0,
                    level: 0,
                    queue_ns: 1,
                    seek_ns: 2,
                    rotation_ns: 3,
                    transfer_ns: 4,
                    queue_depth: 0,
                },
            ),
            (
                300,
                Event::DiskService {
                    query: 2,
                    disk: 1,
                    cylinder: 0,
                    level: 2,
                    queue_ns: 1,
                    seek_ns: 2,
                    rotation_ns: 3,
                    transfer_ns: 4,
                    queue_depth: 0,
                },
            ),
            (
                350,
                Event::CrssState {
                    query: 2,
                    d_th_sq: 4.0,
                    stack_runs: 1,
                    stack_candidates: 3,
                },
            ),
            (
                400,
                Event::QueryComplete {
                    query: 2,
                    response_ns: 300,
                    nodes: 2,
                    batches: 2,
                    disk_queue_ns: 2,
                    seek_ns: 4,
                    rotation_ns: 6,
                    transfer_ns: 8,
                    bus_queue_ns: 0,
                    bus_ns: 10,
                    cpu_queue_ns: 0,
                    cpu_ns: 12,
                },
            ),
        ];
        let profiles = query_profiles(&events);
        assert_eq!(profiles.len(), 1);
        let p = &profiles[0];
        assert_eq!(p.query, 2);
        assert_eq!(p.arrive_ns, 100);
        assert_eq!(p.complete_ns, 400);
        assert_eq!(p.nodes_per_level, vec![1, 0, 1]);
        assert_eq!(p.total_nodes(), 2);
        assert_eq!(p.breakdown.seek_ns, 4);
        assert_eq!(p.crss_trajectory.len(), 1);
        assert_eq!(p.crss_trajectory[0].stack_candidates, 3);

        let doc = parse(&p.to_json()).unwrap();
        assert_eq!(doc.get("response_ns").unwrap().as_u64(), Some(300));
        let levels = doc.get("nodes_per_level").unwrap().as_arr().unwrap();
        assert_eq!(levels.len(), 3);
        assert!(doc.get("crss").is_some());
    }
}
