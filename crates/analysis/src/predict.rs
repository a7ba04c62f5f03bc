//! The shared end-to-end k-NN prediction: tree profile + system
//! parameters → expected accesses, batch structure, utilization and
//! response time.
//!
//! This is the single funnel every consumer goes through — the `sqda
//! estimate` and `sqda explain` commands, the serve-time `EXPLAIN` verb,
//! and the `analysis_validation` / `bench_explain` experiments — so they
//! all agree on the batching assumption and the floors applied before
//! the queueing formula.

use crate::{estimate_response, expected_knn_accesses, QueryIoProfile, TreeProfile};
use sqda_simkernel::SystemParams;

/// An analytical prediction for one k-NN query shape.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPrediction {
    /// Expected node accesses (weak-optimal count, ≥ 1: the root).
    pub accesses: f64,
    /// Assumed sequential fetch rounds: a CRSS-style plan activates
    /// about one page per disk per round but needs at least one round
    /// per tree level.
    pub batches: f64,
    /// Predicted per-disk utilization `ρ`.
    pub utilization: f64,
    /// Predicted mean response time; `None` when `ρ ≥ 1` (unstable).
    pub response_s: Option<f64>,
}

impl From<QueryPrediction> for sqda_obs::Prediction {
    /// The record an introspected query carries: the response in ms,
    /// infinite when the model says the array saturates.
    fn from(p: QueryPrediction) -> Self {
        Self {
            accesses: p.accesses,
            batches: p.batches,
            utilization: p.utilization,
            response_ms: p.response_s.map_or(f64::INFINITY, |r| r * 1e3),
        }
    }
}

/// Predicts a k-NN query on the profiled tree under `params` at arrival
/// rate `lambda` (> 0) per second. `height` is the tree height in
/// levels, the floor on the number of fetch rounds. `None` for a
/// degenerate (zero-volume) data space, where no access estimate exists.
pub fn predict_knn(
    profile: &TreeProfile,
    params: &SystemParams,
    height: u32,
    k: usize,
    lambda: f64,
) -> Option<QueryPrediction> {
    assert!(lambda > 0.0, "arrival rate must be positive");
    let accesses = expected_knn_accesses(profile, k)?;
    let disks = params.num_disks as f64;
    let io = QueryIoProfile {
        accesses,
        batches: (accesses / disks).max(height as f64).max(1.0),
    };
    let estimate = estimate_response(params, io, lambda);
    Some(QueryPrediction {
        accesses,
        batches: io.batches,
        utilization: estimate.utilization,
        response_s: estimate.response_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LevelProfile;

    fn profile() -> TreeProfile {
        TreeProfile {
            dim: 2,
            num_objects: 10_000,
            space_extent: vec![1.0, 1.0],
            levels: vec![
                LevelProfile {
                    level: 0,
                    nodes: 100,
                    mean_extent: vec![0.1, 0.1],
                },
                LevelProfile {
                    level: 1,
                    nodes: 1,
                    mean_extent: vec![1.0, 1.0],
                },
            ],
        }
    }

    #[test]
    fn prediction_floors_batches_at_height() {
        let p = predict_knn(&profile(), &SystemParams::with_disks(10), 2, 10, 0.1).unwrap();
        assert!(p.accesses >= 1.0);
        // Few expected accesses on 10 disks: the height floor binds.
        assert_eq!(p.batches, 2.0);
        assert!(p.utilization > 0.0 && p.utilization < 1.0);
        assert!(p.response_s.unwrap() > 0.0);
    }

    #[test]
    fn prediction_matches_manual_composition() {
        let prof = profile();
        let params = SystemParams::with_disks(4);
        let p = predict_knn(&prof, &params, 3, 50, 2.0).unwrap();
        let accesses = expected_knn_accesses(&prof, 50).unwrap();
        let io = QueryIoProfile {
            accesses,
            batches: (accesses / 4.0).max(3.0),
        };
        let est = estimate_response(&params, io, 2.0);
        assert_eq!(p.accesses, accesses);
        assert_eq!(p.batches, io.batches);
        assert_eq!(p.utilization, est.utilization);
        assert_eq!(p.response_s, est.response_s);
    }

    #[test]
    fn degenerate_space_has_no_prediction() {
        let mut prof = profile();
        prof.space_extent = vec![0.0, 0.0];
        assert!(predict_knn(&prof, &SystemParams::with_disks(2), 1, 5, 1.0).is_none());
    }

    #[test]
    fn saturated_prediction_reports_utilization() {
        let p = predict_knn(&profile(), &SystemParams::with_disks(1), 2, 100, 500.0).unwrap();
        assert!(p.utilization >= 1.0);
        assert_eq!(p.response_s, None);
        // An introspected query records the saturation as an infinite
        // response; a stable prediction converts seconds to ms.
        let saturated = sqda_obs::Prediction::from(p.clone());
        assert_eq!(saturated.response_ms, f64::INFINITY);
        assert_eq!(
            (saturated.accesses, saturated.utilization),
            (p.accesses, p.utilization)
        );
        let stable = QueryPrediction {
            response_s: Some(0.25),
            ..p
        };
        assert_eq!(sqda_obs::Prediction::from(stable).response_ms, 250.0);
    }
}
