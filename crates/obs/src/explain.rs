//! Structured per-query EXPLAIN/ANALYZE records.
//!
//! A [`QueryExplain`] is the introspection record of one executed
//! similarity query: what the engine *observed* (per-level node
//! accesses, batch sizes, the lemma-1 threshold trajectory, the
//! per-disk read distribution, cache behaviour and the queue/service
//! time breakdown) next to what the analytical model of the paper
//! *predicted* for it (`expected_knn_accesses` node count and
//! `estimate_response` latency, filled in by the caller from a
//! `TreeProfile` — this crate stays free of the analysis vocabulary),
//! plus the residuals between the two.
//!
//! The record renders as one line of JSON whose scalar comparison keys
//! carry `observed_*` / `predicted_*` / `residual_*` prefixes; the
//! serve `EXPLAIN` verb replies with exactly this line and the
//! slow-query log embeds it verbatim, so the schema is pinned by a
//! golden test below.
//!
//! The real-clock engine fills one record for every query it serves,
//! explained or not, and hands it to the live registry
//! ([`LiveTelemetry::observe_query`](crate::LiveTelemetry::observe_query))
//! at completion: `EXPLAIN` differs from `QUERY` only in returning a copy.

use crate::json::{f64_array, u64_array, ObjWriter};

/// What the analytical model predicted for one query. All costs are
/// plain numbers so `sqda-obs` needs no dependency on the analysis
/// crate; callers fill this from `TreeProfile`-derived estimates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Predicted node accesses (`expected_knn_accesses`).
    pub accesses: f64,
    /// Predicted fetch batches (≈ accesses / disks, floored at the
    /// tree height).
    pub batches: f64,
    /// Predicted per-disk utilization at the assumed arrival rate.
    pub utilization: f64,
    /// Predicted response time, ms. Non-finite when the model says the
    /// system saturates at the assumed arrival rate (renders as
    /// `null`).
    pub response_ms: f64,
}

/// The introspection record of one executed query: observations,
/// predictions and residuals, rendered as one line of JSON.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryExplain {
    /// Global serving id of the query.
    pub query: u32,
    /// Algorithm that ran it (e.g. `CRSS`).
    pub algo: String,
    /// Requested neighbour count.
    pub k: usize,
    /// Answers produced.
    pub answers: usize,
    /// Index nodes fetched (the paper's node-accesses measure).
    pub nodes: u64,
    /// Fetch batches issued.
    pub batches: u32,
    /// Node accesses per tree level, index 0 = the root level,
    /// ascending depth.
    pub level_accesses: Vec<u64>,
    /// Pages per fetch batch, in issue order.
    pub batch_sizes: Vec<u32>,
    /// Lemma-1 pruning threshold (`d_th`, distance units) after each
    /// batch, for algorithms that expose it (CRSS); empty otherwise.
    /// Unbounded thresholds are `INFINITY` (render as `null`).
    pub threshold_trajectory: Vec<f64>,
    /// Physical reads per disk issued for this query.
    pub reads_per_disk: Vec<u64>,
    /// Node lookups served by the decoded-node cache.
    pub cache_hits: u64,
    /// Node lookups that went to the store.
    pub cache_misses: u64,
    /// Pickup-to-completion response time, ms.
    pub response_ms: f64,
    /// Total time requests waited in disk queues, ms.
    pub disk_queue_ms: f64,
    /// Total disk service time, ms.
    pub disk_service_ms: f64,
    /// Total CPU execution time, ms.
    pub cpu_ms: f64,
    /// Arrival rate (queries/s) the prediction assumed.
    pub lambda: f64,
    /// Whether the prediction used device-calibrated service terms.
    pub calibrated: bool,
    /// The analytical prediction, when the caller could compute one.
    pub predicted: Option<Prediction>,
    /// Whether the query aborted with a typed error. Only the live
    /// registry sees such a record (it counts the abort and the rounds
    /// issued); the JSON rendering leaves the flag out.
    pub failed: bool,
}

impl QueryExplain {
    /// Empties the record for query `query` of `algo` asking `k` over an
    /// array of `disks` disks, keeping its buffers: a record refilled
    /// query after query allocates nothing once it has grown.
    pub fn reset(&mut self, query: u32, algo: &str, k: usize, disks: usize) {
        let mut kept = std::mem::take(self);
        kept.algo.clear();
        kept.algo.push_str(algo);
        kept.level_accesses.clear();
        kept.batch_sizes.clear();
        kept.threshold_trajectory.clear();
        kept.reads_per_disk.clear();
        kept.reads_per_disk.resize(disks, 0);
        *self = QueryExplain {
            query,
            algo: kept.algo,
            k,
            level_accesses: kept.level_accesses,
            batch_sizes: kept.batch_sizes,
            threshold_trajectory: kept.threshold_trajectory,
            reads_per_disk: kept.reads_per_disk,
            ..QueryExplain::default()
        };
    }

    /// Observed minus predicted node accesses (`None` without a
    /// prediction).
    pub fn residual_accesses(&self) -> Option<f64> {
        self.predicted.map(|p| self.nodes as f64 - p.accesses)
    }

    /// Observed minus predicted response time, ms (`None` without a
    /// prediction or when the model predicted saturation).
    pub fn residual_response_ms(&self) -> Option<f64> {
        self.predicted
            .filter(|p| p.response_ms.is_finite())
            .map(|p| self.response_ms - p.response_ms)
    }

    /// Renders the record as one line of JSON. The `predicted_*` and
    /// `residual_*` keys are always present (`null` without a
    /// prediction) so consumers can key on the schema, not on
    /// optionality.
    pub fn to_json(&self) -> String {
        let mut w = ObjWriter::new();
        w.field_u64("query", self.query as u64);
        w.field_str("algo", &self.algo);
        w.field_u64("k", self.k as u64);
        w.field_u64("answers", self.answers as u64);
        w.field_u64("observed_accesses", self.nodes);
        w.field_u64("observed_batches", self.batches as u64);
        w.field_f64("observed_response_ms", self.response_ms);
        w.field_f64("observed_disk_queue_ms", self.disk_queue_ms);
        w.field_f64("observed_disk_service_ms", self.disk_service_ms);
        w.field_f64("observed_cpu_ms", self.cpu_ms);
        w.field_raw("level_accesses", &u64_array(&self.level_accesses));
        w.field_raw(
            "batch_sizes",
            &u64_array(
                &self
                    .batch_sizes
                    .iter()
                    .map(|&b| b as u64)
                    .collect::<Vec<_>>(),
            ),
        );
        w.field_raw(
            "threshold_trajectory",
            &f64_array(&self.threshold_trajectory),
        );
        w.field_raw("reads_per_disk", &u64_array(&self.reads_per_disk));
        w.field_u64("cache_hits", self.cache_hits);
        w.field_u64("cache_misses", self.cache_misses);
        w.field_f64("lambda", self.lambda);
        w.field_bool("calibrated", self.calibrated);
        match self.predicted {
            Some(p) => {
                w.field_f64("predicted_accesses", p.accesses);
                w.field_f64("predicted_batches", p.batches);
                w.field_f64("predicted_utilization", p.utilization);
                w.field_f64("predicted_response_ms", p.response_ms);
            }
            None => {
                w.field_raw("predicted_accesses", "null");
                w.field_raw("predicted_batches", "null");
                w.field_raw("predicted_utilization", "null");
                w.field_raw("predicted_response_ms", "null");
            }
        }
        w.field_f64(
            "residual_accesses",
            self.residual_accesses().unwrap_or(f64::NAN),
        );
        w.field_f64(
            "residual_response_ms",
            self.residual_response_ms().unwrap_or(f64::NAN),
        );
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn fixture() -> QueryExplain {
        // A fixed 2-disk fixture: the golden below pins the exact JSON
        // schema the serve EXPLAIN verb and the CI smoke probe key on.
        QueryExplain {
            query: 7,
            algo: "CRSS".into(),
            k: 5,
            answers: 5,
            nodes: 9,
            batches: 3,
            level_accesses: vec![1, 2, 6],
            batch_sizes: vec![1, 2, 6],
            threshold_trajectory: vec![f64::INFINITY, 0.25, 0.125],
            reads_per_disk: vec![5, 4],
            cache_hits: 2,
            cache_misses: 7,
            response_ms: 4.5,
            disk_queue_ms: 0.75,
            disk_service_ms: 3.0,
            cpu_ms: 0.25,
            lambda: 5.0,
            calibrated: true,
            predicted: Some(Prediction {
                accesses: 8.5,
                batches: 4.25,
                utilization: 0.375,
                response_ms: 4.0,
            }),
            failed: false,
        }
    }

    #[test]
    fn golden_explain_json_schema() {
        let golden = concat!(
            r#"{"query":7,"algo":"CRSS","k":5,"answers":5,"#,
            r#""observed_accesses":9,"observed_batches":3,"#,
            r#""observed_response_ms":4.5,"observed_disk_queue_ms":0.75,"#,
            r#""observed_disk_service_ms":3,"observed_cpu_ms":0.25,"#,
            r#""level_accesses":[1,2,6],"batch_sizes":[1,2,6],"#,
            r#""threshold_trajectory":[null,0.25,0.125],"#,
            r#""reads_per_disk":[5,4],"cache_hits":2,"cache_misses":7,"#,
            r#""lambda":5,"calibrated":true,"#,
            r#""predicted_accesses":8.5,"predicted_batches":4.25,"#,
            r#""predicted_utilization":0.375,"predicted_response_ms":4,"#,
            r#""residual_accesses":0.5,"residual_response_ms":0.5}"#,
        );
        assert_eq!(fixture().to_json(), golden, "EXPLAIN schema drifted");
    }

    #[test]
    fn json_parses_and_residuals_match() {
        let e = fixture();
        let doc = parse(&e.to_json()).unwrap();
        assert_eq!(doc.get("observed_accesses").unwrap().as_u64(), Some(9));
        assert_eq!(doc.get("predicted_accesses").unwrap().as_f64(), Some(8.5));
        assert_eq!(doc.get("residual_accesses").unwrap().as_f64(), Some(0.5));
        assert_eq!(e.residual_accesses(), Some(0.5));
        assert_eq!(e.residual_response_ms(), Some(0.5));
        // Unbounded first threshold renders as null.
        let traj = doc.get("threshold_trajectory").unwrap().as_arr().unwrap();
        assert_eq!(traj[0], crate::json::Value::Null);
    }

    #[test]
    fn unpredicted_record_keeps_schema_with_nulls() {
        let mut e = fixture();
        e.predicted = None;
        let doc = parse(&e.to_json()).unwrap();
        assert_eq!(
            doc.get("predicted_accesses"),
            Some(&crate::json::Value::Null)
        );
        assert_eq!(
            doc.get("residual_accesses"),
            Some(&crate::json::Value::Null)
        );
        assert_eq!(e.residual_accesses(), None);
        assert_eq!(e.residual_response_ms(), None);
    }

    #[test]
    fn reset_empties_the_record_and_keeps_its_buffers() {
        let mut e = fixture();
        e.failed = true;
        let kept = e.batch_sizes.as_ptr();
        e.reset(8, "FRONTIER", 3, 4);
        assert_eq!(
            e,
            QueryExplain {
                query: 8,
                algo: "FRONTIER".into(),
                k: 3,
                reads_per_disk: vec![0; 4],
                ..QueryExplain::default()
            }
        );
        assert_eq!(e.batch_sizes.as_ptr(), kept, "the buffer was reused");
    }

    #[test]
    fn saturated_prediction_has_null_latency_residual() {
        let mut e = fixture();
        e.predicted = Some(Prediction {
            accesses: 8.5,
            batches: 4.25,
            utilization: 1.25,
            response_ms: f64::INFINITY,
        });
        assert_eq!(e.residual_accesses(), Some(0.5));
        assert_eq!(e.residual_response_ms(), None);
        let doc = parse(&e.to_json()).unwrap();
        assert_eq!(
            doc.get("predicted_response_ms"),
            Some(&crate::json::Value::Null)
        );
    }
}
