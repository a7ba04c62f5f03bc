//! Device calibration: fitting the disk service-time model from
//! observed executions instead of data-sheet constants.
//!
//! [`DiskServiceModel`] is derived from Table 2 drive parameters; real
//! drives (and the real-clock backend's actual I/O path) drift from
//! those constants. A [`DeviceCalibration`] closes the loop: it fits the
//! three service-time terms — mean seek, mean rotational latency, fixed
//! transfer + controller overhead — from observation, persists them as
//! `calibration.json` beside the store, and re-parameterizes a
//! [`SystemParams`] so every downstream estimator ([`estimate_response`],
//! [`predict_knn`]) predicts with the fitted terms.
//!
//! Two fitting paths cover the two execution worlds:
//!
//! * [`DeviceCalibration::fit_from_events`] — from a recorded event
//!   trace (simulation or flight-recorder replay) whose `DiskService`
//!   events carry separable seek / rotation / transfer components;
//! * [`DeviceCalibration::fit_from_totals`] — from live per-disk
//!   aggregates (request count + busy time), which only constrain the
//!   *total* mean service time; the three terms are apportioned by the
//!   ratios of a reference model.
//!
//! [`estimate_response`]: crate::estimate_response
//! [`predict_knn`]: crate::predict_knn

use crate::DiskServiceModel;
use sqda_obs::json::{self, ObjWriter, Value};
use sqda_obs::Event;
use sqda_simkernel::SystemParams;
use std::path::{Path, PathBuf};

/// Version pinned into `calibration.json` so readers can reject files
/// written by a future, incompatible schema.
pub const CALIBRATION_SCHEMA: u64 = 1;

/// Fitted disk service-time terms, with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceCalibration {
    /// Disk requests the fit is based on.
    pub samples: u64,
    /// Fitted mean seek time per request, seconds.
    pub mean_seek_s: f64,
    /// Fitted mean rotational latency per request, seconds.
    pub mean_rotation_s: f64,
    /// Fitted transfer + controller overhead per request, seconds.
    pub fixed_s: f64,
    /// Where the samples came from: `"trace"` (separable event
    /// components) or `"live"` (totals apportioned by a reference model).
    pub source: String,
}

impl DeviceCalibration {
    /// Fitted mean total service time per request.
    pub fn mean_service_s(&self) -> f64 {
        self.mean_seek_s + self.mean_rotation_s + self.fixed_s
    }

    /// Fits the three terms from a recorded event stream by averaging
    /// the separable components of every `DiskService` event. `None`
    /// when the stream contains no disk services.
    pub fn fit_from_events(events: &[(u64, Event)]) -> Option<Self> {
        let mut n = 0u64;
        let (mut seek, mut rotation, mut transfer) = (0u128, 0u128, 0u128);
        for (_, event) in events {
            if let Event::DiskService {
                seek_ns,
                rotation_ns,
                transfer_ns,
                ..
            } = event
            {
                n += 1;
                seek += *seek_ns as u128;
                rotation += *rotation_ns as u128;
                transfer += *transfer_ns as u128;
            }
        }
        if n == 0 {
            return None;
        }
        let mean = |sum: u128| sum as f64 / n as f64 / 1e9;
        Some(Self {
            samples: n,
            mean_seek_s: mean(seek),
            mean_rotation_s: mean(rotation),
            fixed_s: mean(transfer),
            source: "trace".to_string(),
        })
    }

    /// Fits from live aggregates: `requests` reads totalling `busy_ns`
    /// of device service time. The totals pin the *mean service time*
    /// exactly; the split into seek / rotation / fixed follows the
    /// `reference` model's proportions (the real backend cannot observe
    /// head movement separately). `None` when no requests were served.
    pub fn fit_from_totals(
        requests: u64,
        busy_ns: u64,
        reference: &DiskServiceModel,
    ) -> Option<Self> {
        if requests == 0 {
            return None;
        }
        let observed = busy_ns as f64 / requests as f64 / 1e9;
        let total = reference.mean_service_s();
        let scale = if total > 0.0 { observed / total } else { 0.0 };
        Some(Self {
            samples: requests,
            mean_seek_s: reference.mean_seek_s * scale,
            mean_rotation_s: reference.mean_rotation_s * scale,
            fixed_s: reference.fixed_s * scale,
            source: "live".to_string(),
        })
    }

    /// Re-parameterizes `base` so that [`DiskServiceModel::from_params`]
    /// of the result reproduces the fitted terms:
    ///
    /// * all four seek coefficients are scaled by one factor — the seek
    ///   curve is linear in them, so the integrated mean seek scales
    ///   exactly;
    /// * the revolution time becomes twice the fitted mean rotation;
    /// * transfer and controller overhead are scaled together to the
    ///   fitted fixed term.
    pub fn apply(&self, base: &SystemParams) -> SystemParams {
        let mut params = base.clone();
        let reference = DiskServiceModel::from_params(&base.disk);
        if reference.mean_seek_s > 0.0 {
            let scale = self.mean_seek_s / reference.mean_seek_s;
            params.disk.c1_ms *= scale;
            params.disk.c2_ms *= scale;
            params.disk.c3_ms *= scale;
            params.disk.c4_ms *= scale;
        }
        params.disk.revolution_time_s = 2.0 * self.mean_rotation_s;
        if reference.fixed_s > 0.0 {
            let scale = self.fixed_s / reference.fixed_s;
            params.disk.transfer_ms *= scale;
            params.disk.controller_overhead_ms *= scale;
        }
        params
    }

    /// Renders the calibration as one-line JSON (the `calibration.json`
    /// schema; `mean_service_s` is included redundantly for readers that
    /// only need the total).
    pub fn to_json(&self) -> String {
        let mut o = ObjWriter::new();
        o.field_u64("schema", CALIBRATION_SCHEMA);
        o.field_str("source", &self.source);
        o.field_u64("samples", self.samples);
        o.field_f64("mean_seek_s", self.mean_seek_s);
        o.field_f64("mean_rotation_s", self.mean_rotation_s);
        o.field_f64("fixed_s", self.fixed_s);
        o.field_f64("mean_service_s", self.mean_service_s());
        o.finish()
    }

    /// Parses [`Self::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON, a missing field, or an
    /// unknown schema version.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(Value::as_u64)
            .ok_or("calibration: missing schema")?;
        if schema != CALIBRATION_SCHEMA {
            return Err(format!("calibration: unsupported schema {schema}"));
        }
        let num = |key: &str| {
            doc.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("calibration: missing {key}"))
        };
        Ok(Self {
            samples: doc
                .get("samples")
                .and_then(Value::as_u64)
                .ok_or("calibration: missing samples")?,
            mean_seek_s: num("mean_seek_s")?,
            mean_rotation_s: num("mean_rotation_s")?,
            fixed_s: num("fixed_s")?,
            source: doc
                .get("source")
                .and_then(Value::as_str)
                .ok_or("calibration: missing source")?
                .to_string(),
        })
    }

    /// The conventional location beside a store directory.
    pub fn path_for(store_dir: &Path) -> PathBuf {
        store_dir.join("calibration.json")
    }

    /// Writes `calibration.json` (trailing newline, overwriting) through
    /// [`sqda_storage::write_file_atomic`]: a crash leaves the old file or
    /// the new one, never a torn one.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        sqda_storage::write_file_atomic(path, (self.to_json() + "\n").as_bytes())
    }

    /// Reads and parses a calibration file.
    ///
    /// # Errors
    ///
    /// The read's own error when the file cannot be read, and
    /// [`ErrorKind::InvalidData`](std::io::ErrorKind::InvalidData) when
    /// it is not a calibration this version reads — a truncated file
    /// included. The message names the file.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let named = |kind, detail: &dyn std::fmt::Display| {
            std::io::Error::new(kind, format!("{}: {detail}", path.display()))
        };
        let text = std::fs::read_to_string(path).map_err(|e| named(e.kind(), &e))?;
        Self::from_json(text.trim_end()).map_err(|e| named(std::io::ErrorKind::InvalidData, &e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqda_simkernel::DiskParams;

    fn service_event(seek_ns: u64, rotation_ns: u64, transfer_ns: u64) -> Event {
        Event::DiskService {
            query: 0,
            disk: 0,
            cylinder: 10,
            level: 1,
            queue_ns: 0,
            seek_ns,
            rotation_ns,
            transfer_ns,
            queue_depth: 0,
        }
    }

    #[test]
    fn fit_from_events_averages_components() {
        let events = vec![
            (0, service_event(8_000_000, 7_000_000, 2_000_000)),
            (1, Event::QueryArrive { query: 0 }),
            (2, service_event(4_000_000, 9_000_000, 2_000_000)),
        ];
        let cal = DeviceCalibration::fit_from_events(&events).unwrap();
        assert_eq!(cal.samples, 2);
        assert!((cal.mean_seek_s - 0.006).abs() < 1e-12);
        assert!((cal.mean_rotation_s - 0.008).abs() < 1e-12);
        assert!((cal.fixed_s - 0.002).abs() < 1e-12);
        assert_eq!(cal.source, "trace");
        assert!(DeviceCalibration::fit_from_events(&[]).is_none());
    }

    #[test]
    fn fit_from_totals_apportions_by_reference() {
        let reference = DiskServiceModel {
            mean_seek_s: 0.008,
            mean_rotation_s: 0.007,
            fixed_s: 0.001,
        };
        // Observed mean service 32 ms = 2× the reference's 16 ms.
        let cal = DeviceCalibration::fit_from_totals(100, 3_200_000_000, &reference).unwrap();
        assert_eq!(cal.samples, 100);
        assert!((cal.mean_seek_s - 0.016).abs() < 1e-12);
        assert!((cal.mean_rotation_s - 0.014).abs() < 1e-12);
        assert!((cal.fixed_s - 0.002).abs() < 1e-12);
        assert_eq!(cal.source, "live");
        assert!(DeviceCalibration::fit_from_totals(0, 0, &reference).is_none());
    }

    #[test]
    fn apply_reproduces_fitted_terms_exactly() {
        let cal = DeviceCalibration {
            samples: 500,
            mean_seek_s: 0.004,
            mean_rotation_s: 0.009,
            fixed_s: 0.003,
            source: "trace".to_string(),
        };
        let base = SystemParams::with_disks(8);
        let applied = cal.apply(&base);
        let model = DiskServiceModel::from_params(&applied.disk);
        // Seek scaling is exact (the curve is linear in c1..c4).
        assert!((model.mean_seek_s - 0.004).abs() < 1e-12, "{model:?}");
        assert!((model.mean_rotation_s - 0.009).abs() < 1e-15);
        assert!((model.fixed_s - 0.003).abs() < 1e-15);
        // Non-disk parameters are untouched.
        assert_eq!(applied.num_disks, 8);
        assert_eq!(applied.query_startup_s, base.query_startup_s);
        assert_eq!(
            applied.disk.num_cylinders,
            DiskParams::default().num_cylinders
        );
    }

    #[test]
    fn json_round_trip() {
        let cal = DeviceCalibration {
            samples: 42,
            mean_seek_s: 0.0065,
            mean_rotation_s: 0.00745,
            fixed_s: 0.002,
            source: "live".to_string(),
        };
        let text = cal.to_json();
        assert!(text.starts_with(r#"{"schema":1,"source":"live","samples":42,"#));
        let back = DeviceCalibration::from_json(&text).unwrap();
        assert_eq!(back, cal);
        let doc = json::parse(&text).unwrap();
        let total = doc.get("mean_service_s").unwrap().as_f64().unwrap();
        assert!((total - cal.mean_service_s()).abs() < 1e-15);
    }

    #[test]
    fn from_json_rejects_bad_documents() {
        assert!(DeviceCalibration::from_json("{").is_err());
        assert!(DeviceCalibration::from_json(r#"{"schema":9}"#).is_err());
        assert!(DeviceCalibration::from_json(r#"{"schema":1,"source":"x","samples":1}"#).is_err());
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("sqda-cal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = DeviceCalibration::path_for(&dir);
        let cal = DeviceCalibration {
            samples: 7,
            mean_seek_s: 0.005,
            mean_rotation_s: 0.006,
            fixed_s: 0.001,
            source: "trace".to_string(),
        };
        cal.save(&path).unwrap();
        assert_eq!(DeviceCalibration::load(&path).unwrap(), cal);
        std::fs::remove_dir_all(&dir).ok();
        let gone = DeviceCalibration::load(&path).unwrap_err();
        assert_eq!(gone.kind(), std::io::ErrorKind::NotFound);
    }

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sqda-cal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fitted(samples: u64) -> DeviceCalibration {
        DeviceCalibration {
            samples,
            mean_seek_s: 0.004,
            mean_rotation_s: 0.007,
            fixed_s: 0.002,
            source: "live".to_string(),
        }
    }

    #[test]
    fn save_over_an_existing_file_replaces_it_and_leaves_no_temp() {
        let dir = scratch_dir("replace");
        let path = DeviceCalibration::path_for(&dir);
        fitted(1).save(&path).unwrap();
        fitted(2).save(&path).unwrap();
        assert_eq!(DeviceCalibration::load(&path).unwrap(), fitted(2));
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["calibration.json"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_file_is_a_typed_load_error() {
        let dir = scratch_dir("truncated");
        let path = DeviceCalibration::path_for(&dir);
        fitted(3).save(&path).unwrap();
        let whole = std::fs::read(&path).unwrap();
        // Every proper prefix short of the closing brace: what a torn
        // plain write could have left behind.
        let body = whole.len() - "}\n".len();
        for cut in 0..body {
            std::fs::write(&path, &whole[..cut]).unwrap();
            match DeviceCalibration::load(&path) {
                Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                    assert!(e.to_string().starts_with(&path.display().to_string()));
                }
                other => panic!("{cut} of {} bytes: {other:?}", whole.len()),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
