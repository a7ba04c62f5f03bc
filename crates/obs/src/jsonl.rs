//! JSONL event-log sink: one JSON object per line, in emission order.
//!
//! Line schema: `{"ts":<ns>,"type":"<kind>", ...fields}` — `ts` is
//! simulated time in integer nanoseconds, fields are the event's scalars
//! with `_ns` duration suffixes preserved. The rendering is canonical
//! (fixed field order, shortest float repr), so a deterministic run
//! produces byte-identical logs — the golden-file tests depend on this.

use crate::event::Event;
use crate::json::ObjWriter;

/// Renders one event as its canonical JSONL line (no trailing newline).
pub fn event_to_json(ts_ns: u64, event: &Event) -> String {
    let mut o = ObjWriter::new();
    o.field_u64("ts", ts_ns);
    o.field_str("type", event.kind());
    match *event {
        Event::QueryArrive { query } => {
            o.field_u64("query", query as u64);
        }
        Event::QueryComplete {
            query,
            response_ns,
            nodes,
            batches,
            disk_queue_ns,
            seek_ns,
            rotation_ns,
            transfer_ns,
            bus_queue_ns,
            bus_ns,
            cpu_queue_ns,
            cpu_ns,
        } => {
            o.field_u64("query", query as u64);
            o.field_u64("response_ns", response_ns);
            o.field_u64("nodes", nodes);
            o.field_u64("batches", batches as u64);
            o.field_u64("disk_queue_ns", disk_queue_ns);
            o.field_u64("seek_ns", seek_ns);
            o.field_u64("rotation_ns", rotation_ns);
            o.field_u64("transfer_ns", transfer_ns);
            o.field_u64("bus_queue_ns", bus_queue_ns);
            o.field_u64("bus_ns", bus_ns);
            o.field_u64("cpu_queue_ns", cpu_queue_ns);
            o.field_u64("cpu_ns", cpu_ns);
        }
        Event::BatchIssued {
            query,
            level,
            level_max,
            size,
        } => {
            o.field_u64("query", query as u64);
            o.field_u64("level", level as u64);
            // Level-uniform batches (the overwhelmingly common case, and
            // the only one the pre-fault schema could express) omit the
            // redundant field, keeping their lines — and the golden
            // traces — byte-identical to the old schema.
            if level_max != level {
                o.field_u64("level_max", level_max as u64);
            }
            o.field_u64("size", size as u64);
        }
        Event::DiskService {
            query,
            disk,
            cylinder,
            level,
            queue_ns,
            seek_ns,
            rotation_ns,
            transfer_ns,
            queue_depth,
        } => {
            o.field_u64("query", query as u64);
            o.field_u64("disk", disk as u64);
            o.field_u64("cylinder", cylinder as u64);
            o.field_u64("level", level as u64);
            o.field_u64("queue_ns", queue_ns);
            o.field_u64("seek_ns", seek_ns);
            o.field_u64("rotation_ns", rotation_ns);
            o.field_u64("transfer_ns", transfer_ns);
            o.field_u64("queue_depth", queue_depth as u64);
        }
        Event::BusTransfer {
            query,
            queue_ns,
            transfer_ns,
        } => {
            o.field_u64("query", query as u64);
            o.field_u64("queue_ns", queue_ns);
            o.field_u64("transfer_ns", transfer_ns);
        }
        Event::CpuSlice {
            query,
            cpu,
            queue_ns,
            exec_ns,
            instructions,
        } => {
            o.field_u64("query", query as u64);
            o.field_u64("cpu", cpu as u64);
            o.field_u64("queue_ns", queue_ns);
            o.field_u64("exec_ns", exec_ns);
            o.field_u64("instructions", instructions);
        }
        Event::CrssState {
            query,
            d_th_sq,
            stack_runs,
            stack_candidates,
        } => {
            o.field_u64("query", query as u64);
            o.field_f64("d_th_sq", d_th_sq);
            o.field_u64("stack_runs", stack_runs as u64);
            o.field_u64("stack_candidates", stack_candidates as u64);
        }
        Event::DiskFailed { disk } => {
            o.field_u64("disk", disk as u64);
        }
        Event::DiskRecovered { disk } => {
            o.field_u64("disk", disk as u64);
        }
        Event::DiskDegraded {
            disk,
            until_ns,
            multiplier,
            extra_ns,
        } => {
            o.field_u64("disk", disk as u64);
            o.field_u64("until_ns", until_ns);
            o.field_f64("multiplier", multiplier);
            o.field_u64("extra_ns", extra_ns);
        }
        Event::DegradedRead {
            query,
            disk,
            replica,
        } => {
            o.field_u64("query", query as u64);
            o.field_u64("disk", disk as u64);
            o.field_u64("replica", replica as u64);
        }
        Event::ReadRetry {
            query,
            disk,
            attempt,
        } => {
            o.field_u64("query", query as u64);
            o.field_u64("disk", disk as u64);
            o.field_u64("attempt", attempt as u64);
        }
        Event::QueryAbort {
            query,
            disk,
            attempts,
        } => {
            o.field_u64("query", query as u64);
            o.field_u64("disk", disk as u64);
            o.field_u64("attempts", attempts as u64);
        }
    }
    o.finish()
}

/// Renders a whole event stream as a JSONL document.
pub fn events_to_jsonl(events: &[(u64, Event)]) -> String {
    let mut out = String::new();
    for (ts, ev) in events {
        out.push_str(&event_to_json(*ts, ev));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn lines_are_valid_json_with_discriminator() {
        let events = vec![
            (0, Event::QueryArrive { query: 0 }),
            (
                1_000,
                Event::DiskService {
                    query: 0,
                    disk: 3,
                    cylinder: 77,
                    level: 1,
                    queue_ns: 0,
                    seek_ns: 4_000_000,
                    rotation_ns: 2_000_000,
                    transfer_ns: 2_000_000,
                    queue_depth: 2,
                },
            ),
            (
                2_000,
                Event::CrssState {
                    query: 0,
                    d_th_sq: f64::INFINITY,
                    stack_runs: 1,
                    stack_candidates: 4,
                },
            ),
        ];
        let text = events_to_jsonl(&events);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let v = parse(lines[1]).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("disk_service"));
        assert_eq!(v.get("disk").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("seek_ns").unwrap().as_u64(), Some(4_000_000));
        // Infinite threshold serializes as null.
        let v2 = parse(lines[2]).unwrap();
        assert_eq!(v2.get("d_th_sq"), Some(&crate::json::Value::Null));
    }

    #[test]
    fn batch_level_max_serialized_only_when_mixed() {
        // Level-uniform: byte-identical to the pre-fault schema.
        let uniform = event_to_json(
            1_000_000,
            &Event::BatchIssued {
                query: 0,
                level: 1,
                level_max: 1,
                size: 3,
            },
        );
        assert_eq!(
            uniform,
            "{\"ts\":1000000,\"type\":\"batch_issued\",\"query\":0,\"level\":1,\"size\":3}"
        );
        // Mixed-level (CRSS candidate-stack pops): range is explicit.
        let mixed = event_to_json(
            1_000_000,
            &Event::BatchIssued {
                query: 0,
                level: 0,
                level_max: 2,
                size: 3,
            },
        );
        let v = parse(&mixed).unwrap();
        assert_eq!(v.get("level").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("level_max").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn fault_events_serialize() {
        let events = vec![
            (5, Event::DiskFailed { disk: 2 }),
            (9, Event::DiskRecovered { disk: 2 }),
            (
                10,
                Event::DiskDegraded {
                    disk: 1,
                    until_ns: 99,
                    multiplier: 2.5,
                    extra_ns: 7,
                },
            ),
            (
                11,
                Event::DegradedRead {
                    query: 3,
                    disk: 0,
                    replica: 2,
                },
            ),
            (
                12,
                Event::ReadRetry {
                    query: 3,
                    disk: 4,
                    attempt: 2,
                },
            ),
            (
                13,
                Event::QueryAbort {
                    query: 3,
                    disk: 4,
                    attempts: 3,
                },
            ),
        ];
        let text = events_to_jsonl(&events);
        let lines: Vec<&str> = text.lines().collect();
        let v = parse(lines[0]).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("disk_failed"));
        assert_eq!(v.get("disk").unwrap().as_u64(), Some(2));
        let v = parse(lines[2]).unwrap();
        assert_eq!(v.get("until_ns").unwrap().as_u64(), Some(99));
        assert_eq!(v.get("multiplier").unwrap().as_f64(), Some(2.5));
        let v = parse(lines[3]).unwrap();
        assert_eq!(v.get("replica").unwrap().as_u64(), Some(2));
        let v = parse(lines[5]).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("query_abort"));
        assert_eq!(v.get("attempts").unwrap().as_u64(), Some(3));
    }
}
