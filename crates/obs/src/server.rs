//! Serving-layer metric families (`parj_server_*`).
//!
//! [`ServerMetrics`] is the HTTP front door's registry: admission
//! decisions (in-flight gauge, sheds, quota rejects), response counts
//! by status, and request latency. It is owned by the server, not the
//! engine — an engine can outlive many servers and a server can front a
//! replicated engine — and its snapshot merges with the engine's via
//! [`MetricsSnapshot::merge`] for one `/metrics` exposition.
//!
//! The same recording rules as [`crate::EngineMetrics`] apply: fixed
//! label sets are arrays of atomics indexed by enum, so the per-request
//! cost is a handful of relaxed `fetch_add`s.

use crate::metrics::{Counter, Gauge, Histogram};
use crate::snapshot::{
    FamilySnapshot, HistogramSnapshot, MetricKind, MetricsSnapshot, Sample, SampleValue,
};

/// The HTTP statuses the server emits, as a closed label set.
///
/// Closed so the per-status counters stay allocation-free arrays; a
/// status outside the set records under `other` instead of growing the
/// label space (a hostile client must not be able to inflate it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpStatusClass {
    /// 200 OK — query answered.
    Ok200,
    /// 400 Bad Request — malformed HTTP or SPARQL.
    BadRequest400,
    /// 404 Not Found — unknown path.
    NotFound404,
    /// 405 Method Not Allowed.
    MethodNotAllowed405,
    /// 408 Request Timeout — client too slow sending its request.
    RequestTimeout408,
    /// 411 Length Required — POST without Content-Length.
    LengthRequired411,
    /// 413 Payload Too Large — oversized body or row budget exceeded.
    PayloadTooLarge413,
    /// 429 Too Many Requests — shed by admission control or quota.
    TooManyRequests429,
    /// 431 Request Header Fields Too Large.
    HeadersTooLarge431,
    /// 500 Internal Server Error — contained panic or invariant breach.
    Internal500,
    /// 503 Service Unavailable — corrupt store, not ready, or draining.
    Unavailable503,
    /// 504 Gateway Timeout — query deadline exceeded.
    GatewayTimeout504,
    /// Anything else (should not happen; kept so counters never lose a
    /// response).
    Other,
}

impl HttpStatusClass {
    /// All classes, in exposition order.
    pub const ALL: [HttpStatusClass; 13] = [
        HttpStatusClass::Ok200,
        HttpStatusClass::BadRequest400,
        HttpStatusClass::NotFound404,
        HttpStatusClass::MethodNotAllowed405,
        HttpStatusClass::RequestTimeout408,
        HttpStatusClass::LengthRequired411,
        HttpStatusClass::PayloadTooLarge413,
        HttpStatusClass::TooManyRequests429,
        HttpStatusClass::HeadersTooLarge431,
        HttpStatusClass::Internal500,
        HttpStatusClass::Unavailable503,
        HttpStatusClass::GatewayTimeout504,
        HttpStatusClass::Other,
    ];

    /// Classifies a numeric status.
    pub fn from_status(status: u16) -> Self {
        match status {
            200 => HttpStatusClass::Ok200,
            400 => HttpStatusClass::BadRequest400,
            404 => HttpStatusClass::NotFound404,
            405 => HttpStatusClass::MethodNotAllowed405,
            408 => HttpStatusClass::RequestTimeout408,
            411 => HttpStatusClass::LengthRequired411,
            413 => HttpStatusClass::PayloadTooLarge413,
            429 => HttpStatusClass::TooManyRequests429,
            431 => HttpStatusClass::HeadersTooLarge431,
            500 => HttpStatusClass::Internal500,
            503 => HttpStatusClass::Unavailable503,
            504 => HttpStatusClass::GatewayTimeout504,
            _ => HttpStatusClass::Other,
        }
    }

    /// The label value rendered for this class.
    pub fn as_str(self) -> &'static str {
        match self {
            HttpStatusClass::Ok200 => "200",
            HttpStatusClass::BadRequest400 => "400",
            HttpStatusClass::NotFound404 => "404",
            HttpStatusClass::MethodNotAllowed405 => "405",
            HttpStatusClass::RequestTimeout408 => "408",
            HttpStatusClass::LengthRequired411 => "411",
            HttpStatusClass::PayloadTooLarge413 => "413",
            HttpStatusClass::TooManyRequests429 => "429",
            HttpStatusClass::HeadersTooLarge431 => "431",
            HttpStatusClass::Internal500 => "500",
            HttpStatusClass::Unavailable503 => "503",
            HttpStatusClass::GatewayTimeout504 => "504",
            HttpStatusClass::Other => "other",
        }
    }
}

/// Request-latency histogram bounds, microseconds (same scale as the
/// engine's query-duration histogram so the two are comparable).
const REQUEST_BOUNDS: [u64; 7] = [
    100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000, 60_000_000,
];

/// Every metric family the serving layer records.
#[derive(Debug)]
pub struct ServerMetrics {
    /// `parj_server_inflight` — queries holding an admission permit.
    inflight: Gauge,
    /// `parj_server_shed_total` — requests shed because every permit
    /// was taken.
    shed: Counter,
    /// `parj_server_quota_rejects_total` — requests rejected by a
    /// per-client token bucket.
    quota_rejects: Counter,
    /// `parj_server_responses_total{status}`.
    responses: [Counter; 13],
    /// `parj_server_request_micros` histogram (admission to last byte).
    request_micros: Histogram,
    /// `parj_server_connections_total`.
    connections: Counter,
    /// `parj_server_panics_total` — handler panics contained by
    /// `catch_unwind` (each also counts a 500 response).
    panics: Counter,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerMetrics {
    /// A zeroed registry.
    pub fn new() -> Self {
        ServerMetrics {
            inflight: Gauge::new(),
            shed: Counter::new(),
            quota_rejects: Counter::new(),
            responses: Default::default(),
            request_micros: Histogram::new(&REQUEST_BOUNDS),
            connections: Counter::new(),
            panics: Counter::new(),
        }
    }

    /// A query acquired an admission permit.
    pub fn permit_acquired(&self) {
        self.inflight.add(1);
    }

    /// A query released its admission permit (any outcome).
    pub fn permit_released(&self) {
        self.inflight.sub(1);
    }

    /// Queries currently holding a permit.
    pub fn inflight(&self) -> u64 {
        self.inflight.get()
    }

    /// A request was shed because all permits were in use.
    pub fn record_shed(&self) {
        self.shed.inc();
    }

    /// A request was rejected by its client's token bucket.
    pub fn record_quota_reject(&self) {
        self.quota_rejects.inc();
    }

    /// A connection was accepted.
    pub fn record_connection(&self) {
        self.connections.inc();
    }

    /// A handler panic was contained.
    pub fn record_panic(&self) {
        self.panics.inc();
    }

    /// One response was written: its status and the request's wall time
    /// in microseconds.
    pub fn record_response(&self, status: u16, micros: u64) {
        self.responses[HttpStatusClass::from_status(status) as usize].inc();
        self.request_micros.observe(micros);
    }

    /// Captures every serving family (cheap relaxed loads; safe while
    /// requests are recording).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let plain = |v: u64| Sample {
            labels: Vec::new(),
            value: SampleValue::Integer(v),
        };
        MetricsSnapshot {
            families: vec![
                FamilySnapshot {
                    name: "parj_server_inflight".into(),
                    help: "Queries currently holding an admission permit.".into(),
                    kind: MetricKind::Gauge,
                    samples: vec![plain(self.inflight.get())],
                },
                FamilySnapshot {
                    name: "parj_server_shed_total".into(),
                    help: "Requests shed with 429 because every permit was taken.".into(),
                    kind: MetricKind::Counter,
                    samples: vec![plain(self.shed.get())],
                },
                FamilySnapshot {
                    name: "parj_server_quota_rejects_total".into(),
                    help: "Requests rejected with 429 by a per-client token bucket.".into(),
                    kind: MetricKind::Counter,
                    samples: vec![plain(self.quota_rejects.get())],
                },
                FamilySnapshot {
                    name: "parj_server_responses_total".into(),
                    help: "Responses written, by HTTP status.".into(),
                    kind: MetricKind::Counter,
                    samples: HttpStatusClass::ALL
                        .iter()
                        .map(|&c| Sample {
                            labels: vec![("status".into(), c.as_str().into())],
                            value: SampleValue::Integer(self.responses[c as usize].get()),
                        })
                        .collect(),
                },
                FamilySnapshot {
                    name: "parj_server_request_micros".into(),
                    help: "Request wall time from admission to last byte, microseconds.".into(),
                    kind: MetricKind::Histogram,
                    samples: vec![Sample {
                        labels: Vec::new(),
                        value: SampleValue::Histogram(HistogramSnapshot {
                            buckets: self.request_micros.cumulative_buckets(),
                            sum: self.request_micros.sum(),
                            count: self.request_micros.count(),
                        }),
                    }],
                },
                FamilySnapshot {
                    name: "parj_server_connections_total".into(),
                    help: "TCP connections accepted.".into(),
                    kind: MetricKind::Counter,
                    samples: vec![plain(self.connections.get())],
                },
                FamilySnapshot {
                    name: "parj_server_panics_total".into(),
                    help: "Handler panics contained by catch_unwind.".into(),
                    kind: MetricKind::Counter,
                    samples: vec![plain(self.panics.get())],
                },
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_and_status_labels() {
        let m = ServerMetrics::new();
        m.record_connection();
        m.permit_acquired();
        m.record_response(200, 1500);
        m.record_shed();
        m.record_response(429, 30);
        m.permit_released();
        let snap = m.snapshot();
        assert_eq!(snap.value("parj_server_inflight", &[]), Some(0));
        assert_eq!(snap.value("parj_server_shed_total", &[]), Some(1));
        assert_eq!(
            snap.value("parj_server_responses_total", &[("status", "200")]),
            Some(1)
        );
        assert_eq!(
            snap.value("parj_server_responses_total", &[("status", "429")]),
            Some(1)
        );
        assert_eq!(snap.value("parj_server_connections_total", &[]), Some(1));
    }

    #[test]
    fn unknown_statuses_fold_into_other() {
        let m = ServerMetrics::new();
        m.record_response(418, 5);
        let snap = m.snapshot();
        assert_eq!(
            snap.value("parj_server_responses_total", &[("status", "other")]),
            Some(1)
        );
    }
}
