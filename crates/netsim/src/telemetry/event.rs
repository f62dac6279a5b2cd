//! Structured, sim-time-stamped telemetry records.
//!
//! One [`TelemetryEvent`] is produced per observable measurement step —
//! query issued/matched, download start/retry/complete, scan verdict, fault
//! injected, churn transition — and fanned out to every configured sink.
//! The JSONL rendering below *is* the journal schema; the leveled trace
//! output renders the same records, so the two views can never drift.
//!
//! Events timestamped with sim-time only are deterministic: identical seeds
//! emit byte-identical journals.

use crate::telemetry::span::{hex_digits, SpanCtx};
use crate::time::SimTime;

/// The text before a value that is not an object's first: `,"name":`.
macro_rules! key {
    ($name:literal) => {
        concat!(",\"", $name, "\":")
    };
}

/// Number of event categories (sampling knobs are per-category).
pub const CATEGORY_COUNT: usize = 5;

/// Coarse event grouping used for sampling and filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventCategory {
    Query = 0,
    Download = 1,
    Scan = 2,
    Fault = 3,
    Churn = 4,
}

impl EventCategory {
    pub const ALL: [EventCategory; CATEGORY_COUNT] = [
        EventCategory::Query,
        EventCategory::Download,
        EventCategory::Scan,
        EventCategory::Fault,
        EventCategory::Churn,
    ];

    /// Stable snake_case label (journal `cat` field, sampling knob keys).
    pub fn label(self) -> &'static str {
        match self {
            EventCategory::Query => "query",
            EventCategory::Download => "download",
            EventCategory::Scan => "scan",
            EventCategory::Fault => "fault",
            EventCategory::Churn => "churn",
        }
    }

    /// Inverse of [`EventCategory::label`].
    pub fn from_label(s: &str) -> Option<Self> {
        EventCategory::ALL.iter().copied().find(|c| c.label() == s)
    }
}

/// Which fault the plan injected (see `FaultPlan`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    ChunkDrop,
    ChunkTruncate,
    ChunkBitFlip,
    Reset,
    LatencySpike,
}

impl FaultKind {
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::ChunkDrop => "chunk_drop",
            FaultKind::ChunkTruncate => "chunk_truncate",
            FaultKind::ChunkBitFlip => "chunk_bit_flip",
            FaultKind::Reset => "reset",
            FaultKind::LatencySpike => "latency_spike",
        }
    }
}

/// The event payload. Fields are plain owned data so records outlive the
/// callback that produced them (ring sinks hold them arbitrarily long).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventBody {
    /// The instrumented crawler issued a workload query.
    QueryIssued { text: String, seq: u64 },
    /// A servent/node's library matched a query it was asked to answer.
    /// `hops` is the overlay distance from the query's origin to the
    /// answering node (1 = direct neighbor; OpenFT searches are always 1).
    QueryMatched {
        text: String,
        results: u64,
        hops: u64,
    },
    /// A download attempt left the crawler's pending queue.
    DownloadStart {
        name: String,
        size: u64,
        host: String,
        attempt: u8,
    },
    /// An attempt failed and a retry was scheduled.
    DownloadRetry {
        name: String,
        attempt: u8,
        cause: String,
    },
    /// A download reached a terminal outcome (body scanned or given up).
    DownloadComplete {
        name: String,
        ok: bool,
        latency_us: u64,
        attempts: u8,
    },
    /// The scan pipeline produced a verdict for a downloaded body.
    ScanVerdict {
        name: String,
        sha1: String,
        len: u64,
        detections: u64,
    },
    /// One detection from a malicious verdict: the crawler observed file
    /// `name` carrying malware `family`. Emitted once per detection so
    /// per-family propagation trees fall out of the journal directly.
    Infection {
        name: String,
        family: String,
        sha1: String,
    },
    /// The fault plan injected one fault.
    FaultInjected { kind: FaultKind },
    /// A churn session took a node offline.
    ChurnDown { node: u64 },
    /// A churn session brought a node back online.
    ChurnUp { node: u64 },
}

impl EventBody {
    pub fn category(&self) -> EventCategory {
        match self {
            EventBody::QueryIssued { .. } | EventBody::QueryMatched { .. } => EventCategory::Query,
            EventBody::DownloadStart { .. }
            | EventBody::DownloadRetry { .. }
            | EventBody::DownloadComplete { .. } => EventCategory::Download,
            EventBody::ScanVerdict { .. } | EventBody::Infection { .. } => EventCategory::Scan,
            EventBody::FaultInjected { .. } => EventCategory::Fault,
            EventBody::ChurnDown { .. } | EventBody::ChurnUp { .. } => EventCategory::Churn,
        }
    }

    /// Stable snake_case event name (journal `ev` field).
    pub fn kind_label(&self) -> &'static str {
        match self {
            EventBody::QueryIssued { .. } => "query_issued",
            EventBody::QueryMatched { .. } => "query_matched",
            EventBody::DownloadStart { .. } => "download_start",
            EventBody::DownloadRetry { .. } => "download_retry",
            EventBody::DownloadComplete { .. } => "download_complete",
            EventBody::ScanVerdict { .. } => "scan_verdict",
            EventBody::Infection { .. } => "infection",
            EventBody::FaultInjected { .. } => "fault_injected",
            EventBody::ChurnDown { .. } => "churn_down",
            EventBody::ChurnUp { .. } => "churn_up",
        }
    }
}

/// One sim-time-stamped record, optionally carrying causal identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryEvent {
    pub at: SimTime,
    pub body: EventBody,
    /// Provenance span, when the emitter participates in a causal chain.
    /// Fault and churn events are environmental and stay spanless.
    pub span: Option<SpanCtx>,
}

impl TelemetryEvent {
    /// A spanless record (fault/churn, or tracing not wired at the site).
    pub fn new(at: SimTime, body: EventBody) -> Self {
        TelemetryEvent {
            at,
            body,
            span: None,
        }
    }

    /// A record carrying causal identity.
    pub fn with_span(at: SimTime, body: EventBody, span: SpanCtx) -> Self {
        TelemetryEvent {
            at,
            body,
            span: Some(span),
        }
    }

    pub fn category(&self) -> EventCategory {
        self.body.category()
    }

    /// Appends this event's journal line (no trailing newline) to `out`,
    /// allocating nothing beyond `out`'s own growth.
    ///
    /// The journal schema — the **single canonical field order** of every
    /// JSONL journal line:
    ///
    /// 1. envelope: `t` (sim-micros), `day`, `cat`, `ev`;
    /// 2. provenance (only when the event carries a span): `trace`, `span`,
    ///    and — unless the span is a trace root — `parent`, each a 16-char
    ///    lowercase hex string (ids are 64-bit; the JSON layer stores
    ///    numbers as `f64`, exact only below 2^53, so ids go as strings);
    /// 3. body fields, in the per-variant order below.
    ///
    /// Strings and numbers go through `p2pmal-json`'s own writers, so a line
    /// is byte for byte what `Value::to_string_compact` renders for the same
    /// fields.
    pub fn write_json(&self, out: &mut String) {
        let mut o = ObjWriter { out };
        o.num("{\"t\":", self.at.as_micros());
        o.num(key!("day"), self.at.day());
        o.str(key!("cat"), self.category().label());
        o.str(key!("ev"), self.body.kind_label());
        if let Some(s) = &self.span {
            o.id(key!("trace"), s.trace);
            o.id(key!("span"), s.span);
            if let Some(parent) = s.parent {
                o.id(key!("parent"), parent);
            }
        }
        match &self.body {
            EventBody::QueryIssued { text, seq } => {
                o.str(key!("text"), text);
                o.num(key!("seq"), *seq);
            }
            EventBody::QueryMatched {
                text,
                results,
                hops,
            } => {
                o.str(key!("text"), text);
                o.num(key!("results"), *results);
                o.num(key!("hops"), *hops);
            }
            EventBody::DownloadStart {
                name,
                size,
                host,
                attempt,
            } => {
                o.str(key!("name"), name);
                o.num(key!("size"), *size);
                o.str(key!("host"), host);
                o.num(key!("attempt"), *attempt as u64);
            }
            EventBody::DownloadRetry {
                name,
                attempt,
                cause,
            } => {
                o.str(key!("name"), name);
                o.num(key!("attempt"), *attempt as u64);
                o.str(key!("cause"), cause);
            }
            EventBody::DownloadComplete {
                name,
                ok,
                latency_us,
                attempts,
            } => {
                o.str(key!("name"), name);
                o.bool(key!("ok"), *ok);
                o.num(key!("latency_us"), *latency_us);
                o.num(key!("attempts"), *attempts as u64);
            }
            EventBody::ScanVerdict {
                name,
                sha1,
                len,
                detections,
            } => {
                o.str(key!("name"), name);
                o.str(key!("sha1"), sha1);
                o.num(key!("len"), *len);
                o.num(key!("detections"), *detections);
            }
            EventBody::Infection { name, family, sha1 } => {
                o.str(key!("name"), name);
                o.str(key!("family"), family);
                o.str(key!("sha1"), sha1);
            }
            EventBody::FaultInjected { kind } => o.str(key!("kind"), kind.label()),
            EventBody::ChurnDown { node } | EventBody::ChurnUp { node } => {
                o.num(key!("node"), *node)
            }
        }
        o.out.push('}');
    }
}

/// Below this a `u64` is written digit by digit: `write_number` renders
/// it as the same integer, since it is exact as an `f64`.
const EXACT_BELOW: u64 = 9_000_000_000_000_000;

/// Appends `"key":value` pairs of one flat object. Each key comes as the
/// literal text before its value: `{"t":` for the first, [`key!`] for the
/// rest.
struct ObjWriter<'a> {
    out: &'a mut String,
}

impl ObjWriter<'_> {
    fn num(&mut self, key: &str, v: u64) {
        self.out.push_str(key);
        if v >= EXACT_BELOW {
            p2pmal_json::write_number(v as f64, self.out);
            return;
        }
        let mut digits = [0u8; 16];
        let (mut at, mut rest) = (digits.len(), v);
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        self.out
            .push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    }

    fn bool(&mut self, key: &str, v: bool) {
        self.out.push_str(key);
        self.out.push_str(if v { "true" } else { "false" });
    }

    fn str(&mut self, key: &str, v: &str) {
        self.out.push_str(key);
        p2pmal_json::write_string(v, self.out);
    }

    fn id(&mut self, key: &str, id: u64) {
        self.out.push_str(key);
        let mut quoted = [b'"'; 18];
        quoted[1..17].copy_from_slice(&hex_digits(id));
        self.out
            .push_str(std::str::from_utf8(&quoted).expect("ASCII hex digits"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmal_json::Value;

    fn line(ev: &TelemetryEvent) -> String {
        let mut out = String::new();
        ev.write_json(&mut out);
        out
    }

    fn parsed(ev: &TelemetryEvent) -> Value {
        p2pmal_json::parse(&line(ev)).expect("journal line parses")
    }

    #[test]
    fn labels_round_trip() {
        for cat in EventCategory::ALL {
            assert_eq!(EventCategory::from_label(cat.label()), Some(cat));
        }
        assert_eq!(EventCategory::from_label("nope"), None);
    }

    #[test]
    fn json_envelope_is_stable() {
        let ev = TelemetryEvent::new(
            SimTime::from_micros(86_400_000_000 + 5),
            EventBody::DownloadComplete {
                name: "setup.exe".into(),
                ok: true,
                latency_us: 1234,
                attempts: 2,
            },
        );
        assert_eq!(
            line(&ev),
            "{\"t\":86400000005,\"day\":1,\"cat\":\"download\",\"ev\":\"download_complete\",\
             \"name\":\"setup.exe\",\"ok\":true,\"latency_us\":1234,\"attempts\":2}"
        );
    }

    /// Every variant, with strings that need every escape the writer has
    /// and numbers past `f64`'s exact range: the line parses back to the
    /// documented field order and values, and is byte for byte what the
    /// tree writer renders for those fields.
    #[test]
    fn every_body_writes_its_documented_fields() {
        let nasty = "a\"b\\c\nd\re\tf\u{1}g\u{1f}h é \u{4e16}\u{1f600}";
        let big = (1u64 << 53) + 1;
        let s = |v: &str| Value::from(v);
        let n = |v: u64| Value::from(v);
        let cases: Vec<(EventBody, Vec<(&str, Value)>)> = vec![
            (
                EventBody::QueryIssued {
                    text: nasty.into(),
                    seq: big,
                },
                vec![("text", s(nasty)), ("seq", n(big))],
            ),
            (
                EventBody::QueryMatched {
                    text: nasty.into(),
                    results: 3,
                    hops: u64::MAX,
                },
                vec![("text", s(nasty)), ("results", n(3)), ("hops", n(u64::MAX))],
            ),
            (
                EventBody::DownloadStart {
                    name: nasty.into(),
                    size: big,
                    host: "1.2.3.4:80".into(),
                    attempt: 255,
                },
                vec![
                    ("name", s(nasty)),
                    ("size", n(big)),
                    ("host", s("1.2.3.4:80")),
                    ("attempt", n(255)),
                ],
            ),
            (
                EventBody::DownloadRetry {
                    name: nasty.into(),
                    attempt: 1,
                    cause: "time\"out".into(),
                },
                vec![
                    ("name", s(nasty)),
                    ("attempt", n(1)),
                    ("cause", s("time\"out")),
                ],
            ),
            (
                EventBody::DownloadComplete {
                    name: nasty.into(),
                    ok: false,
                    latency_us: big,
                    attempts: 3,
                },
                vec![
                    ("name", s(nasty)),
                    ("ok", false.into()),
                    ("latency_us", n(big)),
                    ("attempts", n(3)),
                ],
            ),
            (
                EventBody::ScanVerdict {
                    name: nasty.into(),
                    sha1: "00".into(),
                    len: big,
                    detections: 2,
                },
                vec![
                    ("name", s(nasty)),
                    ("sha1", s("00")),
                    ("len", n(big)),
                    ("detections", n(2)),
                ],
            ),
            (
                EventBody::Infection {
                    name: nasty.into(),
                    family: "W32.\u{1}Gnuman".into(),
                    sha1: "00".into(),
                },
                vec![
                    ("name", s(nasty)),
                    ("family", s("W32.\u{1}Gnuman")),
                    ("sha1", s("00")),
                ],
            ),
            (
                EventBody::FaultInjected {
                    kind: FaultKind::Reset,
                },
                vec![("kind", s("reset"))],
            ),
            (EventBody::ChurnDown { node: big }, vec![("node", n(big))]),
            (
                EventBody::ChurnUp { node: u64::MAX },
                vec![("node", n(u64::MAX))],
            ),
        ];
        let at = SimTime::from_micros(3 * 86_400_000_000 + 7);
        let spans = [
            (None, vec![]),
            (
                Some(SpanCtx::root(u64::MAX, big)),
                vec![
                    ("trace", s("ffffffffffffffff")),
                    ("span", s("0020000000000001")),
                ],
            ),
            (
                Some(SpanCtx::child(big, 7, 9)),
                vec![
                    ("trace", s("0020000000000001")),
                    ("span", s("0000000000000007")),
                    ("parent", s("0000000000000009")),
                ],
            ),
        ];
        for (body, body_fields) in &cases {
            for (span, span_fields) in &spans {
                let ev = TelemetryEvent {
                    at,
                    body: body.clone(),
                    span: *span,
                };
                let mut want = vec![
                    ("t", n(at.as_micros())),
                    ("day", n(3)),
                    ("cat", s(ev.category().label())),
                    ("ev", s(body.kind_label())),
                ];
                want.extend(span_fields.iter().cloned());
                want.extend(body_fields.iter().cloned());
                let want = Value::Obj(want.into_iter().map(|(k, v)| (k.into(), v)).collect());
                assert_eq!(parsed(&ev), want);
                assert_eq!(line(&ev), want.to_string_compact());
            }
        }
    }

    #[test]
    fn write_json_appends() {
        let ev = TelemetryEvent::new(SimTime::ZERO, EventBody::ChurnDown { node: 1 });
        let mut out = String::from("x ");
        ev.write_json(&mut out);
        ev.write_json(&mut out);
        let one = line(&ev);
        assert_eq!(out, format!("x {one}{one}"));
        // Spanless events carry no trace/span/parent keys at all.
        assert!(parsed(&ev).get("trace").is_none());
    }
}
