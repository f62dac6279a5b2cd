//! Deterministic provenance identifiers for causal tracing.
//!
//! A **trace** groups every telemetry event that descends from one search:
//! the query leaving its origin, each library match, every download attempt
//! and retry the crawler makes against the returned sources, the scan
//! verdict, and any infections the verdict records. A **span** identifies
//! one event inside a trace; its `parent` is the span of the event that
//! caused it, which is what lets `trace_report` rebuild propagation trees
//! from a flat JSONL journal.
//!
//! Every id is derived with FNV-1a/64 from identifiers the simulation
//! already owns — the 16-byte Gnutella query GUID, the OpenFT search id
//! plus its origin address, download object keys (filename, size, source
//! host) and attempt counters. **Never** from wall clock and **never**
//! from a fresh RNG draw: deriving ids must not perturb the trajectory,
//! and identical seeds must produce byte-identical journals. Distinct
//! domain tags keep the id families from colliding structurally.

use std::net::Ipv4Addr;

/// Causal identity attached to a [`super::TelemetryEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanCtx {
    /// The trace (causal tree) this event belongs to.
    pub trace: u64,
    /// This event's own span id, unique within the trace.
    pub span: u64,
    /// Span id of the causing event; `None` marks a trace root.
    pub parent: Option<u64>,
}

impl SpanCtx {
    /// A root span: the first event of a trace (a query leaving its origin).
    pub fn root(trace: u64, span: u64) -> Self {
        SpanCtx {
            trace,
            span,
            parent: None,
        }
    }

    /// A child span caused by `parent`.
    pub fn child(trace: u64, span: u64, parent: u64) -> Self {
        SpanCtx {
            trace,
            span,
            parent: Some(parent),
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a/64 over tagged byte material.
#[derive(Debug, Clone, Copy)]
struct Fnv64(u64);

impl Fnv64 {
    fn new(tag: &[u8]) -> Self {
        let mut h = Fnv64(FNV_OFFSET);
        h.write(tag);
        h
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Trace id of a Gnutella search, derived from its 16-byte query GUID.
pub fn trace_from_guid(guid: &[u8; 16]) -> u64 {
    let mut h = Fnv64::new(b"trace:guid");
    h.write(guid);
    h.finish()
}

/// Trace id of an OpenFT search, derived from the originator's routable
/// address plus its per-node search id (OpenFT ids are only unique per
/// origin; the address disambiguates).
pub fn trace_from_search(ip: Ipv4Addr, port: u16, id: u32) -> u64 {
    let mut h = Fnv64::new(b"trace:search");
    h.write(&ip.octets());
    h.write(&port.to_le_bytes());
    h.write(&id.to_le_bytes());
    h.finish()
}

/// Root span of a trace (the `query_issued` event at the origin).
pub fn span_root(trace: u64) -> u64 {
    let mut h = Fnv64::new(b"span:root");
    h.write_u64(trace);
    h.finish()
}

/// Span of a `query_matched` answered by the servent with GUID `guid`.
pub fn span_match_guid(trace: u64, guid: &[u8; 16]) -> u64 {
    let mut h = Fnv64::new(b"span:match");
    h.write_u64(trace);
    h.write(guid);
    h.finish()
}

/// Span of a `query_matched` answered by the node at `ip:port` (OpenFT
/// nodes have no GUID; their routable address identifies them).
pub fn span_match_addr(trace: u64, ip: Ipv4Addr, port: u16) -> u64 {
    let mut h = Fnv64::new(b"span:match");
    h.write_u64(trace);
    h.write(&ip.octets());
    h.write(&port.to_le_bytes());
    h.finish()
}

/// Download object key: one per (filename, size, source host) the crawler
/// fetches, stable across every attempt/retry/verdict of that download.
pub fn download_obj(name: &str, size: u64, host: &str) -> u64 {
    let mut h = Fnv64::new(b"obj:download");
    h.write(name.as_bytes());
    h.write_u64(size);
    h.write(host.as_bytes());
    h.finish()
}

/// Span of `download_start` attempt `attempt` of object `obj`.
pub fn span_download(trace: u64, obj: u64, attempt: u8) -> u64 {
    let mut h = Fnv64::new(b"span:dl");
    h.write_u64(trace);
    h.write_u64(obj);
    h.write(&[attempt]);
    h.finish()
}

/// Span of the `download_retry` that schedules attempt `attempt`.
pub fn span_retry(trace: u64, obj: u64, attempt: u8) -> u64 {
    let mut h = Fnv64::new(b"span:retry");
    h.write_u64(trace);
    h.write_u64(obj);
    h.write(&[attempt]);
    h.finish()
}

/// Span of the terminal `download_complete` of object `obj`.
pub fn span_done(trace: u64, obj: u64) -> u64 {
    let mut h = Fnv64::new(b"span:done");
    h.write_u64(trace);
    h.write_u64(obj);
    h.finish()
}

/// Span of the `scan_verdict` for object `obj`.
pub fn span_scan(trace: u64, obj: u64) -> u64 {
    let mut h = Fnv64::new(b"span:scan");
    h.write_u64(trace);
    h.write_u64(obj);
    h.finish()
}

/// Span of the `idx`-th `infection` recorded by object `obj`'s verdict.
pub fn span_infection(trace: u64, obj: u64, idx: u64) -> u64 {
    let mut h = Fnv64::new(b"span:inf");
    h.write_u64(trace);
    h.write_u64(obj);
    h.write_u64(idx);
    h.finish()
}

/// Journal rendering of an id: fixed-width lowercase hex. Ids are 64-bit
/// and the workspace JSON value stores numbers as `f64` (exact only below
/// 2^53), so the journal carries them as 16-char strings.
pub fn span_hex(id: u64) -> String {
    String::from_utf8(hex_digits(id).to_vec()).expect("ASCII hex digits")
}

/// The 16 lowercase hex digits of `id`, most significant first.
pub(crate) fn hex_digits(id: u64) -> [u8; 16] {
    std::array::from_fn(|i| b"0123456789abcdef"[(id >> (60 - 4 * i)) as usize & 0xf])
}

/// Inverse of [`span_hex`]; accepts any non-empty hex string up to 16
/// digits so hand-edited journals still parse.
pub fn parse_span_hex(s: &str) -> Option<u64> {
    if s.is_empty() || s.len() > 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_stable_and_tagged() {
        let guid = [7u8; 16];
        let t = trace_from_guid(&guid);
        // Deterministic: same input, same id.
        assert_eq!(t, trace_from_guid(&guid));
        // Domain tags separate id families built from the same material.
        let obj = download_obj("setup.exe", 100, "1.2.3.4:6346");
        assert_ne!(span_download(t, obj, 0), span_retry(t, obj, 0));
        assert_ne!(span_done(t, obj), span_scan(t, obj));
        assert_ne!(span_root(t), t);
        // Attempts produce distinct spans.
        assert_ne!(span_download(t, obj, 0), span_download(t, obj, 1));
    }

    #[test]
    fn search_traces_disambiguate_by_origin() {
        let a = trace_from_search(Ipv4Addr::new(10, 0, 0, 1), 1215, 1);
        let b = trace_from_search(Ipv4Addr::new(10, 0, 0, 2), 1215, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn hex_round_trips() {
        for id in [0u64, 1, 0xdead_beef, u64::MAX] {
            let s = span_hex(id);
            assert_eq!(s.len(), 16);
            assert_eq!(parse_span_hex(&s), Some(id));
        }
        assert_eq!(parse_span_hex(""), None);
        assert_eq!(parse_span_hex("xyz"), None);
        assert_eq!(parse_span_hex("00000000000000000"), None);
    }
}
