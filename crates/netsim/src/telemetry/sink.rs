//! Telemetry sinks and the per-simulator hub that fans events out to them.
//!
//! The default is **no sinks at all**: emission sites check
//! [`Telemetry::enabled`] first, so a journal-off run never constructs an
//! event, draws no randomness, and stays byte-identical to a build without
//! the telemetry layer. With sinks attached, every record flows to all of
//! them — the JSONL journal and the leveled trace render the same events.

use super::event::{EventCategory, TelemetryEvent, CATEGORY_COUNT};
use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};

/// A consumer of telemetry records. `Send` so a sink hub can live inside a
/// shard that migrates onto a worker thread (shards buffer their events and
/// the real hub replays them at window boundaries).
pub trait TelemetrySink: Send {
    fn record(&mut self, event: &TelemetryEvent);
    /// Push buffered output to its destination (called at end of run; file
    /// sinks also flush on drop).
    fn flush(&mut self) {}
}

/// Discards everything. The zero-cost default: the hub never reaches a
/// sink's `record` when no sink is attached, so this type mostly serves as
/// an explicit "telemetry off" marker in tests and examples.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    fn record(&mut self, _event: &TelemetryEvent) {}
}

/// Bounded in-memory ring: keeps the most recent `cap` events. Useful for
/// harness assertions and post-mortem inspection without touching disk.
#[derive(Debug)]
pub struct RingSink {
    cap: usize,
    buf: VecDeque<TelemetryEvent>,
}

impl RingSink {
    pub fn new(cap: usize) -> Self {
        RingSink {
            cap: cap.max(1),
            buf: VecDeque::new(),
        }
    }

    pub fn events(&self) -> impl Iterator<Item = &TelemetryEvent> {
        self.buf.iter()
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl TelemetrySink for RingSink {
    fn record(&mut self, event: &TelemetryEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(event.clone());
    }
}

/// JSONL file sink: one compact JSON object per line, in emission order
/// (which is sim-time order, since events are written as the simulation
/// produces them). Lines are rendered into one buffer that goes to the
/// file each time it holds 1 MiB. The first write error stops the
/// journal; the next flush reports it on stderr with the path.
pub struct JsonlSink {
    file: std::fs::File,
    path: PathBuf,
    /// Rendered lines not yet written; allocated on the first record.
    buf: String,
    /// The first write that failed; nothing is written after it.
    error: Option<std::io::Error>,
    /// Whether a flush has reported `error` already.
    reported: bool,
}

/// How many bytes a [`JsonlSink`] gathers before it writes them.
const BLOCK: usize = 1 << 20;

impl JsonlSink {
    /// Creates (truncating) the journal file, including parent directories.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        Ok(JsonlSink {
            file: std::fs::File::create(path)?,
            path: path.to_path_buf(),
            buf: String::new(),
            error: None,
            reported: false,
        })
    }

    /// Writes the buffered lines, unless a write failed before, and empties
    /// the buffer either way.
    fn write_buf(&mut self) {
        if self.error.is_none() {
            self.error = self.file.write_all(self.buf.as_bytes()).err();
        }
        self.buf.clear();
    }
}

impl TelemetrySink for JsonlSink {
    fn record(&mut self, event: &TelemetryEvent) {
        if self.buf.capacity() == 0 {
            // Room for a block and the line that passes it.
            self.buf.reserve(BLOCK + BLOCK / 16);
        }
        event.write_json(&mut self.buf);
        self.buf.push('\n');
        if self.buf.len() >= BLOCK {
            self.write_buf();
        }
    }

    fn flush(&mut self) {
        self.write_buf();
        if let Some(e) = self.error.as_ref().filter(|_| !self.reported) {
            // Not `eprintln!`, which panics if stderr fails: this runs in `drop`.
            let _ = writeln!(
                std::io::stderr(),
                "[telemetry] cannot write journal {}: {e}",
                self.path.display()
            );
            self.reported = true;
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Per-event trace rendering (`P2PMAL_TRACE=2`): each record goes to
/// stderr as the same compact JSON the journal writes, tagged with the
/// network label.
#[derive(Debug)]
pub struct TraceSink {
    label: String,
    line: String,
}

impl TraceSink {
    pub fn new(label: &str) -> Self {
        TraceSink {
            label: label.to_string(),
            line: String::new(),
        }
    }
}

impl TelemetrySink for TraceSink {
    fn record(&mut self, event: &TelemetryEvent) {
        self.line.clear();
        event.write_json(&mut self.line);
        eprintln!("[trace] {} {}", self.label, self.line);
    }
}

/// The per-simulator hub: attached sinks plus per-category 1-in-N sampling.
///
/// `seen` counts *candidate* events per category (post-`enabled` gate), so
/// sampling keeps every Nth candidate deterministically — no RNG involved.
pub struct Telemetry {
    sinks: Vec<Box<dyn TelemetrySink>>,
    sample: [u32; CATEGORY_COUNT],
    seen: [u64; CATEGORY_COUNT],
    /// Buffering: set on per-shard hubs, which have no sinks of their own.
    /// `enabled` answers from the real hub's mask snapshot and `emit`
    /// appends every candidate unsampled; the lane engine drains the
    /// buffer after each dispatched event and replays the key-ordered
    /// merge through the real hub, so sampling counters advance in one
    /// global order whatever the shard count.
    buffer: Option<BufferMode>,
}

struct BufferMode {
    mask: [bool; CATEGORY_COUNT],
    events: Vec<TelemetryEvent>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("sinks", &self.sinks.len())
            .field("sample", &self.sample)
            .field("seen", &self.seen)
            .finish()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Telemetry {
    /// No sinks: `enabled` is false for every category and `emit` is a
    /// no-op. This is the state every simulator starts in.
    pub fn disabled() -> Self {
        Telemetry {
            sinks: Vec::new(),
            sample: [1; CATEGORY_COUNT],
            seen: [0; CATEGORY_COUNT],
            buffer: None,
        }
    }

    pub fn new(sinks: Vec<Box<dyn TelemetrySink>>, sample: [u32; CATEGORY_COUNT]) -> Self {
        Telemetry {
            sinks,
            sample,
            seen: [0; CATEGORY_COUNT],
            buffer: None,
        }
    }

    /// A sinkless buffering hub for one shard. `mask` is the real hub's
    /// [`Telemetry::enabled_mask`]; events of enabled
    /// categories accumulate unsampled until [`Telemetry::drain_buffered`].
    pub fn buffered(mask: [bool; CATEGORY_COUNT]) -> Self {
        Telemetry {
            sinks: Vec::new(),
            sample: [1; CATEGORY_COUNT],
            seen: [0; CATEGORY_COUNT],
            buffer: Some(BufferMode {
                mask,
                events: Vec::new(),
            }),
        }
    }

    /// Per-category `enabled` snapshot, for seeding shard-local buffering
    /// hubs from the control hub.
    pub fn enabled_mask(&self) -> [bool; CATEGORY_COUNT] {
        let mut mask = [false; CATEGORY_COUNT];
        for cat in EventCategory::ALL {
            mask[cat as usize] = self.enabled(cat);
        }
        mask
    }

    /// Drains buffered events (buffering hubs only; empty otherwise). The
    /// buffer keeps its capacity: the engine drains after every dispatch.
    pub fn drain_buffered(&mut self) -> impl Iterator<Item = TelemetryEvent> + '_ {
        self.buffer.iter_mut().flat_map(|b| b.events.drain(..))
    }

    /// Whether events of `cat` go anywhere at all. Emission sites check
    /// this *before* building an event, keeping the disabled path free of
    /// allocation and formatting.
    #[inline]
    pub fn enabled(&self, cat: EventCategory) -> bool {
        if let Some(b) = &self.buffer {
            return b.mask[cat as usize];
        }
        !self.sinks.is_empty() && self.sample[cat as usize] != 0
    }

    /// Records one event, honoring the category's 1-in-N sampling.
    /// Buffering hubs instead retain every enabled-category candidate —
    /// sampling is applied once, by the control hub the merged stream is
    /// replayed through.
    pub fn emit(&mut self, event: TelemetryEvent) {
        if let Some(b) = &mut self.buffer {
            if b.mask[event.category() as usize] {
                b.events.push(event);
            }
            return;
        }
        let cat = event.category() as usize;
        if self.sinks.is_empty() || self.sample[cat] == 0 {
            return;
        }
        let keep = self.seen[cat].is_multiple_of(self.sample[cat] as u64);
        self.seen[cat] += 1;
        if !keep {
            return;
        }
        for sink in &mut self.sinks {
            sink.record(&event);
        }
    }

    /// Flushes every sink (end of run; file sinks also flush on drop).
    pub fn flush(&mut self) {
        for sink in &mut self.sinks {
            sink.flush();
        }
    }
}

impl Drop for Telemetry {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Parses a `P2PMAL_TRACE`-style value into a trace level. Unset, empty,
/// `0`, `off`, `false` and `no` mean **off**; `2` enables per-event trace;
/// anything else (the historical `1`, `yes`, ...) is level 1 (per-day
/// summary lines).
pub fn parse_trace_level(value: Option<&str>) -> u8 {
    match value.map(str::trim) {
        None | Some("") | Some("0") | Some("off") | Some("false") | Some("no") => 0,
        Some("2") => 2,
        Some(_) => 1,
    }
}

/// Derives a per-network journal path from the user-supplied one by
/// inserting the network label before the extension:
/// `journal.jsonl` + `limewire` → `journal.limewire.jsonl`.
pub fn journal_path_for(base: &Path, label: &str) -> PathBuf {
    match base.extension().and_then(|e| e.to_str()) {
        Some(ext) => base.with_extension(format!("{label}.{ext}")),
        None => base.with_extension(label),
    }
}

/// Cloneable sink configuration carried by scenario presets: how a run
/// turns env knobs (or programmatic settings) into a [`Telemetry`] hub.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Base journal path (`P2PMAL_JOURNAL`); each network writes to
    /// [`journal_path_for`]`(base, label)`. `None` disables the journal.
    pub journal: Option<PathBuf>,
    /// Trace level (`P2PMAL_TRACE`): 0 off, 1 per-day lines, 2 adds
    /// per-event records rendered from the same journal stream.
    pub trace: u8,
    /// Per-category 1-in-N sampling (`P2PMAL_JOURNAL_SAMPLE`); 1 keeps
    /// everything, 0 disables the category entirely.
    pub sample: [u32; CATEGORY_COUNT],
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self::off()
    }
}

impl TelemetryConfig {
    /// Telemetry fully off (the deterministic-goldens configuration).
    pub fn off() -> Self {
        TelemetryConfig {
            journal: None,
            trace: 0,
            sample: [1; CATEGORY_COUNT],
        }
    }

    /// A `P2PMAL_JOURNAL_SAMPLE` value: comma-separated `cat=N` pairs
    /// (`query=10,download=1`); a category not named keeps every event.
    /// `None` when a pair names no category or `N` is not a count.
    pub fn parse_sample(spec: &str) -> Option<[u32; CATEGORY_COUNT]> {
        let mut sample = [1; CATEGORY_COUNT];
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (cat, n) = part.split_once('=')?;
            let cat = EventCategory::from_label(cat.trim())?;
            sample[cat as usize] = n.trim().parse().ok()?;
        }
        Some(sample)
    }

    /// Builds the sink hub for one network run. `label` tags the journal
    /// file name and trace lines (`limewire` / `openft`).
    pub fn build(&self, label: &str) -> Telemetry {
        let mut sinks: Vec<Box<dyn TelemetrySink>> = Vec::new();
        if let Some(base) = &self.journal {
            let path = journal_path_for(base, label);
            match JsonlSink::create(&path) {
                Ok(sink) => sinks.push(Box::new(sink)),
                Err(e) => eprintln!("[telemetry] cannot open journal {}: {e}", path.display()),
            }
        }
        if self.trace >= 2 {
            sinks.push(Box::new(TraceSink::new(label)));
        }
        Telemetry::new(sinks, self.sample)
    }
}

#[cfg(test)]
mod tests {
    use super::super::event::{EventBody, FaultKind};
    use super::*;
    use crate::time::SimTime;

    fn ev(t: u64) -> TelemetryEvent {
        TelemetryEvent::new(
            SimTime::from_micros(t),
            EventBody::FaultInjected {
                kind: FaultKind::Reset,
            },
        )
    }

    #[test]
    fn disabled_hub_reports_every_category_off() {
        let hub = Telemetry::disabled();
        for cat in EventCategory::ALL {
            assert!(!hub.enabled(cat));
        }
    }

    #[test]
    fn ring_sink_is_bounded_and_keeps_latest() {
        let mut ring = RingSink::new(3);
        for t in 0..5 {
            ring.record(&ev(t));
        }
        assert_eq!(ring.len(), 3);
        let ts: Vec<u64> = ring.events().map(|e| e.at.as_micros()).collect();
        assert_eq!(ts, vec![2, 3, 4]);
    }

    /// Shares its record log so tests can inspect a sink after boxing it
    /// into a hub.
    struct SpySink(std::sync::Arc<std::sync::Mutex<Vec<u64>>>);

    impl TelemetrySink for SpySink {
        fn record(&mut self, event: &TelemetryEvent) {
            self.0.lock().unwrap().push(event.at.as_micros());
        }
    }

    #[test]
    fn sampling_keeps_every_nth_candidate() {
        let got = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut sample = [1u32; CATEGORY_COUNT];
        sample[EventCategory::Fault as usize] = 3;
        let mut hub = Telemetry::new(vec![Box::new(SpySink(got.clone()))], sample);
        for t in 0..9 {
            hub.emit(ev(t));
        }
        assert_eq!(*got.lock().unwrap(), vec![0, 3, 6]);
    }

    #[test]
    fn every_sink_sees_every_kept_event() {
        let a = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let b = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut hub = Telemetry::new(
            vec![Box::new(SpySink(a.clone())), Box::new(SpySink(b.clone()))],
            [1; CATEGORY_COUNT],
        );
        for t in 0..4 {
            hub.emit(ev(t));
        }
        assert_eq!(*a.lock().unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(*a.lock().unwrap(), *b.lock().unwrap());
    }

    #[test]
    fn buffering_hub_retains_unsampled_and_mirrors_mask() {
        let mut mask = [true; CATEGORY_COUNT];
        mask[EventCategory::Churn as usize] = false;
        let mut hub = Telemetry::buffered(mask);
        assert!(hub.enabled(EventCategory::Fault));
        assert!(!hub.enabled(EventCategory::Churn));
        for t in 0..5 {
            hub.emit(ev(t));
        }
        assert_eq!(hub.drain_buffered().count(), 5);
        assert_eq!(hub.drain_buffered().count(), 0);
    }

    #[test]
    fn zero_sample_disables_category() {
        let mut sample = [1u32; CATEGORY_COUNT];
        sample[EventCategory::Churn as usize] = 0;
        let hub = Telemetry::new(vec![Box::new(NullSink)], sample);
        assert!(!hub.enabled(EventCategory::Churn));
        assert!(hub.enabled(EventCategory::Fault));
    }

    #[test]
    fn trace_level_parsing() {
        assert_eq!(parse_trace_level(None), 0);
        assert_eq!(parse_trace_level(Some("")), 0);
        assert_eq!(parse_trace_level(Some("0")), 0);
        assert_eq!(parse_trace_level(Some("off")), 0);
        assert_eq!(parse_trace_level(Some("false")), 0);
        assert_eq!(parse_trace_level(Some("no")), 0);
        assert_eq!(parse_trace_level(Some("1")), 1);
        assert_eq!(parse_trace_level(Some("yes")), 1);
        assert_eq!(parse_trace_level(Some("2")), 2);
        assert_eq!(parse_trace_level(Some(" 2 ")), 2);
    }

    /// A journal on a full disk keeps the first error, writes nothing after
    /// it and reports it once; the sink allocates nothing until it records.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_full_disk_stops_the_journal_and_is_kept() {
        let mut sink = JsonlSink::create(Path::new("/dev/full")).unwrap();
        assert_eq!(sink.buf.capacity(), 0);
        sink.record(&ev(0));
        assert!(sink.error.is_none(), "one line stays in the buffer");
        let mut t = 1;
        while sink.error.is_none() {
            sink.record(&ev(t));
            t += 1;
        }
        assert!(sink.buf.is_empty(), "a block went to the file");
        assert_eq!(
            sink.error.as_ref().unwrap().kind(),
            std::io::ErrorKind::StorageFull
        );
        sink.record(&ev(t));
        sink.flush();
        assert!(sink.reported && sink.buf.is_empty());
        sink.flush();
        assert_eq!(
            sink.error.as_ref().unwrap().kind(),
            std::io::ErrorKind::StorageFull
        );
    }

    #[test]
    fn a_journal_holds_every_line_in_order() {
        let dir = std::env::temp_dir().join(format!("p2pmal-jsonl-{}", std::process::id()));
        let path = dir.join("journal.jsonl");
        let mut sink = JsonlSink::create(&path).unwrap();
        let mut want = String::new();
        // Past two blocks, so the file is written in three pieces.
        for t in 0..40_000 {
            sink.record(&ev(t));
            ev(t).write_json(&mut want);
            want.push('\n');
        }
        assert!(want.len() > 2 * BLOCK);
        drop(sink);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), want);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_paths_get_network_labels() {
        assert_eq!(
            journal_path_for(Path::new("journal.jsonl"), "limewire"),
            PathBuf::from("journal.limewire.jsonl")
        );
        assert_eq!(
            journal_path_for(Path::new("out/j"), "openft"),
            PathBuf::from("out/j.openft")
        );
    }
}
