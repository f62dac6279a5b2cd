//! The journal sink and the per-simulator hub that feeds it.
//!
//! The default is **no sink at all**: emission sites check
//! [`Telemetry::enabled`] (or, inside a lane, `TelemetryBuffer::enabled`)
//! first, so a journal-off run never constructs an event, draws no
//! randomness, and stays byte-identical to a build without the telemetry
//! layer.

use super::event::{EventCategory, TelemetryEvent, CATEGORY_COUNT};
use std::io::Write;
use std::path::{Path, PathBuf};

/// A consumer of telemetry records: the JSONL journal, or a test's fake.
pub trait TelemetrySink: Send {
    fn record(&mut self, event: &TelemetryEvent);
    /// Push buffered output to its destination (called at end of run; file
    /// sinks also flush on drop).
    fn flush(&mut self) {}
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

/// The per-simulator hub: the attached sink plus per-category 1-in-N
/// sampling.
///
/// `seen` counts *candidate* events per category, so sampling keeps every
/// Nth candidate deterministically — no RNG involved. Lanes never reach
/// the hub: they write into a `TelemetryBuffer`, and the engine replays
/// the buffers through [`Telemetry::emit`] in one key-ordered merge, so the
/// sampling counters advance in one global order whatever the shard count.
pub struct Telemetry {
    sink: Option<Box<dyn TelemetrySink>>,
    sample: [u32; CATEGORY_COUNT],
    seen: [u64; CATEGORY_COUNT],
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("sink", &self.sink.is_some())
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
    /// No sink: `enabled` is false for every category and `emit` is a
    /// no-op. This is the state every simulator starts in.
    pub fn disabled() -> Self {
        Telemetry {
            sink: None,
            sample: [1; CATEGORY_COUNT],
            seen: [0; CATEGORY_COUNT],
        }
    }

    pub fn new(sink: Box<dyn TelemetrySink>, sample: [u32; CATEGORY_COUNT]) -> Self {
        Telemetry {
            sink: Some(sink),
            sample,
            seen: [0; CATEGORY_COUNT],
        }
    }

    /// Whether events of `cat` go anywhere at all.
    #[inline]
    pub fn enabled(&self, cat: EventCategory) -> bool {
        self.sink.is_some() && self.sample[cat as usize] != 0
    }

    /// An empty lane buffer that takes exactly the categories this hub
    /// writes.
    pub(crate) fn lane_buffer(&self) -> TelemetryBuffer {
        TelemetryBuffer {
            mask: EventCategory::ALL.map(|cat| self.enabled(cat)),
            events: Vec::new(),
        }
    }

    /// Records one event, honoring the category's 1-in-N sampling.
    pub fn emit(&mut self, event: TelemetryEvent) {
        let cat = event.category() as usize;
        let Some(sink) = self.sink.as_mut().filter(|_| self.sample[cat] != 0) else {
            return;
        };
        let keep = self.seen[cat].is_multiple_of(self.sample[cat] as u64);
        self.seen[cat] += 1;
        if keep {
            sink.record(&event);
        }
    }

    /// Flushes the sink (end of run; file sinks also flush on drop).
    pub fn flush(&mut self) {
        if let Some(sink) = &mut self.sink {
            sink.flush();
        }
    }
}

impl Drop for Telemetry {
    fn drop(&mut self) {
        self.flush();
    }
}

/// What a lane's callbacks emit into: every candidate of a category the
/// hub writes, unsampled, until the engine drains it for the replay. The
/// default takes nothing.
#[derive(Debug, Default)]
pub(crate) struct TelemetryBuffer {
    mask: [bool; CATEGORY_COUNT],
    events: Vec<TelemetryEvent>,
}

impl TelemetryBuffer {
    #[inline]
    pub fn enabled(&self, cat: EventCategory) -> bool {
        self.mask[cat as usize]
    }

    /// Keeps `event` if its category is enabled.
    #[inline]
    pub fn push(&mut self, event: TelemetryEvent) {
        if self.enabled(event.category()) {
            self.keep(event);
        }
    }

    /// Out of line, so an emission site inlines only the mask check.
    fn keep(&mut self, event: TelemetryEvent) {
        self.events.push(event);
    }

    /// Drains the buffered events. The buffer keeps its capacity: the
    /// engine drains after every dispatch.
    pub fn drain(&mut self) -> std::vec::Drain<'_, TelemetryEvent> {
        self.events.drain(..)
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

/// Cloneable sink configuration carried by scenarios: how a run turns the
/// settings its program parsed from the `P2PMAL_*` knobs (or a test set)
/// into a [`Telemetry`] hub.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Base journal path (`P2PMAL_JOURNAL`); each network writes to
    /// [`journal_path_for`]`(base, label)`. `None` disables the journal.
    pub journal: Option<PathBuf>,
    /// Per-day progress lines on stderr (`P2PMAL_TRACE`).
    pub trace: bool,
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
            trace: false,
            sample: [1; CATEGORY_COUNT],
        }
    }

    /// A `P2PMAL_TRACE` value: empty, `0`, `off`, `false` or `no` is off;
    /// `1`, `on`, `true` or `yes` is on; `None` for anything else.
    pub fn parse_trace(value: &str) -> Option<bool> {
        match value {
            "" | "0" | "off" | "false" | "no" => Some(false),
            "1" | "on" | "true" | "yes" => Some(true),
            _ => None,
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

    /// Builds the hub for one network run. `label` tags the journal file
    /// name (`limewire` / `openft`).
    pub fn build(&self, label: &str) -> Telemetry {
        let Some(base) = &self.journal else {
            return Telemetry::disabled();
        };
        let path = journal_path_for(base, label);
        match JsonlSink::create(&path) {
            Ok(sink) => Telemetry::new(Box::new(sink), self.sample),
            Err(e) => {
                eprintln!("[telemetry] cannot open journal {}: {e}", path.display());
                Telemetry::disabled()
            }
        }
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
        let mut hub = Telemetry::new(Box::new(SpySink(got.clone())), sample);
        for t in 0..9 {
            hub.emit(ev(t));
        }
        assert_eq!(*got.lock().unwrap(), vec![0, 3, 6]);
    }

    #[test]
    fn a_lane_buffer_keeps_every_candidate_the_hub_writes() {
        let mut sample = [1u32; CATEGORY_COUNT];
        sample[EventCategory::Churn as usize] = 0;
        sample[EventCategory::Fault as usize] = 3;
        let got = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let hub = Telemetry::new(Box::new(SpySink(got)), sample);
        assert!(!hub.enabled(EventCategory::Churn));
        let mut buf = hub.lane_buffer();
        assert!(buf.enabled(EventCategory::Fault));
        assert!(!buf.enabled(EventCategory::Churn));
        for t in 0..5 {
            buf.push(ev(t));
        }
        assert_eq!(
            buf.drain().count(),
            5,
            "sampling is the hub's, not the lane's"
        );
        assert_eq!(buf.drain().count(), 0);
        let mut off = Telemetry::disabled().lane_buffer();
        off.push(ev(0));
        assert_eq!(off.drain().count(), 0);
    }

    #[test]
    fn trace_parsing() {
        for off in ["", "0", "off", "false", "no"] {
            assert_eq!(TelemetryConfig::parse_trace(off), Some(false), "{off:?}");
        }
        for on in ["1", "on", "true", "yes"] {
            assert_eq!(TelemetryConfig::parse_trace(on), Some(true), "{on:?}");
        }
        for bad in ["2", " 1", "maybe"] {
            assert_eq!(TelemetryConfig::parse_trace(bad), None, "{bad:?}");
        }
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
