//! JSONL journal loading into a compact columnar store.
//!
//! The journal schema is defined in `p2pmal-netsim`'s
//! `telemetry/event.rs` (`TelemetryEvent::write_json`): a flat object per
//! line with envelope fields `t`/`day`/`cat`/`ev`, optional provenance
//! `trace`/`span`/`parent` (16-char hex strings), then body fields.
//!
//! [`scan_line`] is the one parser of that schema in the repository. It
//! validates a whole line as JSON (any document `p2pmal_json::parse`
//! accepts, with keys in any order and the first of a duplicated key
//! winning) and picks out the fields below without building a value tree.
//! [`Journal`] streams a file through it line by line and keeps one
//! 20-byte record per event, so memory is `20 B × events` plus the label,
//! kind and context tables however long the strings in the journal are.
//!
//! What is kept per event: `t`, `day`, `cat`, `ev`, `trace`/`span`/`parent`
//! and the three body fields the analyses read — `hops`, `detections` and
//! `family`. Every other body field (`name`, `text`, `sha1`, `host`, ...)
//! is validated and dropped; to reach one, read line
//! [`Journal::line_of`]`(idx)` of the file again and hand it to
//! `p2pmal_json::parse`.
//!
//! A record holds `t`, the span itself and two codes. The `(trace, parent)`
//! pair an event shares with its siblings is a *context*, interned once per
//! journal (a LimeWire journal has about 45 events per context). Its `cat`,
//! `ev` and extras are a *kind*, interned the same way (a LimeWire journal
//! has about a dozen), and its `day` is the one its `t` falls in, as the
//! simulator writes it. An event that does not fit — a `t` of 2⁴⁸ or more,
//! another `day`, or a kind past the table's 65,535 — keeps those fields
//! in a side table, so [`Journal::get`] is exact for every line
//! [`scan_line`] accepts.

use std::borrow::Cow;
use std::collections::HashMap;
use std::io::BufRead;

use p2pmal_json::{Reader, Value};
use p2pmal_netsim::telemetry_span::parse_span_hex;
use p2pmal_netsim::SimTime;

/// The fields of one journal line that [`Journal`] keeps, borrowed from
/// the line where no escape had to be decoded.
#[derive(Debug, PartialEq)]
pub struct Line<'a> {
    /// Sim-time in microseconds.
    pub t: u64,
    pub day: u64,
    pub cat: Cow<'a, str>,
    pub ev: Cow<'a, str>,
    pub trace: Option<u64>,
    pub span: Option<u64>,
    pub parent: Option<u64>,
    /// `hops` / `detections`, when present as non-negative integers.
    pub hops: Option<u64>,
    pub detections: Option<u64>,
    /// `family`, when present as a string.
    pub family: Option<Cow<'a, str>>,
}

/// A picked field: the first occurrence of its key decides.
enum Slot<T> {
    Absent,
    /// The key was there with a value of the wrong type or range.
    Unusable,
    Got(T),
}

impl<T> Slot<T> {
    fn got(self) -> Option<T> {
        match self {
            Slot::Got(v) => Some(v),
            _ => None,
        }
    }
}

fn take_u64(slot: &mut Slot<u64>, r: &mut Reader<'_>) -> Result<(), p2pmal_json::ParseError> {
    if !matches!(slot, Slot::Absent) {
        return r.skip_value();
    }
    *slot = match r.peek() {
        Some(b'-' | b'0'..=b'9') => match Value::Num(r.number()?).as_u64() {
            Some(n) => Slot::Got(n),
            None => Slot::Unusable,
        },
        _ => {
            r.skip_value()?;
            Slot::Unusable
        }
    };
    Ok(())
}

fn take_str<'a>(
    slot: &mut Slot<Cow<'a, str>>,
    r: &mut Reader<'a>,
) -> Result<(), p2pmal_json::ParseError> {
    if !matches!(slot, Slot::Absent) {
        return r.skip_value();
    }
    *slot = if r.peek() == Some(b'"') {
        Slot::Got(r.string()?)
    } else {
        r.skip_value()?;
        Slot::Unusable
    };
    Ok(())
}

fn id_field(slot: Slot<Cow<'_, str>>, key: &str) -> Result<Option<u64>, String> {
    match slot {
        Slot::Absent => Ok(None),
        Slot::Unusable => Err(format!("`{key}` is not a string")),
        Slot::Got(s) => parse_span_hex(&s)
            .map(Some)
            .ok_or_else(|| format!("`{key}` is not a hex id: {s:?}")),
    }
}

/// Validates one journal line and picks out its [`Line`]. The error says
/// what is wrong but not where; callers prefix their own line number.
pub fn scan_line(line: &str) -> Result<Line<'_>, String> {
    let (mut t, mut day, mut hops, mut detections) =
        (Slot::Absent, Slot::Absent, Slot::Absent, Slot::Absent);
    let (mut cat, mut ev, mut family) = (Slot::Absent, Slot::Absent, Slot::Absent);
    let (mut trace, mut span, mut parent) = (Slot::Absent, Slot::Absent, Slot::Absent);

    let mut r = Reader::new(line);
    r.skip_ws();
    let syntax = if r.peek() == Some(b'{') {
        r.object(|key, r| match &*key {
            "t" => take_u64(&mut t, r),
            "day" => take_u64(&mut day, r),
            "hops" => take_u64(&mut hops, r),
            "detections" => take_u64(&mut detections, r),
            "cat" => take_str(&mut cat, r),
            "ev" => take_str(&mut ev, r),
            "family" => take_str(&mut family, r),
            "trace" => take_str(&mut trace, r),
            "span" => take_str(&mut span, r),
            "parent" => take_str(&mut parent, r),
            _ => r.skip_value(),
        })
    } else {
        // Any other document is checked as JSON and then fails on `t`.
        r.skip_value()
    };
    syntax
        .and_then(|()| r.finish())
        .map_err(|e| e.to_string())?;

    let line = Line {
        t: t.got().ok_or("missing numeric `t`")?,
        day: day.got().ok_or("missing numeric `day`")?,
        cat: cat.got().ok_or("missing string `cat`")?,
        ev: ev.got().ok_or("missing string `ev`")?,
        trace: id_field(trace, "trace")?,
        span: id_field(span, "span")?,
        parent: id_field(parent, "parent")?,
        hops: hops.got(),
        detections: detections.got(),
        family: family.got(),
    };
    if line.span.is_some() != line.trace.is_some() {
        return Err("`trace` and `span` must appear together".into());
    }
    if line.parent.is_some() && line.span.is_none() {
        return Err("`parent` without `span`".into());
    }
    Ok(line)
}

/// Feeds each line of `source` to `each` with its 1-based number and its
/// line ending (the ones `str::lines` strips) removed, reusing one buffer.
/// The error is the number of the line that failed and what was wrong.
fn for_each_line(
    mut source: impl BufRead,
    mut each: impl FnMut(usize, &str) -> Result<(), String>,
) -> Result<(), (usize, String)> {
    let mut buf = String::new();
    for n in 1usize.. {
        buf.clear();
        match source.read_line(&mut buf) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => return Err((n, e.to_string())),
        }
        let line = buf
            .strip_suffix('\n')
            .map_or(buf.as_str(), |l| l.strip_suffix('\r').unwrap_or(l));
        each(n, line).map_err(|e| (n, e))?;
    }
    Ok(())
}

/// The kind code of an event whose `t`, `day` and kind are in
/// [`Journal::wide`], not its record.
const WIDE: u16 = u16::MAX;

/// A `t` below this fits beside a kind code in [`Record::tk`].
const T_LIMIT: u64 = 1 << 48;

/// [`Record::ctx`] of a spanless event. A journal holds at most
/// `u32::MAX` events, so no context is numbered this.
const NO_CTX: u32 = u32::MAX;

/// What a spanned event shares with its siblings: its trace and the span
/// it names as parent. Interned per journal; events point at it by code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Ctx {
    pub(crate) trace: u64,
    pub(crate) parent: Option<u64>,
}

/// What an event shares with every event of its kind: its labels, as
/// codes in the journal's `cat` and `ev` tables, and the extras the
/// analyses read, `family` as a code in its family table. Interned per
/// journal; a LimeWire journal has about a dozen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Kind {
    cat: u8,
    pub(crate) ev: u16,
    pub(crate) hops: Option<u64>,
    pub(crate) detections: Option<u64>,
    family: Option<u32>,
}

/// One event, 20 bytes: `tk` holds `t` in its top 48 bits and the kind
/// code in its low 16; `ctx` is [`NO_CTX`] for a spanless event. An event
/// whose `t` does not fit, whose `day` is not the one `t` falls in, or
/// that finds the kind table full is [`WIDE`].
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
pub(crate) struct Record {
    tk: u64,
    pub(crate) span: u64,
    pub(crate) ctx: u32,
}

impl Record {
    pub(crate) fn spanned(&self) -> bool {
        self.ctx != NO_CTX
    }
}

/// What a [`WIDE`] event's record does not hold.
#[derive(Debug, Clone, Copy)]
struct Wide {
    t: u64,
    day: u64,
    kind: Kind,
}

/// Distinct strings of one field, numbered in order of first appearance.
#[derive(Debug, Default)]
struct Labels {
    names: Vec<String>,
    codes: HashMap<String, u32>,
}

impl Labels {
    /// The code of `label`, or `None` once `max` distinct labels are taken.
    fn intern(&mut self, label: &str, max: u32) -> Option<u32> {
        if let Some(&code) = self.codes.get(label) {
            return Some(code);
        }
        let code = self.names.len() as u32;
        if code > max {
            return None;
        }
        self.names.push(label.to_string());
        self.codes.insert(label.to_string(), code);
        Some(code)
    }
}

/// A borrowed view of one stored event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event<'a> {
    /// Sim-time in microseconds.
    pub t: u64,
    pub day: u64,
    pub cat: &'a str,
    pub ev: &'a str,
    pub trace: Option<u64>,
    pub span: Option<u64>,
    pub parent: Option<u64>,
    pub hops: Option<u64>,
    pub detections: Option<u64>,
    pub family: Option<&'a str>,
}

/// A loaded journal: one fixed-size record per event plus label, kind and
/// context tables.
#[derive(Debug, Default)]
pub struct Journal {
    records: Vec<Record>,
    cats: Labels,
    evs: Labels,
    families: Labels,
    /// Distinct kinds, numbered in order of first appearance; at most
    /// [`WIDE`] of them.
    kinds: Vec<Kind>,
    kind_codes: HashMap<Kind, u16>,
    /// Distinct contexts, numbered in order of first appearance.
    contexts: Vec<Ctx>,
    context_codes: HashMap<Ctx, u32>,
    /// Each [`WIDE`] event by ascending event index; normally empty. Keeps
    /// [`Journal::get`] exact for every line [`scan_line`] accepts.
    wide: Vec<(u32, Wide)>,
    /// For each blank line of the source, the number of events before it;
    /// non-decreasing and normally empty. Keeps [`Journal::line_of`] exact.
    blanks: Vec<u32>,
}

impl Journal {
    /// Streams a journal: one JSON object per non-blank line. Errors name
    /// the 1-based line.
    pub fn read(source: impl BufRead) -> Result<Journal, String> {
        let mut journal = Journal::default();
        for_each_line(source, |_, line| {
            if journal.records.len() >= u32::MAX as usize {
                return Err(format!("more than {} events", u32::MAX));
            }
            if line.trim().is_empty() {
                journal.blanks.push(journal.records.len() as u32);
                return Ok(());
            }
            journal
                .push(&scan_line(line)?)
                .map_err(|field| format!("too many distinct `{field}` values"))
        })
        .map_err(|(n, e)| format!("line {n}: {e}"))?;
        Ok(journal)
    }

    /// Stores one event; the error names the label field whose table is full.
    fn push(&mut self, line: &Line<'_>) -> Result<(), &'static str> {
        let family = match &line.family {
            Some(f) => Some(self.families.intern(f, u32::MAX).ok_or("family")?),
            None => None,
        };
        let ev = self.evs.intern(&line.ev, u16::MAX as u32).ok_or("ev")? as u16;
        let cat = self.cats.intern(&line.cat, u8::MAX as u32).ok_or("cat")? as u8;
        let kind = Kind {
            cat,
            ev,
            hops: line.hops,
            detections: line.detections,
            family,
        };

        let fits = line.t < T_LIMIT && line.day == SimTime::from_micros(line.t).day();
        let tk = match fits.then(|| self.kind_code(kind)).flatten() {
            Some(code) => line.t << 16 | u64::from(code),
            None => {
                let wide = Wide {
                    t: line.t,
                    day: line.day,
                    kind,
                };
                self.wide.push((self.records.len() as u32, wide));
                u64::from(WIDE)
            }
        };

        let ctx = match line.trace {
            Some(trace) => {
                let ctx = Ctx {
                    trace,
                    parent: line.parent,
                };
                let next = self.contexts.len() as u32;
                let code = *self.context_codes.entry(ctx).or_insert(next);
                if code == next {
                    self.contexts.push(ctx);
                }
                code
            }
            None => NO_CTX,
        };
        self.records.push(Record {
            tk,
            span: line.span.unwrap_or(0),
            ctx,
        });
        Ok(())
    }

    /// The code of `kind`, or `None` once every code below [`WIDE`] is taken.
    fn kind_code(&mut self, kind: Kind) -> Option<u16> {
        if let Some(&code) = self.kind_codes.get(&kind) {
            return Some(code);
        }
        let code = u16::try_from(self.kinds.len()).ok().filter(|&c| c < WIDE)?;
        self.kinds.push(kind);
        self.kind_codes.insert(kind, code);
        Some(code)
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The event at 0-based `idx`. Panics when out of range.
    pub fn get(&self, idx: usize) -> Event<'_> {
        let r = self.records[idx];
        let ctx = self.context_of(&r);
        let (t, day, kind) = self.unpack(idx);
        Event {
            t,
            day,
            cat: &self.cats.names[kind.cat as usize],
            ev: self.ev_label(kind.ev),
            trace: ctx.map(|c| c.trace),
            span: ctx.map(|_| r.span),
            parent: ctx.and_then(|c| c.parent),
            hops: kind.hops,
            detections: kind.detections,
            family: self.family_of(idx),
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = Event<'_>> {
        (0..self.len()).map(|idx| self.get(idx))
    }

    /// 1-based line of the source file that event `idx` was read from.
    pub fn line_of(&self, idx: usize) -> usize {
        idx + 1
            + self
                .blanks
                .partition_point(|&before| before as usize <= idx)
    }

    pub(crate) fn records(&self) -> &[Record] {
        &self.records
    }

    pub(crate) fn contexts(&self) -> &[Ctx] {
        &self.contexts
    }

    /// The context of a spanned record.
    pub(crate) fn context_of(&self, r: &Record) -> Option<&Ctx> {
        r.spanned().then(|| &self.contexts[r.ctx as usize])
    }

    /// The code of `ctx`, if an event of this journal has it.
    pub(crate) fn context_code(&self, ctx: &Ctx) -> Option<u32> {
        self.context_codes.get(ctx).copied()
    }

    /// Event `idx`'s `t`, its `day` and its kind.
    fn unpack(&self, idx: usize) -> (u64, u64, &Kind) {
        let tk = self.records[idx].tk;
        match tk as u16 {
            WIDE => {
                let at = self.wide.partition_point(|&(i, _)| (i as usize) < idx);
                let wide = &self.wide[at].1;
                (wide.t, wide.day, &wide.kind)
            }
            code => {
                let t = tk >> 16;
                (t, SimTime::from_micros(t).day(), &self.kinds[code as usize])
            }
        }
    }

    /// Sim-time of event `idx`.
    pub(crate) fn t(&self, idx: usize) -> u64 {
        self.unpack(idx).0
    }

    /// The kind of event `idx`.
    pub(crate) fn kind(&self, idx: usize) -> &Kind {
        self.unpack(idx).2
    }

    pub(crate) fn ev_label(&self, code: u16) -> &str {
        &self.evs.names[code as usize]
    }

    /// The code `label` has in this journal's `ev` table, if it occurs.
    pub(crate) fn ev_code(&self, label: &str) -> Option<u16> {
        self.evs.codes.get(label).map(|&c| c as u16)
    }

    /// The `family` of event `idx`.
    pub(crate) fn family_of(&self, idx: usize) -> Option<&str> {
        self.kind(idx)
            .family
            .map(|code| self.families.names[code as usize].as_str())
    }
}

/// Loads a journal held in memory.
pub fn parse_journal(text: &str) -> Result<Journal, String> {
    Journal::read(text.as_bytes())
}

/// Streams a journal file; memory is the [`Journal`] plus one line.
pub fn load_journal(path: &str) -> Result<Journal, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Journal::read(std::io::BufReader::with_capacity(64 * 1024, file))
        .map_err(|e| format!("cannot read {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_20_bytes() {
        assert_eq!(std::mem::size_of::<Record>(), 20);
    }

    #[test]
    fn parses_spanned_and_spanless_lines() {
        let text = concat!(
            "{\"t\":1,\"day\":0,\"cat\":\"query\",\"ev\":\"query_matched\",",
            "\"trace\":\"00000000000000aa\",\"span\":\"00000000000000bb\",",
            "\"text\":\"mp3\",\"results\":1,\"hops\":2}\n",
            "\n",
            "{\"t\":2,\"day\":0,\"cat\":\"churn\",\"ev\":\"churn_down\",\"node\":3}\r\n",
            "{\"t\":3,\"day\":0,\"cat\":\"scan\",\"ev\":\"infection\",\"family\":\"w\\u0041\"}",
        );
        let journal = parse_journal(text).unwrap();
        assert_eq!(journal.len(), 3);
        let first = journal.get(0);
        assert_eq!(
            (first.t, first.cat, first.ev),
            (1, "query", "query_matched")
        );
        assert_eq!(first.trace, Some(0xaa));
        assert_eq!(first.span, Some(0xbb));
        assert_eq!(first.parent, None);
        assert_eq!(first.hops, Some(2));
        assert_eq!(first.family, None);
        assert_eq!(journal.get(1).span, None);
        assert_eq!(journal.get(2).family, Some("wA"));
        // The blank line is skipped but still counts as a line.
        assert_eq!(
            [0, 1, 2].map(|i| journal.line_of(i)),
            [1, 3, 4],
            "source lines"
        );
    }

    #[test]
    fn errors_carry_the_line_number() {
        let good = "{\"t\":1,\"day\":0,\"cat\":\"query\",\"ev\":\"q\"}\n";
        let err = parse_journal(&format!("{good}\n{good}{{\"t\":1}}\n")).unwrap_err();
        assert_eq!(err, "line 4: missing numeric `day`");
        let err = parse_journal(&format!("{good}[1,\n")).unwrap_err();
        assert!(
            err.starts_with("line 2: JSON parse error at byte 3"),
            "{err}"
        );
        let err = Journal::read(&b"{\"t\":1}\n\xff\n"[..]).unwrap_err();
        assert!(err.starts_with("line 1: "), "{err}");
        let err = Journal::read(&b"\n\xff\n"[..]).unwrap_err();
        assert!(err.starts_with("line 2: "), "{err}");
    }

    #[test]
    fn rejects_malformed_provenance() {
        // span without trace
        let bad = "{\"t\":1,\"day\":0,\"cat\":\"query\",\"ev\":\"query_issued\",\"span\":\"01\"}";
        assert!(scan_line(bad).is_err());
        // parent without span
        let bad = "{\"t\":1,\"day\":0,\"cat\":\"query\",\"ev\":\"query_issued\",\"parent\":\"01\"}";
        assert!(scan_line(bad).is_err());
        // non-hex id
        let bad = concat!(
            "{\"t\":1,\"day\":0,\"cat\":\"query\",\"ev\":\"q\",",
            "\"trace\":\"zz\",\"span\":\"01\"}"
        );
        assert!(scan_line(bad).is_err());
    }

    #[test]
    fn label_tables_are_bounded() {
        let mut text = String::new();
        for i in 0..=256 {
            text.push_str(&format!(
                "{{\"t\":1,\"day\":0,\"cat\":\"c{i}\",\"ev\":\"e\"}}\n"
            ));
        }
        assert_eq!(
            parse_journal(&text).unwrap_err(),
            "line 257: too many distinct `cat` values"
        );
    }

    /// The loader this module replaced: build the whole tree, then look
    /// fields up. [`scan_line`] must accept exactly the lines it accepted
    /// and pick the same values.
    fn oracle(line: &str) -> Result<Line<'static>, String> {
        let obj = p2pmal_json::parse(line).map_err(|e| e.to_string())?;
        let need_u64 = |key: &str| {
            obj.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing numeric `{key}`"))
        };
        let need_str = |key: &str| {
            obj.get(key)
                .and_then(Value::as_str)
                .map(|s| Cow::Owned(s.to_string()))
                .ok_or_else(|| format!("missing string `{key}`"))
        };
        let id = |key: &str| match obj.get(key) {
            None => Ok(None),
            Some(v) => {
                let s = v
                    .as_str()
                    .ok_or_else(|| format!("`{key}` is not a string"))?;
                parse_span_hex(s)
                    .map(Some)
                    .ok_or_else(|| format!("`{key}` is not a hex id: {s:?}"))
            }
        };
        let line = Line {
            t: need_u64("t")?,
            day: need_u64("day")?,
            cat: need_str("cat")?,
            ev: need_str("ev")?,
            trace: id("trace")?,
            span: id("span")?,
            parent: id("parent")?,
            hops: obj.get("hops").and_then(Value::as_u64),
            detections: obj.get("detections").and_then(Value::as_u64),
            family: need_str("family").ok(),
        };
        if line.span.is_some() != line.trace.is_some() {
            return Err("`trace` and `span` must appear together".into());
        }
        if line.parent.is_some() && line.span.is_none() {
            return Err("`parent` without `span`".into());
        }
        Ok(line)
    }

    #[test]
    fn scanner_agrees_with_the_tree_parser_on_odd_lines() {
        let lines = [
            "",
            "null",
            "[{\"t\":1}]",
            "{}",
            " { \"t\" : 1 , \"day\" : 2 , \"cat\" : \"c\" , \"ev\" : \"e\" } ",
            "{\"ev\":\"e\",\"cat\":\"c\",\"day\":2,\"t\":1}",
            "{\"t\":1,\"t\":\"x\",\"day\":2,\"cat\":\"c\",\"ev\":\"e\"}",
            "{\"t\":\"x\",\"t\":1,\"day\":2,\"cat\":\"c\",\"ev\":\"e\"}",
            "{\"\\u0074\":1,\"day\":2,\"cat\":\"c\",\"ev\":\"e\"}",
            "{\"t\":1e3,\"day\":2.0,\"cat\":\"c\",\"ev\":\"e\"}",
            "{\"t\":1.5,\"day\":2,\"cat\":\"c\",\"ev\":\"e\"}",
            "{\"t\":-1,\"day\":2,\"cat\":\"c\",\"ev\":\"e\"}",
            "{\"t\":-0,\"day\":2,\"cat\":\"c\",\"ev\":\"e\"}",
            "{\"t\":1e400,\"day\":2,\"cat\":\"c\",\"ev\":\"e\"}",
            "{\"t\":18446744073709551616,\"day\":2,\"cat\":\"c\",\"ev\":\"e\"}",
            "{\"t\":1,\"day\":2,\"cat\":\"c\",\"ev\":\"e\",\"x\":[1,{\"t\":[]}],\"hops\":null}",
            "{\"t\":1,\"day\":2,\"cat\":\"c\",\"ev\":\"e\",\"x\":[1,}",
            "{\"t\":1,\"day\":2,\"cat\":\"c\",\"ev\":\"e\"} x",
            "{\"t\":1,\"day\":2,\"cat\":\"c\",\"ev\":\"e\",}",
            "{\"t\":1,\"day\":2,\"cat\":\"c\",\"ev\":\"e\",\"trace\":7,\"span\":\"1\"}",
            "{\"t\":1,\"day\":2,\"cat\":\"c\",\"ev\":\"e\",\"trace\":\"+f\",\"span\":\"1\"}",
            "{\"t\":1,\"day\":2,\"cat\":\"c\",\"ev\":\"e\",\"trace\":\"1\",\"span\":\"1\",\"parent\":\"\"}",
            "{\"t\":1,\"day\":2,\"cat\":\"c\",\"ev\":\"e\",\"family\":3,\"family\":\"f\"}",
            "{\"t\":1,\"day\":2,\"cat\":\"c\\\"\\\\\\n\",\"ev\":\"\\q\"}",
            "{\"t\":1,\"day\":2,\"cat\":\"c\",\"ev\":\"e\",\"detections\":7,\"hops\":1.5}",
            "{\"t\":1,\"day\":2,\"cat\":tru,\"ev\":\"e\"}",
            "{\"t\":1,\"day\":2,\"cat\":\"c\",\"ev\":\"unterminated",
        ];
        for line in lines {
            assert_eq!(scan_line(line), oracle(line), "{line:?}");
        }
        let deep = format!(
            "{{\"t\":1,\"day\":2,\"cat\":\"c\",\"ev\":\"e\",\"x\":{}{}}}",
            "[".repeat(200),
            "]".repeat(200)
        );
        assert_eq!(scan_line(&deep), oracle(&deep));
        assert!(scan_line(&deep).is_err());
    }

    /// `v` cut to its top `64 - shift` bits: small and huge values alike.
    fn scaled((v, shift): (u64, u32)) -> u64 {
        v >> shift
    }

    /// [`Journal::get`]'s view of an event as the [`Line`] it came from.
    fn line_of_event(e: Event<'_>) -> Line<'_> {
        Line {
            t: e.t,
            day: e.day,
            cat: Cow::Borrowed(e.cat),
            ev: Cow::Borrowed(e.ev),
            trace: e.trace,
            span: e.span,
            parent: e.parent,
            hops: e.hops,
            detections: e.detections,
            family: e.family.map(Cow::Borrowed),
        }
    }

    /// Every event of `text` as [`Journal::get`] returns it equals what
    /// [`scan_line`] picks out of its line.
    fn assert_get_is_exact(journal: &Journal, text: &str) {
        assert_eq!(journal.len(), text.lines().count());
        for (idx, line) in text.lines().enumerate() {
            assert_eq!(
                line_of_event(journal.get(idx)),
                scan_line(line).unwrap(),
                "{line}"
            );
        }
    }

    #[test]
    fn wide_events_keep_every_field() {
        let text = concat!(
            "{\"t\":281474976710655,\"day\":3257,\"cat\":\"c\",\"ev\":\"e\"}\n",
            "{\"t\":281474976710656,\"day\":3257,\"cat\":\"c\",\"ev\":\"e\"}\n",
            "{\"t\":86400000000,\"day\":0,\"cat\":\"c\",\"ev\":\"e\"}\n",
            "{\"t\":1,\"day\":4294967296,\"cat\":\"c\",\"ev\":\"e\"}\n",
            "{\"t\":2,\"day\":0,\"cat\":\"c\",\"ev\":\"e\",\"hops\":18446744073709551615}\n",
            "{\"t\":4,\"day\":0,\"cat\":\"c\",\"ev\":\"e\",",
            "\"hops\":1,\"detections\":2,\"family\":\"f\"}\n",
        );
        let journal = parse_journal(text).unwrap();
        let wide: Vec<u32> = journal.wide.iter().map(|&(idx, _)| idx).collect();
        assert_eq!(wide, [1, 2, 3], "t = 2^48 and the two foreign days");
        assert_get_is_exact(&journal, text);
    }

    /// 70,000 distinct `hops` are more kinds than codes: the events past
    /// the table's end go wide and keep every field.
    #[test]
    fn a_full_kind_table_falls_back_to_wide() {
        let text: String = (0..70_000)
            .map(|hops| {
                format!("{{\"t\":{hops},\"day\":0,\"cat\":\"c\",\"ev\":\"e\",\"hops\":{hops}}}\n")
            })
            .collect();
        let journal = parse_journal(&text).unwrap();
        assert_get_is_exact(&journal, &text);
        assert_eq!(journal.kinds.len(), WIDE as usize);
        assert_eq!(journal.wide.len(), 70_000 - WIDE as usize);
    }

    const KEYS: [&str; 13] = [
        "t",
        "day",
        "cat",
        "ev",
        "trace",
        "span",
        "parent",
        "hops",
        "detections",
        "family",
        "x",
        "\\u0074",
        "da\\u0079",
    ];
    const VALUES: [&str; 20] = [
        "1",
        "0",
        "-1",
        "2.5",
        "1e3",
        "18446744073709551615",
        "null",
        "true",
        "\"q\"",
        "\"00000000000000aa\"",
        "\"Ab\"",
        "\"zz\"",
        "\"\"",
        "\"a\\n\\u00e9\\\"b\"",
        "\"é\"",
        "[1,{\"t\":2}]",
        "{\"t\":[]}",
        "tru",
        "\"open",
        "[1,",
    ];
    const TAILS: [&str; 5] = ["", " ", "\r", "x", ","];

    proptest::proptest! {
        /// Arbitrary bytes never panic the scanner, and it accepts exactly
        /// what the tree parser plus the old field rules accept.
        #[test]
        fn scanner_matches_oracle_on_arbitrary_bytes(
            bytes in proptest::collection::vec(proptest::any::<u8>(), 0..120)
        ) {
            let text = String::from_utf8_lossy(&bytes);
            proptest::prop_assert_eq!(scan_line(&text), oracle(&text));
        }

        /// A valid envelope with random fields spliced in anywhere: about
        /// half the lines are accepted, the rest fail in every way the
        /// field rules know.
        #[test]
        fn scanner_matches_oracle_on_journal_shaped_lines(
            edits in proptest::collection::vec(
                (0usize..KEYS.len(), 0usize..VALUES.len(), 0usize..8), 0..5),
            tail in 0usize..TAILS.len()
        ) {
            let mut fields: Vec<(&str, &str)> =
                vec![("t", "7"), ("day", "0"), ("cat", "\"c\""), ("ev", "\"e\"")];
            for (key, value, at) in edits {
                fields.insert(at.min(fields.len()), (KEYS[key], VALUES[value]));
            }
            let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            let text = format!("{{{}}}{}", body.join(","), TAILS[tail]);
            proptest::prop_assert_eq!(scan_line(&text), oracle(&text), "{}", text);
        }

        /// [`Journal::get`] returns every field [`scan_line`] picked out of
        /// the event's line: `t`, `day`, `hops` and `detections` across all
        /// of `u64`, half the `day`s the one `t` falls in, any subset of the
        /// three extras, spanned or not.
        #[test]
        fn get_returns_every_field_of_its_line(
            events in proptest::collection::vec(
                (
                    ((proptest::any::<u64>(), 0u32..64), (proptest::any::<u64>(), 0u32..64)),
                    ((proptest::any::<u64>(), 0u32..64), (proptest::any::<u64>(), 0u32..64)),
                    (0u8..64, 0u8..3),
                    (0u64..3, 0u64..6, 0u64..7),
                ),
                1..16,
            )
        ) {
            let mut text = String::new();
            for ((t, day), (hops, detections), (fields, family), (trace, span, parent)) in events {
                let t = scaled(t);
                let day = if fields & 32 != 0 {
                    SimTime::from_micros(t).day()
                } else {
                    scaled(day)
                };
                text.push_str(&format!(
                    "{{\"t\":{t},\"day\":{day},\"cat\":\"c{trace}\",\"ev\":\"e{span}\""
                ));
                if fields & 1 != 0 {
                    text.push_str(&format!(",\"hops\":{}", scaled(hops)));
                }
                if fields & 2 != 0 {
                    text.push_str(&format!(",\"detections\":{}", scaled(detections)));
                }
                if fields & 4 != 0 {
                    text.push_str(&format!(",\"family\":\"f{family}\""));
                }
                if fields & 8 != 0 {
                    text.push_str(&format!(",\"trace\":\"{trace:x}\",\"span\":\"{span:x}\""));
                    if fields & 16 != 0 {
                        text.push_str(&format!(",\"parent\":\"{parent:x}\""));
                    }
                }
                text.push_str("}\n");
            }
            assert_get_is_exact(&parse_journal(&text).unwrap(), &text);
        }

        /// Whatever the bytes, loading either fails with a line number or
        /// stores one event per non-blank line.
        #[test]
        fn journal_read_never_panics(
            bytes in proptest::collection::vec(proptest::any::<u8>(), 0..200)
        ) {
            match Journal::read(&bytes[..]) {
                Ok(journal) => proptest::prop_assert!(journal.len() <= bytes.len()),
                Err(e) => proptest::prop_assert!(e.starts_with("line "), "{}", e),
            }
        }
    }
}
