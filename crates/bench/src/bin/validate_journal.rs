//! Validates a telemetry event journal written via `P2PMAL_JOURNAL`.
//!
//! Streams the file through `p2pmal_obs::scan_line`, the one parser of the
//! journal schema, so memory is the span set plus one line. Every line must
//! parse as a JSON object carrying the event envelope (`t`, `day`, `cat`,
//! `ev`) with a known category, and the sim timestamps must be monotone
//! non-decreasing. Provenance is checked for referential integrity:
//! `trace`/`span` must appear together as valid hex ids, span ids must be
//! unique, and every `parent` must
//! resolve to a span emitted **earlier in the same journal** — which,
//! combined with global `t` monotonicity, also guarantees sim-times are
//! monotone along every causal chain. CI runs this against the journals
//! of a quick study to keep the JSONL schema honest.
//!
//! ```sh
//! cargo run -p p2pmal-bench --bin validate_journal -- journal.limewire.jsonl journal.openft.jsonl
//! ```
//!
//! Prints one summary line per valid journal (ending in the validator's own
//! peak RSS so far); exits with status 1 if any journal is malformed, 2 on
//! usage errors. `--allow-orphans` downgrades
//! unresolved parents from errors to a reported count (for truncated or
//! sampled journals, where chains are cut on purpose).

use std::collections::HashSet;

use p2pmal_netsim::{process_rss_kb, EventCategory};
use p2pmal_obs::{for_each_line, scan_line};

fn validate(path: &str, allow_orphans: bool) -> Result<(), String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let mut last_t = 0u64;
    let mut counts = [0u64; EventCategory::ALL.len()];
    let mut events = 0u64;
    let mut spans_seen: HashSet<u64> = HashSet::new();
    let mut traces_seen: HashSet<u64> = HashSet::new();
    let mut spanned = 0u64;
    let mut orphans = 0u64;
    let mut first_orphan: Option<String> = None;
    let source = std::io::BufReader::with_capacity(64 * 1024, file);
    for_each_line(source, |n, line| {
        // Envelope and provenance well-formedness are the scanner's rules.
        let line = scan_line(line)?;
        let cat = EventCategory::from_label(&line.cat)
            .ok_or(format!("unknown category {:?}", line.cat))?;
        let t = line.t;
        if t < last_t {
            return Err(format!("sim time went backwards ({t} < {last_t})"));
        }
        last_t = t;

        // Provenance referential integrity.
        if let Some(p) = line.parent {
            // Checked before registering this line's own span, so a
            // self-parenting event is also caught as unresolved.
            if !spans_seen.contains(&p) {
                orphans += 1;
                first_orphan.get_or_insert_with(|| {
                    format!("{path}:{n}: parent {p:016x} never emitted before this line")
                });
            }
        }
        if let (Some(trace), Some(s)) = (line.trace, line.span) {
            spanned += 1;
            traces_seen.insert(trace);
            if !spans_seen.insert(s) {
                return Err(format!("duplicate span id {s:016x}"));
            }
        }

        counts[cat as usize] += 1;
        events += 1;
        Ok(())
    })
    .map_err(|(n, e)| format!("{path}:{n}: {e}"))?;
    if orphans > 0 && !allow_orphans {
        return Err(format!(
            "{}: {orphans} orphan parent reference(s) in total",
            first_orphan.expect("orphans > 0")
        ));
    }
    let breakdown: Vec<String> = EventCategory::ALL
        .iter()
        .zip(counts.iter())
        .filter(|(_, &n)| n > 0)
        .map(|(c, n)| format!("{} {n}", c.label()))
        .collect();
    println!(
        "{path}: {events} events OK ({}); {spanned} spanned, {} traces, {orphans} orphans; \
         peak RSS {:.1} MiB",
        if breakdown.is_empty() {
            "empty".into()
        } else {
            breakdown.join(", ")
        },
        traces_seen.len(),
        process_rss_kb().0 as f64 / 1024.0,
    );
    Ok(())
}

fn main() {
    let mut allow_orphans = false;
    let mut paths: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--allow-orphans" => allow_orphans = true,
            _ if arg.starts_with('-') => {
                eprintln!("usage: validate_journal [--allow-orphans] <journal.jsonl>...");
                std::process::exit(2);
            }
            _ => paths.push(arg),
        }
    }
    if paths.is_empty() {
        eprintln!("usage: validate_journal [--allow-orphans] <journal.jsonl>...");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in &paths {
        if let Err(e) = validate(path, allow_orphans) {
            eprintln!("[validate_journal] INVALID: {e}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
