//! Property tests on the filters' invariants.

use p2pmal_crawler::log::{HostKey, ResponseRecord};
use p2pmal_crawler::ResolvedResponse;
use p2pmal_filter::{evaluate, EchoHeuristicFilter, LimewireBuiltin, ResponseFilter, SizeFilter};
use p2pmal_netsim::SimTime;
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn resp(name: &str, size: u32, malware: bool) -> ResolvedResponse {
    resp_to("q", name, size, malware)
}

fn resp_to(query: &str, name: &str, size: u32, malware: bool) -> ResolvedResponse {
    ResolvedResponse {
        record: ResponseRecord {
            at: SimTime::ZERO,
            day: 0,
            query: query.into(),
            filename: name.into(),
            size,
            source_ip: Ipv4Addr::new(1, 1, 1, 1),
            source_port: 1,
            needs_push: false,
            host: HostKey::Guid([0; 16]).into(),
            downloadable: p2pmal_crawler::is_downloadable_name(name),
        },
        malware: malware.then(|| "W32.X".into()),
        scanned: true,
        sha1: None,
    }
}

/// Pieces names and queries are made of: mixed case, separators, the
/// keywords and extensions the filters look for, and multi-byte characters
/// (some of which lowercase to ASCII under Unicode rules but not ASCII's).
const PIECES: &[&str] = &[
    "free",
    "FREE",
    "Music",
    "top",
    "hits",
    "2006",
    "crack",
    "CrAcK",
    "KEYGEN",
    "warez",
    "serial",
    "Hack",
    "hac",
    "k",
    "_",
    "-",
    " ",
    "  ",
    ".",
    "..",
    ".exe",
    ".EXE",
    ".zip",
    ".Zip",
    ".mp3",
    "é",
    "É",
    "ß",
    "\u{212A}eygen",
    "İ",
    "ſerial",
    "日本",
    "\t",
];

fn joined(pieces: &[usize]) -> String {
    pieces.iter().map(|&i| PIECES[i % PIECES.len()]).collect()
}

/// Flips the ASCII case of the characters `mask` selects (bit `i % 64`
/// for the `i`-th character).
fn flip_case(s: &str, mask: u64) -> String {
    s.chars()
        .enumerate()
        .map(|(i, c)| match mask >> (i % 64) & 1 {
            1 if c.is_ascii_lowercase() => c.to_ascii_uppercase(),
            1 => c.to_ascii_lowercase(),
            _ => c,
        })
        .collect()
}

/// `LimewireBuiltin::blocks` as it was before it compared in place: a
/// lowered copy of the query and of the name per row.
fn builtin_reference(keywords: &[String], query: &str, filename: &str) -> bool {
    let echo = {
        let q = query.trim().to_ascii_lowercase();
        let f = filename.to_ascii_lowercase();
        !q.is_empty()
            && [".exe", ".zip"]
                .iter()
                .any(|ext| f.strip_suffix(ext) == Some(q.as_str()))
    };
    let f = filename.to_ascii_lowercase();
    echo || keywords.iter().any(|k| f.contains(k.as_str()))
}

/// `EchoHeuristicFilter::blocks` as it was: the name stem's terms
/// collected into a vector per row.
fn echo_reference(r: &ResolvedResponse) -> bool {
    let terms = p2pmal_corpus::library::query_terms;
    let Some((stem, _)) = r.record.filename.rsplit_once('.') else {
        return false;
    };
    let q = terms(&r.record.query);
    r.record.downloadable && !q.is_empty() && terms(stem) == q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The in-place comparisons block exactly the rows the lowering ones
    /// did: free-form names, names that echo the query under another case
    /// or separator, and custom keywords in any case.
    #[test]
    fn name_filters_match_their_lowering_references(
        query in proptest::collection::vec(0usize..64, 0..6),
        name in proptest::collection::vec(0usize..64, 0..10),
        ext in 0usize..6,
        masks in (any::<u64>(), any::<u64>()),
        keyword in proptest::collection::vec(0usize..64, 0..3),
    ) {
        let query = flip_case(&joined(&query), masks.0);
        let echoed = flip_case(&query, masks.1).replace(' ', ["_", " ", "-"][ext % 3]);
        let ext = [".exe", ".ZIP", ".Exe", ".mp3", "", ".zip"][ext];
        let keywords: Vec<String> = vec![joined(&keyword), "CRACK".into(), "é".into()];
        let builtin = LimewireBuiltin::with_keywords(keywords.clone());
        let lowered: Vec<String> = keywords.iter().map(|k| k.to_ascii_lowercase()).collect();
        let stock = LimewireBuiltin::new();
        let stock_words: Vec<String> =
            p2pmal_filter::limewire::DEFAULT_KEYWORDS.iter().map(|k| k.to_string()).collect();
        let echo = EchoHeuristicFilter::new();
        let free = flip_case(&joined(&name), masks.1);
        let names = [
            free.clone(),
            format!("{echoed}{ext}"),
            format!("{query}{ext}"),
            format!("{echoed}{free}{ext}"),
        ];
        for filename in names {
            let r = resp_to(&query, &filename, 1, false);
            let (q, f) = (query.as_str(), filename.as_str());
            prop_assert_eq!(builtin.blocks(&r), builtin_reference(&lowered, q, f));
            prop_assert_eq!(stock.blocks(&r), builtin_reference(&stock_words, q, f));
            prop_assert_eq!(echo.blocks(&r), echo_reference(&r));
        }
    }

    /// Tolerant matching agrees with the naive O(n) definition.
    #[test]
    fn tolerance_matches_naive(
        blocked in proptest::collection::btree_set(0u64..100_000, 0..20),
        tolerance in 0u64..5000,
        probe in 0u64..110_000,
    ) {
        let filter = SizeFilter::from_sizes(blocked.iter().copied()).with_tolerance(tolerance);
        let naive = blocked.iter().any(|&b| probe.abs_diff(b) <= tolerance);
        prop_assert_eq!(filter.blocks_size(probe), naive);
    }

    /// Evaluation conserves the universe: TP+FN+FP+TN equals the number of
    /// scanned downloadable responses, and rates stay in [0, 1].
    #[test]
    fn eval_conserves_counts(rows in proptest::collection::vec((0u32..5000, any::<bool>(), any::<bool>()), 0..100)) {
        let responses: Vec<ResolvedResponse> = rows
            .iter()
            .map(|&(size, malware, exe)| resp(if exe { "f.exe" } else { "f.mp3" }, size, malware))
            .collect();
        let filter = SizeFilter::from_sizes([100, 2000, 4000]);
        let ev = evaluate(&filter, &responses);
        let universe = responses.iter().filter(|r| r.record.downloadable).count() as u64;
        prop_assert_eq!(ev.tp + ev.fn_ + ev.fp + ev.tn, universe);
        for rate in [ev.detection_rate(), ev.false_positive_rate(), ev.precision()] {
            prop_assert!((0.0..=1.0).contains(&rate));
        }
    }

    /// A learned filter always blocks the most common size of the most
    /// popular family in its own training data (k >= 1).
    #[test]
    fn learn_blocks_dominant_size(extra in proptest::collection::vec((0u32..9000, any::<bool>()), 0..40)) {
        let mut train: Vec<ResolvedResponse> =
            (0..50).map(|_| resp("worm.exe", 12_345, true)).collect();
        train.extend(extra.iter().map(|&(size, malware)| resp("other.exe", size, malware)));
        let f = SizeFilter::learn(&train, 1, 1);
        // 12,345 appears 50 times for the dominant family; no other single
        // (family,size) pair can beat it (extras are spread or few).
        prop_assert!(f.blocks_size(12_345) || extra.len() >= 50);
    }

    /// Widening the blocklist never reduces detection.
    #[test]
    fn more_sizes_never_hurt_detection(sizes in proptest::collection::vec(0u32..10_000, 1..12)) {
        let universe: Vec<ResolvedResponse> =
            sizes.iter().map(|&s| resp("m.exe", s, true)).collect();
        let mut det = Vec::new();
        for k in 0..=sizes.len() {
            let f = SizeFilter::from_sizes(sizes[..k].iter().copied().map(u64::from));
            det.push(evaluate(&f, &universe).detection_rate());
        }
        for w in det.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-12);
        }
    }
}
