//! The study's analyses: each function maps resolved response logs to one
//! of the reconstructed tables/figures (see DESIGN.md §4 for the index).

use crate::stats::{ecdf, pct, ranked_shares, tally, RankedShare};
use crate::table::{fmt_count, fmt_pct, Table};
use p2pmal_crawler::log::{CrawlLog, HostKey, ResolvedResponse};
use p2pmal_netsim::{ip_class, IpClass};
use std::collections::{BTreeMap, HashMap, HashSet};

/// T1 — data-collection summary for one network.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub network: String,
    pub queries: u64,
    pub responses: u64,
    /// Extension-classified archive/executable responses.
    pub downloadable: u64,
    /// Downloadable responses whose content got a scan verdict.
    pub scanned: u64,
    /// Scanned responses carrying malware.
    pub malicious: u64,
    /// The headline number: malicious / scanned downloadable responses.
    pub malicious_pct: f64,
    pub distinct_hosts: u64,
    pub distinct_malware: u64,
}

/// Computes the T1 summary.
pub fn summarize(network: &str, log: &CrawlLog, resolved: &[ResolvedResponse]) -> Summary {
    let (mut downloadable, mut scanned, mut malicious) = (0u64, 0u64, 0u64);
    // Both sets grow as they fill: collected from the rows, the host set
    // would be sized by the row count (1.78 M slots for a month of OpenFT)
    // to hold about a hundred hosts.
    let mut hosts: HashSet<&HostKey> = HashSet::new();
    let mut malware: HashSet<&str> = HashSet::new();
    for r in resolved {
        hosts.insert(&r.record.host);
        if let Some(family) = r.malware.as_deref() {
            malware.insert(family);
        }
        if r.record.downloadable {
            downloadable += 1;
            scanned += u64::from(r.scanned);
            malicious += u64::from(r.malware.is_some());
        }
    }
    Summary {
        network: network.to_string(),
        queries: log.queries_issued,
        responses: resolved.len() as u64,
        downloadable,
        scanned,
        malicious,
        malicious_pct: pct(malicious, scanned),
        distinct_hosts: hosts.len() as u64,
        distinct_malware: malware.len() as u64,
    }
}

/// Renders one or more summaries as the T1 table.
pub fn summary_table(summaries: &[Summary]) -> Table {
    let mut t = Table::new(
        "T1 — Data collection summary",
        &[
            "network",
            "queries",
            "responses",
            "downloadable (exe/zip)",
            "scanned",
            "malicious",
            "% malicious",
            "distinct hosts",
            "distinct malware",
        ],
    );
    for s in summaries {
        t.row(vec![
            s.network.clone(),
            fmt_count(s.queries),
            fmt_count(s.responses),
            fmt_count(s.downloadable),
            fmt_count(s.scanned),
            fmt_count(s.malicious),
            fmt_pct(s.malicious_pct),
            fmt_count(s.distinct_hosts),
            fmt_count(s.distinct_malware),
        ]);
    }
    t
}

/// T2/T3 — malware prevalence ranking: share of malicious responses per
/// distinct malware.
pub fn top_malware(resolved: &[ResolvedResponse]) -> Vec<RankedShare<String>> {
    // Tallied on the shared text; only the ranking's few names are copied.
    let counts = tally(resolved.iter().filter_map(|r| r.malware.as_deref()));
    ranked_shares(
        counts
            .into_iter()
            .map(|(family, n)| (family.to_string(), n))
            .collect(),
    )
}

/// Renders a top-malware ranking.
pub fn top_malware_table(title: &str, shares: &[RankedShare<String>], top: usize) -> Table {
    let mut t = Table::new(
        title,
        &[
            "rank",
            "malware",
            "malicious responses",
            "% of malicious",
            "cumulative %",
        ],
    );
    for s in shares.iter().take(top) {
        t.row(vec![
            s.rank.to_string(),
            s.item.clone(),
            fmt_count(s.count),
            fmt_pct(s.pct),
            fmt_pct(s.cumulative_pct),
        ]);
    }
    t
}

/// T4 — sources of malicious responses by advertised address class.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceBreakdown {
    pub rows: Vec<(IpClass, u64)>,
    pub total: u64,
    pub private_pct: f64,
}

pub fn source_breakdown(resolved: &[ResolvedResponse]) -> SourceBreakdown {
    let malicious: Vec<&ResolvedResponse> =
        resolved.iter().filter(|r| r.malware.is_some()).collect();
    let total = malicious.len() as u64;
    let mut counts: BTreeMap<&'static str, (IpClass, u64)> = BTreeMap::new();
    for r in &malicious {
        let class = ip_class(r.record.source_ip);
        counts.entry(class.label()).or_insert((class, 0)).1 += 1;
    }
    let mut rows: Vec<(IpClass, u64)> = counts.into_values().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    let private: u64 = rows
        .iter()
        .filter(|(c, _)| *c != IpClass::Public)
        .map(|(_, n)| n)
        .sum();
    SourceBreakdown {
        rows,
        total,
        private_pct: pct(private, total),
    }
}

pub fn source_table(network: &str, b: &SourceBreakdown) -> Table {
    let mut t = Table::new(
        &format!("T4 — Sources of malicious responses ({network})"),
        &["address class", "malicious responses", "% of malicious"],
    );
    for (class, n) in &b.rows {
        t.row(vec![
            class.label().to_string(),
            fmt_count(*n),
            fmt_pct(pct(*n, b.total)),
        ]);
    }
    t.row(vec![
        "all private ranges".into(),
        String::new(),
        fmt_pct(b.private_pct),
    ]);
    t
}

/// T5 — host concentration: which hosts serve the malicious responses.
#[derive(Debug, Clone)]
pub struct HostShare {
    pub rank: usize,
    pub host: String,
    pub responses: u64,
    pub pct_of_malicious: f64,
    pub families: Vec<String>,
}

pub fn host_concentration(resolved: &[ResolvedResponse]) -> Vec<HostShare> {
    let malicious: Vec<&ResolvedResponse> =
        resolved.iter().filter(|r| r.malware.is_some()).collect();
    let shares = ranked_shares(tally(malicious.iter().map(|r| &*r.record.host)));
    let mut families_by_host: HashMap<&HostKey, HashSet<&str>> = HashMap::new();
    for r in &malicious {
        families_by_host
            .entry(&*r.record.host)
            .or_default()
            .insert(r.malware.as_deref().expect("filtered"));
    }
    shares
        .into_iter()
        .map(|s| {
            let mut families: Vec<String> = families_by_host
                .get(&s.item)
                .map(|f| f.iter().map(|s| s.to_string()).collect())
                .unwrap_or_default();
            families.sort();
            HostShare {
                rank: s.rank,
                host: match s.item {
                    HostKey::Guid(g) => format!("guid:{}", p2pmal_hashes::to_hex(&g[..4])),
                    HostKey::Addr(ip, port) => format!("{ip}:{port}"),
                },
                responses: s.count,
                pct_of_malicious: s.pct,
                families,
            }
        })
        .collect()
}

pub fn host_table(network: &str, hosts: &[HostShare], top: usize) -> Table {
    let mut t = Table::new(
        &format!("T5 — Host concentration of malicious responses ({network})"),
        &[
            "rank",
            "host",
            "malicious responses",
            "% of malicious",
            "families",
        ],
    );
    for h in hosts.iter().take(top) {
        t.row(vec![
            h.rank.to_string(),
            h.host.clone(),
            fmt_count(h.responses),
            fmt_pct(h.pct_of_malicious),
            h.families.join(" "),
        ]);
    }
    t
}

/// F1 — daily time series of the malicious fraction among downloadable
/// responses. Returns `(day, downloadable, malicious, fraction)` rows.
pub fn daily_fraction(resolved: &[ResolvedResponse]) -> Vec<(u64, u64, u64, f64)> {
    let mut per_day: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for r in resolved {
        if !r.record.downloadable || !r.scanned {
            continue;
        }
        let e = per_day.entry(u64::from(r.record.day)).or_insert((0, 0));
        e.0 += 1;
        if r.malware.is_some() {
            e.1 += 1;
        }
    }
    per_day
        .into_iter()
        .map(|(day, (d, m))| (day, d, m, if d == 0 { 0.0 } else { m as f64 / d as f64 }))
        .collect()
}

pub fn daily_table(network: &str, rows: &[(u64, u64, u64, f64)]) -> Table {
    let mut t = Table::new(
        &format!("F1 — Daily malicious fraction ({network})"),
        &["day", "scanned downloadable", "malicious", "fraction"],
    );
    for (day, d, m, f) in rows {
        t.row(vec![
            day.to_string(),
            fmt_count(*d),
            fmt_count(*m),
            format!("{f:.3}"),
        ]);
    }
    t
}

/// F2 — size diversity: distinct advertised sizes per malware family vs per
/// benign (clean) filename stem.
#[derive(Debug, Clone)]
pub struct SizeCensus {
    /// Per malware family: sorted distinct sizes.
    pub malware_sizes: BTreeMap<String, Vec<u64>>,
    /// Distinct-size-count samples for clean downloadable names.
    pub benign_distinct_counts: Vec<u64>,
    /// ECDF over distinct-size counts for malware families.
    pub malware_cdf: Vec<(u64, f64)>,
}

pub fn size_census(resolved: &[ResolvedResponse]) -> SizeCensus {
    let mut malware: BTreeMap<&str, HashSet<u64>> = BTreeMap::new();
    // Benign sizes are gathered under the name as logged and folded
    // case-insensitively afterwards: a study logs millions of responses
    // under a thousand names, and each is lowered once.
    let mut benign_as_logged: HashMap<&str, HashSet<u64>> = HashMap::new();
    for r in resolved {
        if !r.record.downloadable {
            continue;
        }
        match &r.malware {
            Some(fam) => {
                malware
                    .entry(fam.as_str())
                    .or_default()
                    .insert(u64::from(r.record.size));
            }
            None if r.scanned => {
                benign_as_logged
                    .entry(r.record.filename.as_str())
                    .or_default()
                    .insert(u64::from(r.record.size));
            }
            None => {}
        }
    }
    let mut benign: HashMap<String, HashSet<u64>> = HashMap::new();
    for (name, sizes) in benign_as_logged {
        benign
            .entry(name.to_ascii_lowercase())
            .or_default()
            .extend(sizes);
    }
    let malware_sizes: BTreeMap<String, Vec<u64>> = malware
        .iter()
        .map(|(k, v)| {
            let mut sizes: Vec<u64> = v.iter().copied().collect();
            sizes.sort_unstable();
            (k.to_string(), sizes)
        })
        .collect();
    let malware_counts: Vec<u64> = malware.values().map(|v| v.len() as u64).collect();
    SizeCensus {
        malware_sizes,
        benign_distinct_counts: benign.values().map(|v| v.len() as u64).collect(),
        malware_cdf: ecdf(malware_counts),
    }
}

pub fn size_table(network: &str, census: &SizeCensus) -> Table {
    let mut t = Table::new(
        &format!("F2 — Characteristic sizes per malware ({network})"),
        &["malware", "distinct sizes seen", "sizes (bytes)"],
    );
    for (fam, sizes) in &census.malware_sizes {
        t.row(vec![
            fam.clone(),
            sizes.len().to_string(),
            sizes
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(" "),
        ]);
    }
    t
}

/// F4 — query-echo amplification: per-host responses per distinct query
/// answered, split malicious vs clean hosts.
#[derive(Debug, Clone, PartialEq)]
pub struct EchoAmplification {
    /// Mean queries answered per malicious host.
    pub malicious_host_queries: f64,
    /// Mean queries answered per clean host.
    pub clean_host_queries: f64,
    pub malicious_hosts: u64,
    pub clean_hosts: u64,
}

pub fn echo_amplification(resolved: &[ResolvedResponse]) -> EchoAmplification {
    // query coverage per host
    let mut queries: HashMap<&HostKey, HashSet<&str>> = HashMap::new();
    let mut dirty: HashSet<&HostKey> = HashSet::new();
    for r in resolved {
        queries
            .entry(&*r.record.host)
            .or_default()
            .insert(r.record.query.as_str());
        if r.malware.is_some() {
            dirty.insert(&*r.record.host);
        }
    }
    let (mut mq, mut mh, mut cq, mut ch) = (0u64, 0u64, 0u64, 0u64);
    for (host, qs) in &queries {
        if dirty.contains(host) {
            mq += qs.len() as u64;
            mh += 1;
        } else {
            cq += qs.len() as u64;
            ch += 1;
        }
    }
    EchoAmplification {
        malicious_host_queries: if mh == 0 { 0.0 } else { mq as f64 / mh as f64 },
        clean_host_queries: if ch == 0 { 0.0 } else { cq as f64 / ch as f64 },
        malicious_hosts: mh,
        clean_hosts: ch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmal_crawler::log::ResponseRecord;
    use p2pmal_netsim::SimTime;
    use std::net::Ipv4Addr;

    #[allow(clippy::too_many_arguments)]
    fn resp(
        day: u32,
        query: &str,
        name: &str,
        size: u32,
        ip: [u8; 4],
        host: u8,
        malware: Option<&str>,
        scanned: bool,
    ) -> ResolvedResponse {
        ResolvedResponse {
            record: ResponseRecord {
                at: SimTime::from_days(day.into()),
                day,
                query: query.into(),
                filename: name.into(),
                size,
                source_ip: Ipv4Addr::new(ip[0], ip[1], ip[2], ip[3]),
                source_port: 6346,
                needs_push: false,
                host: HostKey::Guid([host; 16]).into(),
                downloadable: p2pmal_crawler::is_downloadable_name(name),
            },
            malware: malware.map(Into::into),
            scanned,
            sha1: scanned.then(|| p2pmal_hashes::sha1(name.as_bytes())),
        }
    }

    fn sample() -> Vec<ResolvedResponse> {
        vec![
            resp(0, "a", "w1.exe", 100, [10, 0, 0, 1], 1, Some("W32.A"), true),
            resp(0, "b", "w2.exe", 100, [10, 0, 0, 1], 1, Some("W32.A"), true),
            resp(0, "a", "w3.exe", 200, [8, 8, 8, 8], 2, Some("W32.B"), true),
            resp(1, "c", "tool.exe", 300, [9, 9, 9, 9], 3, None, true),
            resp(1, "c", "song.mp3", 400, [9, 9, 9, 9], 3, None, false),
            resp(1, "d", "dead.exe", 500, [7, 7, 7, 7], 4, None, false),
        ]
    }

    #[test]
    fn summary_counts() {
        let resolved = sample();
        let mut log = CrawlLog::new();
        log.queries_issued = 4;
        let s = summarize("LimeWire", &log, &resolved);
        assert_eq!(s.responses, 6);
        assert_eq!(s.downloadable, 5, "mp3 excluded");
        assert_eq!(s.scanned, 4, "dead.exe never scanned");
        assert_eq!(s.malicious, 3);
        assert!((s.malicious_pct - 75.0).abs() < 1e-9);
        assert_eq!(s.distinct_hosts, 4);
        assert_eq!(s.distinct_malware, 2);
    }

    /// The two-pass summary `summarize` replaced: the downloadable rows
    /// collected first, then counted.
    fn summarize_reference(log: &CrawlLog, resolved: &[ResolvedResponse]) -> Summary {
        let downloadable: Vec<&ResolvedResponse> =
            resolved.iter().filter(|r| r.record.downloadable).collect();
        let scanned = downloadable.iter().filter(|r| r.scanned).count() as u64;
        let malicious = downloadable.iter().filter(|r| r.malware.is_some()).count() as u64;
        let hosts: HashSet<&HostKey> = resolved.iter().map(|r| &*r.record.host).collect();
        let malware: HashSet<&str> = resolved
            .iter()
            .filter_map(|r| r.malware.as_deref())
            .collect();
        Summary {
            network: "X".to_string(),
            queries: log.queries_issued,
            responses: resolved.len() as u64,
            downloadable: downloadable.len() as u64,
            scanned,
            malicious,
            malicious_pct: pct(malicious, scanned),
            distinct_hosts: hosts.len() as u64,
            distinct_malware: malware.len() as u64,
        }
    }

    #[test]
    fn one_pass_summary_matches_the_reference() {
        let mut log = CrawlLog::new();
        log.queries_issued = 9;
        // Every (downloadable, scanned, malicious) combination a joined row
        // can have (malware implies scanned), a name the host+size key
        // resolved to malware included ("notes.txt").
        let mut mixed = sample();
        for (i, (name, malware, scanned)) in [
            ("notes.txt", Some("W32.A"), true),
            ("song.mp3", None, true),
            ("clip.avi", None, false),
            ("pack.zip", Some("W32.C"), true),
            ("pack.zip", None, true),
            ("gone.scr", None, false),
        ]
        .into_iter()
        .enumerate()
        {
            let host = 10 + (i % 3) as u8;
            mixed.push(resp(
                2,
                "m",
                name,
                600,
                [1, 2, 3, 4],
                host,
                malware,
                scanned,
            ));
        }
        for resolved in [Vec::new(), sample(), mixed] {
            assert_eq!(
                summarize("X", &log, &resolved),
                summarize_reference(&log, &resolved)
            );
        }
    }

    #[test]
    fn top_malware_ranking() {
        let shares = top_malware(&sample());
        assert_eq!(shares[0].item, "W32.A");
        assert_eq!(shares[0].count, 2);
        assert!((shares[0].pct - 66.666).abs() < 0.01);
        assert!((shares[1].cumulative_pct - 100.0).abs() < 1e-9);
    }

    #[test]
    fn source_breakdown_private_share() {
        let b = source_breakdown(&sample());
        assert_eq!(b.total, 3);
        // Two of three malicious responses advertise 10/8.
        assert!((b.private_pct - 66.666).abs() < 0.01);
        assert_eq!(b.rows[0].0, IpClass::Private10);
    }

    #[test]
    fn host_concentration_ranks_hosts() {
        let hosts = host_concentration(&sample());
        assert_eq!(hosts[0].responses, 2);
        assert!((hosts[0].pct_of_malicious - 66.666).abs() < 0.01);
        assert_eq!(hosts[0].families, vec!["W32.A".to_string()]);
    }

    #[test]
    fn daily_fraction_buckets() {
        let rows = daily_fraction(&sample());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], (0, 3, 3, 1.0));
        let (day, d, m, f) = rows[1];
        assert_eq!((day, d, m), (1, 1, 0));
        assert_eq!(f, 0.0);
    }

    #[test]
    fn size_census_separates_malware_and_benign() {
        let c = size_census(&sample());
        assert_eq!(c.malware_sizes["W32.A"], vec![100]);
        assert_eq!(c.malware_sizes["W32.B"], vec![200]);
        assert_eq!(c.benign_distinct_counts, vec![1]);
        assert_eq!(c.malware_cdf.last().unwrap().1, 1.0);
    }

    /// Benign names that differ only in case are one file: their sizes
    /// fold into one set, duplicates within and across spellings once.
    #[test]
    fn size_census_folds_benign_names_case_insensitively() {
        let mut resolved = sample();
        for (name, size) in [
            ("Setup.EXE", 10),
            ("setup.exe", 10),
            ("setup.exe", 20),
            ("setup.exe", 20),
            ("SETUP.exe", 30),
            ("TOOL.EXE", 300),
        ] {
            resolved.push(resp(2, "e", name, size, [9, 9, 9, 9], 5, None, true));
        }
        let mut counts = size_census(&resolved).benign_distinct_counts;
        counts.sort_unstable();
        assert_eq!(counts, [1, 3], "tool.exe one size, setup.exe three");
    }

    #[test]
    fn echo_amplification_splits_hosts() {
        let a = echo_amplification(&sample());
        assert_eq!(a.malicious_hosts, 2);
        assert_eq!(a.clean_hosts, 2);
        // Dirty: host 1 answered 2 distinct queries, host 2 answered 1.
        assert!((a.malicious_host_queries - 1.5).abs() < 1e-9);
        // Clean: hosts 3 and 4 each answered a single distinct query.
        assert!((a.clean_host_queries - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tables_render() {
        let resolved = sample();
        let log = CrawlLog::new();
        let s = summarize("X", &log, &resolved);
        assert!(summary_table(&[s]).to_markdown().contains("T1"));
        let tm = top_malware(&resolved);
        assert!(top_malware_table("T2", &tm, 10)
            .to_markdown()
            .contains("W32.A"));
        let sb = source_breakdown(&resolved);
        assert!(source_table("X", &sb).to_markdown().contains("10.0.0.0/8"));
        let hc = host_concentration(&resolved);
        assert!(host_table("X", &hc, 5).to_markdown().contains("guid:"));
        let dt = daily_table("X", &daily_fraction(&resolved));
        assert!(dt.to_markdown().contains("F1"));
        let st = size_table("X", &size_census(&resolved));
        assert!(st.to_markdown().contains("W32.B"));
    }
}
