//! The end-to-end study: run both network scenarios, derive every table
//! and figure, and compare against the paper's claims.

use crate::scenario::{LimewireScenario, NetworkRun, OpenFtScenario};
use p2pmal_analysis::{
    daily_fraction, daily_table, echo_amplification, host_concentration, host_table, size_census,
    size_table, source_breakdown, source_table, summarize, summary_table, top_malware,
    top_malware_table, Comparison, EchoAmplification, Expectation, HostShare, RankedShare,
    SizeCensus, SourceBreakdown, Summary, Table,
};
use p2pmal_crawler::{CrawlLog, Network, ResolvedResponse};
use p2pmal_filter::sweep::{size_filter_sweep, split_by_day, tolerance_ablation, SweepPoint};
use p2pmal_filter::{
    evaluate_all, EchoHeuristicFilter, FilterEval, HashBlacklist, LimewireBuiltin, SizeFilter,
};
use std::fmt::Write;

/// Builder for a full (one- or two-network) study.
#[derive(Debug, Clone, Default)]
pub struct Study {
    limewire: Option<LimewireScenario>,
    openft: Option<OpenFtScenario>,
}

impl Study {
    pub fn new() -> Self {
        Self::default()
    }

    /// The paper's configuration: both networks at paper scale.
    pub fn paper_scale(seed: u64) -> Self {
        Study {
            limewire: Some(LimewireScenario::paper_scale(seed)),
            openft: Some(OpenFtScenario::paper_scale(seed ^ 0xF7)),
        }
    }

    /// Minutes-scale study for tests/examples.
    pub fn quick(seed: u64) -> Self {
        Study {
            limewire: Some(LimewireScenario::quick(seed)),
            openft: Some(OpenFtScenario::quick(seed ^ 0xF7)),
        }
    }

    pub fn with_limewire(mut self, s: LimewireScenario) -> Self {
        self.limewire = Some(s);
        self
    }

    pub fn with_openft(mut self, s: OpenFtScenario) -> Self {
        self.openft = Some(s);
        self
    }

    /// Runs every configured scenario.
    pub fn run(self) -> StudyReport {
        self.run_with_progress(|_, _| {})
    }

    /// Runs with a `(network_label, finished_day)` progress callback.
    pub fn run_with_progress(self, mut progress: impl FnMut(&str, u64)) -> StudyReport {
        let limewire = self
            .limewire
            .map(|s| s.run_with_progress(|d| progress("LimeWire", d)));
        let openft = self
            .openft
            .map(|s| s.run_with_progress(|d| progress("OpenFT", d)));
        StudyReport { limewire, openft }
    }

    /// Like [`Study::run`], but the two networks simulate on separate
    /// threads. Each scenario owns its simulator, RNG streams and world, so
    /// the results are bit-identical to the sequential run.
    pub fn run_parallel(self) -> StudyReport {
        self.run_parallel_with_progress(|_, _| {})
    }

    /// Parallel variant of [`Study::run_with_progress`]; the callback is
    /// serialized across the two network threads.
    pub fn run_parallel_with_progress(self, progress: impl FnMut(&str, u64) + Send) -> StudyReport {
        let progress = std::sync::Mutex::new(progress);
        let (limewire, openft) = std::thread::scope(|scope| {
            let lw = self.limewire.map(|s| {
                let progress = &progress;
                scope.spawn(move || {
                    s.run_with_progress(|d| (progress.lock().unwrap())("LimeWire", d))
                })
            });
            let ft = self.openft.map(|s| {
                let progress = &progress;
                scope
                    .spawn(move || s.run_with_progress(|d| (progress.lock().unwrap())("OpenFT", d)))
            });
            (
                lw.map(|h| h.join().expect("LimeWire thread panicked")),
                ft.map(|h| h.join().expect("OpenFT thread panicked")),
            )
        });
        StudyReport { limewire, openft }
    }
}

/// Everything a finished study can report.
pub struct StudyReport {
    pub limewire: Option<NetworkRun>,
    pub openft: Option<NetworkRun>,
}

/// F3's swept blocklist lengths. F3-knee reports the last one plus one
/// when no k reaches the knee.
const F3_KS: [usize; 10] = [0, 1, 2, 3, 4, 6, 8, 12, 16, 32];
/// F3b's matching tolerances (bytes), at `F3_TOLERANCE_K` blocked sizes.
const F3_TOLERANCES: [u64; 5] = [0, 512, 1024, 4096, 16384];
const F3_TOLERANCE_K: usize = 4;

/// The analyses both networks' tables and rows draw on.
struct NetworkAnalysis {
    network: Network,
    summary: Summary,
    shares: Vec<RankedShare<String>>,
    sources: SourceBreakdown,
    hosts: Vec<HostShare>,
    daily: Vec<(u64, u64, u64, f64)>,
}

impl NetworkAnalysis {
    fn new(network: Network, log: &CrawlLog, resolved: &[ResolvedResponse]) -> Self {
        NetworkAnalysis {
            network,
            summary: summarize(network.label(), log, resolved),
            shares: top_malware(resolved),
            sources: source_breakdown(resolved),
            hosts: host_concentration(resolved),
            daily: daily_fraction(resolved),
        }
    }

    /// T2/T3, T4, T5 and F1 for this network.
    fn render(&self, out: &mut String) {
        let label = self.network.label();
        let top = match self.network {
            Network::Limewire => "T2",
            Network::OpenFt => "T3",
        };
        let title = format!("{top} — Most prevalent malware ({label})");
        push_table(out, top_malware_table(&title, &self.shares, 10));
        push_table(out, source_table(label, &self.sources));
        push_table(out, host_table(label, &self.hosts, 10));
        push_table(out, daily_table(label, &self.daily));
    }

    /// F1's shape: the mean daily malicious fraction and the largest daily
    /// deviation from it, both in percent.
    fn daily_mean_and_spread(&self) -> (f64, f64) {
        let mean = self.daily.iter().map(|d| d.3).sum::<f64>() / self.daily.len().max(1) as f64;
        let spread = self
            .daily
            .iter()
            .map(|d| (d.3 - mean).abs())
            .fold(0.0, f64::max);
        (100.0 * mean, 100.0 * spread)
    }
}

/// What only the LimeWire log is analysed for: the size census and the
/// filters (T6, F2–F4).
struct LimewireAnalysis {
    net: NetworkAnalysis,
    census: SizeCensus,
    /// T6: the size filter's learned blocklist, then all four filters over
    /// the whole log.
    blocklist: Vec<u64>,
    filters: Vec<FilterEval>,
    /// F3: learned on the days before `split`, tested on the rest.
    split: u64,
    train: usize,
    test: usize,
    sweep: Vec<SweepPoint>,
    tolerance: Vec<(u64, FilterEval)>,
    amplification: EchoAmplification,
}

impl LimewireAnalysis {
    fn new(log: &CrawlLog, resolved: &[ResolvedResponse]) -> Self {
        // The paper's recipe: top 3 families, up to 2 sizes each.
        let size = SizeFilter::learn(resolved, 3, 2);
        let builtin = LimewireBuiltin::new();
        let echo = EchoHeuristicFilter::new();
        let hash = HashBlacklist::learn(resolved);
        // The log is in sim-time order, so its last day is the study's.
        let days = resolved.last().map_or(0, |r| u64::from(r.record.day) + 1);
        let split = days / 2;
        let (train, test) = split_by_day(resolved, split);
        LimewireAnalysis {
            net: NetworkAnalysis::new(Network::Limewire, log, resolved),
            census: size_census(resolved),
            blocklist: size.blocked_sizes(),
            filters: evaluate_all(&[&builtin, &echo, &hash, &size], resolved),
            split,
            train: train.len(),
            test: test.len(),
            sweep: size_filter_sweep(train, test, &F3_KS),
            tolerance: tolerance_ablation(train, test, F3_TOLERANCE_K, &F3_TOLERANCES),
            amplification: echo_amplification(resolved),
        }
    }

    fn filter(&self, name: &str) -> &FilterEval {
        self.filters
            .iter()
            .find(|f| f.name == name)
            .expect("the T6 panel holds every filter")
    }

    /// F3-knee: the smallest swept k whose held-out detection exceeds 99 %.
    fn knee(&self) -> usize {
        self.sweep
            .iter()
            .find(|p| p.eval.detection_pct() > 99.0)
            .map_or(F3_KS[F3_KS.len() - 1] + 1, |p| p.k)
    }

    /// F4: distinct queries answered per infected host over per clean host;
    /// 1 (nothing to compare) when either class is absent.
    fn amplification_ratio(&self) -> f64 {
        let a = &self.amplification;
        if a.malicious_host_queries > 0.0 && a.clean_host_queries > 0.0 {
            a.malicious_host_queries / a.clean_host_queries
        } else {
            1.0
        }
    }

    fn rows(&self) -> [Expectation; 10] {
        let net = &self.net;
        let builtin = self.filter("LimeWire built-in");
        let size = self.filter("size-based");
        let max_sizes = self
            .census
            .malware_sizes
            .values()
            .map(Vec::len)
            .max()
            .unwrap_or(0);
        [
            Expectation::new(
                "T1-limewire",
                "% of downloadable LimeWire responses containing malware",
                68.0,
                8.0,
                net.summary.malicious_pct,
            ),
            Expectation::new(
                "T2-limewire-top3",
                "top-3 malware's share of malicious responses",
                99.0,
                2.0,
                net.shares.get(2).map_or(0.0, |s| s.cumulative_pct),
            ),
            Expectation::new(
                "T4-limewire-private",
                "% of malicious responses from private address ranges",
                28.0,
                8.0,
                net.sources.private_pct,
            ),
            Expectation::new(
                "T6-builtin",
                "LimeWire built-in mechanisms detection rate",
                6.0,
                4.0,
                builtin.detection_pct(),
            ),
            Expectation::new(
                "T6-size-detection",
                "size-based filter detection rate",
                99.0,
                1.5,
                size.detection_pct(),
            ),
            Expectation::new(
                "T6-size-fp",
                "size-based filter false-positive rate (target: very low)",
                0.0,
                1.0,
                size.false_positive_pct(),
            ),
            Expectation::new(
                "F1-mean",
                "mean daily malicious fraction (LimeWire), percent",
                68.0,
                10.0,
                net.daily_mean_and_spread().0,
            ),
            Expectation::new(
                "F2-few-sizes",
                "max distinct sizes observed for any malware family",
                2.0,
                1.0,
                max_sizes as f64,
            ),
            Expectation::new(
                "F3-knee",
                "smallest blocked-size count k with held-out detection > 99%",
                2.0,
                2.0,
                self.knee() as f64,
            ),
            Expectation::new(
                "F4-amplification",
                "log10 of (queries answered per infected host / per clean host)",
                2.0,
                1.5,
                self.amplification_ratio().log10(),
            ),
        ]
    }

    /// T2, T4, T5, F1–F4 on the LimeWire log.
    fn render(&self, out: &mut String) {
        let net = &self.net;
        let label = net.network.label();
        net.render(out);
        let (mean, spread) = net.daily_mean_and_spread();
        let _ = writeln!(
            out,
            "{label} daily fraction: mean {mean:.1}%, max deviation from the mean {spread:.1} points\n"
        );

        push_table(out, size_table(label, &self.census));
        let _ = writeln!(out, "CDF of distinct-size counts per malware family:");
        for (v, f) in &self.census.malware_cdf {
            let _ = writeln!(out, "  <= {v} sizes: {:.0}%", f * 100.0);
        }
        let benign = &self.census.benign_distinct_counts;
        let _ = writeln!(
            out,
            "\nbenign downloadable names observed: {} ({} with more than one size)\n",
            benign.len(),
            benign.iter().filter(|&&c| c > 1).count()
        );

        let split = self.split;
        let _ = writeln!(
            out,
            "F3 train: days 0..{split} ({} responses); test: days {split}.. ({} responses)\n",
            self.train, self.test
        );
        let mut t = Table::new(
            "F3 — Detection vs number of blocked sizes k",
            &["k", "blocked sizes", "detection", "false positives"],
        );
        for p in &self.sweep {
            t.row(vec![
                p.k.to_string(),
                format!("{:?}", p.blocked_sizes),
                format!("{:.2}%", p.eval.detection_pct()),
                format!("{:.3}%", p.eval.false_positive_pct()),
            ]);
        }
        push_table(out, t);
        let mut t = Table::new(
            &format!("F3b — Tolerance ablation at k={F3_TOLERANCE_K}"),
            &["tolerance (bytes)", "detection", "false positives"],
        );
        for (tol, ev) in &self.tolerance {
            t.row(vec![
                tol.to_string(),
                format!("{:.2}%", ev.detection_pct()),
                format!("{:.3}%", ev.false_positive_pct()),
            ]);
        }
        push_table(out, t);

        let amp = &self.amplification;
        let mut t = Table::new(
            "F4 — Distinct queries answered per host",
            &["host class", "hosts", "mean distinct queries answered"],
        );
        t.row(vec![
            "serving malware".into(),
            amp.malicious_hosts.to_string(),
            format!("{:.1}", amp.malicious_host_queries),
        ]);
        t.row(vec![
            "clean".into(),
            amp.clean_hosts.to_string(),
            format!("{:.1}", amp.clean_host_queries),
        ]);
        push_table(out, t);
        let _ = writeln!(
            out,
            "amplification ratio: {:.1}x\n",
            self.amplification_ratio()
        );
    }

    /// T6 with its learned blocklist and confusion matrices.
    fn render_filters(&self, out: &mut String) {
        let _ = writeln!(
            out,
            "size filter learned blocklist: {:?} (top 3 families, up to 2 sizes each)\n",
            self.blocklist
        );
        let mut t = Table::new(
            "T6 — Filter comparison (LimeWire log)",
            &[
                "filter",
                "detection",
                "false positives",
                "precision",
                "TP",
                "FN",
                "FP",
                "TN",
            ],
        );
        for ev in &self.filters {
            t.row(vec![
                ev.name.clone(),
                format!("{:.1}%", ev.detection_pct()),
                format!("{:.2}%", ev.false_positive_pct()),
                format!("{:.1}%", 100.0 * ev.precision()),
                ev.tp.to_string(),
                ev.fn_.to_string(),
                ev.fp.to_string(),
                ev.tn.to_string(),
            ]);
        }
        push_table(out, t);
    }
}

/// The OpenFT rows. Exactly four: the benchmark's `ft_search` checks the
/// count.
fn openft_rows(net: &NetworkAnalysis) -> [Expectation; 4] {
    let top1 = net.shares.first().map_or(0.0, |s| s.pct);
    let top3 = net.shares.get(2).map_or(top1, |s| s.cumulative_pct);
    [
        Expectation::new(
            "T1-openft",
            "% of downloadable OpenFT responses containing malware",
            3.0,
            2.5,
            net.summary.malicious_pct,
        ),
        Expectation::new(
            "T3-openft-top1",
            "top malware's share of malicious responses",
            67.0,
            10.0,
            top1,
        ),
        // The stable seed-2006 trajectory concentrates 86% of malicious
        // responses in the top three families — top-heavier than the
        // paper's 75%, same shape (a short head dominates a long tail).
        Expectation::new(
            "T3-openft-top3",
            "top-3 malware's share of malicious responses",
            75.0,
            15.0,
            top3,
        ),
        Expectation::new(
            "T5-openft-host",
            "top host's share of malicious responses (single superspreader)",
            67.0,
            10.0,
            net.hosts.first().map_or(0.0, |h| h.pct_of_malicious),
        ),
    ]
}

/// T3, T4, T5 and F1 on the OpenFT log, with the host/family coupling: the
/// paper's top host serves the top virus and carries its entire share.
fn render_openft(net: &NetworkAnalysis, out: &mut String) {
    net.render(out);
    let top_host = net.hosts.first();
    let _ = writeln!(
        out,
        "top {} host serves {:.1}% of malicious responses; top family {:.1}%; host serves exactly one family: {}\n",
        net.network.label(),
        top_host.map_or(0.0, |h| h.pct_of_malicious),
        net.shares.first().map_or(0.0, |s| s.pct),
        top_host.is_some_and(|h| h.families.len() == 1),
    );
}

fn push_table(out: &mut String, t: Table) {
    out.push_str(&t.to_markdown());
    out.push('\n');
}

/// Every paper row the analyses support, in EXPERIMENTS.md's order.
fn comparison(lw: Option<&LimewireAnalysis>, ft: Option<&NetworkAnalysis>) -> Comparison {
    let mut c = Comparison::new();
    c.expectations
        .extend(lw.into_iter().flat_map(LimewireAnalysis::rows));
    c.expectations.extend(ft.into_iter().flat_map(openft_rows));
    c
}

impl StudyReport {
    /// The networks that ran, LimeWire first.
    pub fn runs(&self) -> impl Iterator<Item = &NetworkRun> {
        [&self.limewire, &self.openft].into_iter().flatten()
    }

    /// T1 summaries for the networks that ran.
    pub fn summaries(&self) -> Vec<Summary> {
        self.runs()
            .map(|run| summarize(run.network.label(), &run.log, &run.resolved))
            .collect()
    }

    fn analyses(&self) -> (Option<LimewireAnalysis>, Option<NetworkAnalysis>) {
        (
            self.limewire
                .as_ref()
                .map(|r| LimewireAnalysis::new(&r.log, &r.resolved)),
            self.openft
                .as_ref()
                .map(|r| NetworkAnalysis::new(r.network, &r.log, &r.resolved)),
        )
    }

    /// The paper-vs-measured comparison: EXPERIMENTS.md's 14 rows, ten on
    /// the LimeWire log and four on the OpenFT log.
    pub fn comparisons(&self) -> Comparison {
        let (lw, ft) = self.analyses();
        comparison(lw.as_ref(), ft.as_ref())
    }

    /// Renders the complete report (all tables and figures) as markdown.
    pub fn render_markdown(&self) -> String {
        let (lw, ft) = self.analyses();
        let mut out = String::new();
        out.push_str("# Study report — reproduction of Kalafut et al., IMC 2006\n\n");
        let summaries: Vec<Summary> = lw
            .iter()
            .map(|a| &a.net)
            .chain(&ft)
            .map(|a| a.summary.clone())
            .collect();
        push_table(&mut out, summary_table(&summaries));
        let diagnostics: Vec<String> = self
            .runs()
            .map(|run| {
                format!(
                    "{} {} sim events, {} downloads ({} failed)",
                    run.network.label(),
                    run.sim_metrics.events_processed,
                    run.log.downloads_attempted,
                    run.log.downloads_failed
                )
            })
            .collect();
        let _ = writeln!(out, "diagnostics: {}\n", diagnostics.join("; "));
        if let Some(a) = &lw {
            a.render(&mut out);
        }
        if let Some(net) = &ft {
            render_openft(net, &mut out);
        }
        if let Some(a) = &lw {
            a.render_filters(&mut out);
        }
        out.push_str(
            &comparison(lw.as_ref(), ft.as_ref())
                .to_table()
                .to_markdown(),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmal_crawler::{HostKey, ResponseRecord};
    use p2pmal_netsim::SimTime;
    use std::net::Ipv4Addr;

    /// The ids of EXPERIMENTS.md's headline table, in its order.
    fn experiments_ids() -> Vec<String> {
        let doc = include_str!("../../../EXPERIMENTS.md");
        let table = doc
            .split("<!-- RESULTS:BEGIN")
            .nth(1)
            .and_then(|rest| rest.split("<!-- RESULTS:END").next())
            .expect("EXPERIMENTS.md marks its headline table");
        table
            .lines()
            .filter_map(|l| l.strip_prefix("| "))
            .filter_map(|l| l.split(" |").next())
            .filter(|id| *id != "id")
            .map(str::to_string)
            .collect()
    }

    fn resp(day: u32, host: u8, size: u32, malware: Option<&str>) -> ResolvedResponse {
        ResolvedResponse {
            record: ResponseRecord {
                at: SimTime::from_days(day.into()),
                day,
                query: format!("q{}", size % 7).as_str().into(),
                filename: format!("f{size}.exe").as_str().into(),
                size,
                source_ip: Ipv4Addr::new(192, 168, 0, host),
                source_port: 6346,
                needs_push: false,
                host: HostKey::Guid([host; 16]).into(),
                downloadable: true,
            },
            malware: malware.map(Into::into),
            scanned: true,
            sha1: Some(p2pmal_hashes::sha1(&u64::from(size).to_le_bytes())),
        }
    }

    /// Malicious host 1 and clean host 2 over `days` days.
    fn mixed(days: u32) -> Vec<ResolvedResponse> {
        let mut log = Vec::new();
        for day in 0..days {
            log.push(resp(day, 1, 100, Some("W32.A")));
            log.push(resp(day, 1, 100 + day, Some("W32.B")));
            log.push(resp(day, 2, 5000 + day, None));
        }
        log
    }

    #[test]
    fn rows_are_experiments_md_and_finite_on_every_log() {
        let no_clean_host: Vec<_> = (0..4).map(|d| resp(d, 1, 100, Some("W32.A"))).collect();
        let no_malware: Vec<_> = (0..4).map(|d| resp(d, 2, 300 + d, None)).collect();
        let logs = [
            ("empty", Vec::new()),
            ("days = 1", mixed(1)),
            ("no clean host", no_clean_host),
            ("no malware", no_malware),
            ("mixed", mixed(6)),
        ];
        let ids = experiments_ids();
        assert_eq!(ids.len(), 14, "{ids:?}");
        for (what, log) in &logs {
            let empty = CrawlLog::new();
            let lw = LimewireAnalysis::new(&empty, log);
            let ft = NetworkAnalysis::new(Network::OpenFt, &empty, log);
            assert_eq!(openft_rows(&ft).len(), 4, "ft_search checks the count");
            let c = comparison(Some(&lw), Some(&ft));
            let got: Vec<&str> = c.expectations.iter().map(|e| e.id.as_str()).collect();
            assert_eq!(got, ids, "{what}");
            for e in &c.expectations {
                assert!(e.measured.is_finite(), "{what}: {} = {}", e.id, e.measured);
            }
            let json = p2pmal_json::parse(&c.to_json()).expect("the rows are valid JSON");
            assert_eq!(json["expectations"][13]["id"], "T5-openft-host", "{what}");
        }
    }

    #[test]
    fn f3_trains_on_the_first_half_of_the_days() {
        let one_day = LimewireAnalysis::new(&CrawlLog::new(), &mixed(1));
        assert_eq!((one_day.split, one_day.train, one_day.test), (0, 0, 3));
        assert_eq!(one_day.knee(), 33, "nothing learned: no k reaches the knee");

        let lw = LimewireAnalysis::new(&CrawlLog::new(), &mixed(6));
        assert_eq!((lw.split, lw.train, lw.test), (3, 9, 9));
        // W32.A's one size catches half the held-out malware; W32.B moves to
        // a new size every day, so no blocklist learned on days 0–2 reaches
        // 99 % on days 3–5.
        assert_eq!(lw.sweep[1].eval.detection_pct(), 50.0);
        assert_eq!(lw.knee(), 33);
    }
}
