//! Filter evaluation: confusion matrices over ground-truth-labelled
//! responses.
//!
//! The evaluation universe is the paper's: downloadable responses whose
//! content received a scan verdict (so ground truth is known). Detection
//! rate is TP / (TP + FN) over malware-containing responses; the
//! false-positive rate is FP / (FP + TN) over clean ones.

use crate::ResponseFilter;
use p2pmal_crawler::ResolvedResponse;

/// A filter's confusion matrix and derived rates.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterEval {
    pub name: String,
    /// Malicious responses blocked.
    pub tp: u64,
    /// Malicious responses passed.
    pub fn_: u64,
    /// Clean responses blocked.
    pub fp: u64,
    /// Clean responses passed.
    pub tn: u64,
}

impl FilterEval {
    /// TP / (TP + FN): fraction of malware-containing responses detected.
    pub fn detection_rate(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }

    /// FP / (FP + TN): fraction of clean responses wrongly blocked.
    pub fn false_positive_rate(&self) -> f64 {
        ratio(self.fp, self.fp + self.tn)
    }

    /// TP / (TP + FP).
    pub fn precision(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp)
    }

    /// Detection rate as a percentage.
    pub fn detection_pct(&self) -> f64 {
        100.0 * self.detection_rate()
    }

    /// FP rate as a percentage.
    pub fn false_positive_pct(&self) -> f64 {
        100.0 * self.false_positive_rate()
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Evaluates one filter over the scanned downloadable responses.
pub fn evaluate(filter: &dyn ResponseFilter, responses: &[ResolvedResponse]) -> FilterEval {
    let mut ev = FilterEval {
        name: filter.name().to_string(),
        tp: 0,
        fn_: 0,
        fp: 0,
        tn: 0,
    };
    for r in responses {
        if !r.record.downloadable || !r.scanned {
            continue;
        }
        let blocked = filter.blocks(r);
        match (r.malware.is_some(), blocked) {
            (true, true) => ev.tp += 1,
            (true, false) => ev.fn_ += 1,
            (false, true) => ev.fp += 1,
            (false, false) => ev.tn += 1,
        }
    }
    ev
}

/// Evaluates a panel of filters over the same responses.
pub fn evaluate_all(
    filters: &[&dyn ResponseFilter],
    responses: &[ResolvedResponse],
) -> Vec<FilterEval> {
    filters.iter().map(|f| evaluate(*f, responses)).collect()
}

/// Shared constructors for filter tests.
#[cfg(test)]
pub mod test_support {
    use p2pmal_crawler::log::{HostKey, ResponseRecord};
    use p2pmal_crawler::ResolvedResponse;
    use p2pmal_hashes::Sha1Digest;
    use p2pmal_netsim::SimTime;
    use std::net::Ipv4Addr;

    pub fn resp(query: &str, name: &str, size: u32, malware: Option<&str>) -> ResolvedResponse {
        resp_with_sha1(
            query,
            name,
            size,
            malware,
            Some(p2pmal_hashes::sha1(name.as_bytes())),
        )
    }

    pub fn resp_with_sha1(
        query: &str,
        name: &str,
        size: u32,
        malware: Option<&str>,
        sha1: Option<Sha1Digest>,
    ) -> ResolvedResponse {
        ResolvedResponse {
            record: ResponseRecord {
                at: SimTime::ZERO,
                day: 0,
                query: query.into(),
                filename: name.into(),
                size,
                source_ip: Ipv4Addr::new(9, 9, 9, 9),
                source_port: 6346,
                needs_push: false,
                host: HostKey::Guid([1; 16]).into(),
                downloadable: p2pmal_crawler::is_downloadable_name(name),
            },
            malware: malware.map(Into::into),
            scanned: sha1.is_some(),
            sha1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;
    use crate::SizeFilter;

    fn universe() -> Vec<ResolvedResponse> {
        vec![
            resp("a", "worm_one.exe", 100, Some("W32.A")),
            resp("b", "worm_two.exe", 100, Some("W32.A")),
            resp("c", "other.exe", 200, Some("W32.B")),
            resp("d", "clean.exe", 300, None),
            resp("e", "collide.exe", 100, None), // benign at a blocked size
            resp("f", "song.mp3", 100, Some("W32.A")), // outside the universe
            resp_with_sha1("g", "never_fetched.exe", 100, None, None), // unscanned
        ]
    }

    #[test]
    fn confusion_matrix_counts() {
        let f = SizeFilter::from_sizes([100]);
        let ev = evaluate(&f, &universe());
        assert_eq!((ev.tp, ev.fn_, ev.fp, ev.tn), (2, 1, 1, 1));
        assert!((ev.detection_rate() - 2.0 / 3.0).abs() < 1e-9);
        assert!((ev.false_positive_rate() - 0.5).abs() < 1e-9);
        assert!((ev.precision() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_universe_yields_zero_rates() {
        let f = SizeFilter::from_sizes([1]);
        let ev = evaluate(&f, &[]);
        assert_eq!(ev.detection_rate(), 0.0);
        assert_eq!(ev.false_positive_rate(), 0.0);
    }

    #[test]
    fn evaluate_all_runs_each_filter() {
        let a = SizeFilter::from_sizes([100]);
        let b = SizeFilter::from_sizes([200]);
        let evs = evaluate_all(&[&a, &b], &universe());
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].tp, 2);
        assert_eq!(evs[1].tp, 1);
    }
}
