//! Additional comparison filters bracketing the size-based design.

use crate::ResponseFilter;
use p2pmal_corpus::QueryCache;
use p2pmal_crawler::ResolvedResponse;
use p2pmal_hashes::Sha1Digest;
use std::collections::HashSet;
use std::sync::Arc;

/// A smarter filename heuristic than LimeWire's: blocks any downloadable
/// response whose name stem equals the query terms joined by *any* single
/// separator (space, underscore, dash). Catches underscore echo worms but
/// starts colliding with honest exact-title matches — the FP trade-off the
/// size filter avoids.
#[derive(Debug, Clone, Default)]
pub struct EchoHeuristicFilter {
    /// Crawl logs repeat the same query text across thousands of
    /// responses; each distinct text is tokenized once.
    queries: Arc<QueryCache>,
}

impl EchoHeuristicFilter {
    pub fn new() -> Self {
        Self::default()
    }
}

impl ResponseFilter for EchoHeuristicFilter {
    fn name(&self) -> &str {
        "echo heuristic"
    }

    fn blocks(&self, r: &ResolvedResponse) -> bool {
        if !r.record.downloadable {
            return false;
        }
        let stem = match r.record.filename.rsplit_once('.') {
            Some((stem, _)) => stem,
            None => return false,
        };
        let q = self.queries.compile(&r.record.query);
        if q.is_empty() {
            return false;
        }
        // The stem's `query_terms`, compared term by term in place: terms
        // are ASCII alphanumeric, and the query's are lowered already.
        let mut words = stem
            .split(|c: char| !c.is_ascii_alphanumeric())
            .filter(|w| !w.is_empty());
        q.terms()
            .iter()
            .all(|t| words.next().is_some_and(|w| w.eq_ignore_ascii_case(t)))
            && words.next().is_none()
    }
}

/// A hash blacklist of known-bad content. This is the *post-download*
/// deployment point: perfect on content it has seen, useless on anything
/// new, and it costs a full download per response — shown as the accuracy
/// upper bound the size filter approaches at advertisement time.
#[derive(Debug, Clone, Default)]
pub struct HashBlacklist {
    known_bad: HashSet<Sha1Digest>,
}

impl HashBlacklist {
    pub fn new(known_bad: impl IntoIterator<Item = Sha1Digest>) -> Self {
        HashBlacklist {
            known_bad: known_bad.into_iter().collect(),
        }
    }

    /// Learns every malicious content hash from a training log.
    pub fn learn(training: &[ResolvedResponse]) -> Self {
        Self::new(
            training
                .iter()
                .filter(|r| r.malware.is_some())
                .filter_map(|r| r.sha1),
        )
    }

    pub fn len(&self) -> usize {
        self.known_bad.len()
    }

    pub fn is_empty(&self) -> bool {
        self.known_bad.is_empty()
    }
}

impl ResponseFilter for HashBlacklist {
    fn name(&self) -> &str {
        "hash blacklist"
    }

    fn blocks(&self, r: &ResolvedResponse) -> bool {
        match r.sha1 {
            Some(h) => self.known_bad.contains(&h),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::test_support::{resp, resp_with_sha1};

    #[test]
    fn echo_heuristic_catches_any_separator() {
        let f = EchoHeuristicFilter::new();
        assert!(f.blocks(&resp("free music", "free_music.exe", 1, None)));
        assert!(f.blocks(&resp("free music", "free music.zip", 1, None)));
        assert!(f.blocks(&resp("free music", "free-music.exe", 1, None)));
        assert!(!f.blocks(&resp("free music", "free_music_remix.exe", 1, None)));
        // Non-downloadable class passes even on exact echo.
        assert!(!f.blocks(&resp("free music", "free_music.mp3", 1, None)));
    }

    #[test]
    fn echo_heuristic_false_positive_shape() {
        // A user searching the exact title of a benign app gets the honest
        // result blocked — the FP cost of name heuristics.
        let f = EchoHeuristicFilter::new();
        assert!(f.blocks(&resp(
            "silver echo toolkit",
            "silver_echo_toolkit.exe",
            1,
            None
        )));
    }

    #[test]
    fn hash_blacklist_learn_and_block() {
        let bad = p2pmal_hashes::sha1(b"malware");
        let good = p2pmal_hashes::sha1(b"benign");
        let train = vec![
            resp_with_sha1("q", "w.exe", 10, Some("W32.A"), Some(bad)),
            resp_with_sha1("q", "ok.exe", 20, None, Some(good)),
        ];
        let f = HashBlacklist::learn(&train);
        assert_eq!(f.len(), 1);
        assert!(f.blocks(&resp_with_sha1(
            "other",
            "renamed.exe",
            10,
            Some("W32.A"),
            Some(bad)
        )));
        assert!(!f.blocks(&resp_with_sha1("other", "ok.exe", 20, None, Some(good))));
        // Unscanned content can't be hash-matched.
        assert!(!f.blocks(&resp("q", "unknown.exe", 30, None)));
    }
}
