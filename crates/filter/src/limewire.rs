//! The LimeWire 4.x built-in response filters — the paper's ≈6% baseline.
//!
//! LimeWire shipped two relevant mechanisms in 2006:
//!
//! * the **Mandragore worm filter**: drop any result whose filename is
//!   exactly the query text with `.exe`/`.zip` appended (the W32/Gnuman
//!   "Mandragore" worm echoed queries verbatim). Worms that join query
//!   terms with underscores evade this check — which is precisely why the
//!   era's dominant families did;
//! * a **keyword blacklist** ("junk" filter) over result names.
//!
//! Both look only at the advertised response, never at content, and both
//! are implemented here as they behaved: exact, case-insensitive, easy to
//! sidestep.

use crate::ResponseFilter;
use p2pmal_crawler::ResolvedResponse;

/// Default keyword blacklist, shaped after LimeWire's stock junk terms.
pub const DEFAULT_KEYWORDS: &[&str] = &["crack", "keygen", "warez", "serial", "hack"];

/// The built-in filter pair.
#[derive(Debug, Clone)]
pub struct LimewireBuiltin {
    keywords: Vec<String>,
}

impl Default for LimewireBuiltin {
    fn default() -> Self {
        Self::new()
    }
}

impl LimewireBuiltin {
    pub fn new() -> Self {
        LimewireBuiltin {
            keywords: DEFAULT_KEYWORDS.iter().map(|s| s.to_string()).collect(),
        }
    }

    pub fn with_keywords(keywords: Vec<String>) -> Self {
        LimewireBuiltin {
            keywords: keywords
                .into_iter()
                .map(|k| k.to_ascii_lowercase())
                .collect(),
        }
    }

    /// The Mandragore check: filename == query + ".exe"/".zip", verbatim
    /// but for ASCII case. Compares in place: a report runs it on every
    /// scanned row.
    pub fn is_query_echo(query: &str, filename: &str) -> bool {
        let (q, f) = (query.trim().as_bytes(), filename.as_bytes());
        if q.is_empty() || f.len() != q.len() + 4 {
            return false;
        }
        let (stem, ext) = f.split_at(q.len());
        stem.eq_ignore_ascii_case(q)
            && [b".exe", b".zip"]
                .iter()
                .any(|e| ext.eq_ignore_ascii_case(*e))
    }

    fn keyword_hit(&self, filename: &str) -> bool {
        let f = filename.as_bytes();
        self.keywords
            .iter()
            .any(|k| contains_ignore_ascii_case(f, k.as_bytes()))
    }
}

/// Whether `lower` (ASCII-lowercased already) occurs in `hay` ignoring
/// ASCII case: `hay.to_ascii_lowercase().contains(lower)` without the copy.
/// Candidates are the positions holding `lower`'s first byte in either
/// case, so most of `hay` is passed over by a byte compare.
fn contains_ignore_ascii_case(hay: &[u8], lower: &[u8]) -> bool {
    let Some((&first, rest)) = lower.split_first() else {
        return true;
    };
    let upper = first.to_ascii_uppercase();
    let Some(last_start) = hay.len().checked_sub(lower.len()) else {
        return false;
    };
    hay[..=last_start].iter().enumerate().any(|(i, &b)| {
        (b == first || b == upper) && hay[i + 1..i + lower.len()].eq_ignore_ascii_case(rest)
    })
}

impl ResponseFilter for LimewireBuiltin {
    fn name(&self) -> &str {
        "LimeWire built-in"
    }

    fn blocks(&self, r: &ResolvedResponse) -> bool {
        Self::is_query_echo(&r.record.query, &r.record.filename)
            || self.keyword_hit(&r.record.filename)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::test_support::resp;

    #[test]
    fn mandragore_check_is_verbatim_only() {
        assert!(LimewireBuiltin::is_query_echo(
            "free music",
            "free music.exe"
        ));
        assert!(LimewireBuiltin::is_query_echo(
            "Free Music",
            "free music.zip"
        ));
        // The evasion every 2006 worm used: underscores.
        assert!(!LimewireBuiltin::is_query_echo(
            "free music",
            "free_music.exe"
        ));
        // Not merely containing the query.
        assert!(!LimewireBuiltin::is_query_echo(
            "free music",
            "free music remix.exe"
        ));
        assert!(!LimewireBuiltin::is_query_echo("", ".exe"));
    }

    #[test]
    fn keyword_blacklist_hits() {
        let f = LimewireBuiltin::new();
        assert!(f.blocks(&resp("q", "photoshop_keygen.exe", 10, None)));
        assert!(f.blocks(&resp("q", "WinZip_CRACK.exe", 10, None)));
        assert!(!f.blocks(&resp("q", "holiday_photos.zip", 10, None)));
    }

    #[test]
    fn blocks_verbatim_echo_responses() {
        let f = LimewireBuiltin::new();
        assert!(f.blocks(&resp(
            "top hits 2006",
            "top hits 2006.exe",
            92_672,
            Some("W32.Bagle.DL")
        )));
        assert!(!f.blocks(&resp(
            "top hits 2006",
            "top_hits_2006.exe",
            58_368,
            Some("W32.Padobot.P2P")
        )));
    }

    #[test]
    fn custom_keywords() {
        let f = LimewireBuiltin::with_keywords(vec!["XXX".into()]);
        assert!(f.blocks(&resp("q", "hot_xxx_pack.zip", 1, None)));
        assert!(!f.blocks(&resp("q", "photoshop_keygen.exe", 1, None)));
    }
}
