//! The benign content universe: what non-infected hosts share.
//!
//! The study's denominators come from here. The 68% headline number counts
//! malware among *downloadable responses containing archives and
//! executables*, so the benign catalog must contain a realistic minority of
//! applications and archives among the dominant audio/video titles, each
//! title replicated across hosts in a handful of variants (different rips,
//! encodings, bundles) with diverse file sizes — diversity that makes the
//! paper's size-based filter cheap on false positives.

use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt;

/// Broad media classes, mirroring how the study bucketed responses by
/// filename extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MediaType {
    Audio,
    Video,
    /// Installable programs — the `.exe` slice of the downloadable class.
    Application,
    /// `.zip`/`.rar`-style bundles — the archive slice.
    Archive,
    Document,
    Image,
}

impl MediaType {
    /// All media types, in catalog-weight order.
    pub const ALL: [MediaType; 6] = [
        MediaType::Audio,
        MediaType::Video,
        MediaType::Application,
        MediaType::Archive,
        MediaType::Document,
        MediaType::Image,
    ];

    /// File extension used for generated variant names.
    pub fn extension(self) -> &'static str {
        match self {
            MediaType::Audio => "mp3",
            MediaType::Video => "avi",
            MediaType::Application => "exe",
            MediaType::Archive => "zip",
            MediaType::Document => "pdf",
            MediaType::Image => "jpg",
        }
    }

    /// Whether responses of this type fall in the paper's "downloadable"
    /// class (archives and executables).
    pub fn is_downloadable_class(self) -> bool {
        matches!(self, MediaType::Application | MediaType::Archive)
    }

    /// Plausible size range in bytes for a single shared file of this type,
    /// reflecting 2006-era encodings (applications/archives are
    /// shareware-scale — multi-hundred-MB installers lived on FTP mirrors,
    /// not Gnutella shares).
    pub fn size_range(self) -> (u64, u64) {
        match self {
            MediaType::Audio => (1_800_000, 9_500_000),
            MediaType::Video => (40_000_000, 720_000_000),
            MediaType::Application => (150_000, 6_000_000),
            MediaType::Archive => (100_000, 9_000_000),
            MediaType::Document => (20_000, 4_000_000),
            MediaType::Image => (30_000, 2_500_000),
        }
    }
}

impl fmt::Display for MediaType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MediaType::Audio => "audio",
            MediaType::Video => "video",
            MediaType::Application => "application",
            MediaType::Archive => "archive",
            MediaType::Document => "document",
            MediaType::Image => "image",
        };
        f.write_str(s)
    }
}

/// One concrete shareable file belonging to a title: a specific rip /
/// encoding / bundling with its own name and exact byte size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Variant {
    /// Full filename, e.g. `crimson_horizon-midnight_arcade.mp3`.
    pub name: String,
    /// Exact size in bytes. Replicas of the same variant share this size.
    pub size: u64,
}

/// A benign title: the unit of popularity. Hosts that "have" a title share
/// one of its variants.
#[derive(Debug, Clone)]
pub struct BenignItem {
    /// Dense id; also the title's popularity rank (0 = most popular).
    pub id: u32,
    /// Lower-cased keywords making up the title (artist + work words).
    pub keywords: Vec<String>,
    pub media: MediaType,
    /// 1..=5 concrete variants.
    pub variants: Vec<Variant>,
}

impl BenignItem {
    /// True when every query term occurs as a substring of the title's
    /// keyword string — the match rule Gnutella servents apply to shared
    /// file names.
    pub fn matches_query(&self, terms: &[&str]) -> bool {
        if terms.is_empty() {
            return false;
        }
        terms.iter().all(|t| {
            let t = t.to_ascii_lowercase();
            self.keywords.iter().any(|k| k.contains(&t))
        })
    }
}

/// Catalog construction parameters.
#[derive(Debug, Clone)]
pub struct CatalogConfig {
    /// Number of distinct titles.
    pub titles: usize,
    /// Zipf exponent for title popularity.
    pub alpha: f64,
    /// Per-mille weights for each media type, in [`MediaType::ALL`] order.
    /// Defaults mirror the audio-dominant mix of 2006 file sharing.
    pub media_mix_permille: [u32; 6],
}

impl Default for CatalogConfig {
    fn default() -> Self {
        CatalogConfig {
            titles: 4000,
            alpha: 0.95,
            // audio, video, application, archive, document, image
            media_mix_permille: [580, 150, 110, 90, 40, 30],
        }
    }
}

/// The generated benign universe plus its popularity distribution.
#[derive(Debug, Clone)]
pub struct Catalog {
    items: Vec<BenignItem>,
    popularity: Zipf,
}

impl Catalog {
    /// Generates a catalog deterministically from `rng`.
    pub fn generate(config: &CatalogConfig, rng: &mut StdRng) -> Self {
        assert!(config.titles > 0, "catalog needs at least one title");
        let mix: u32 = config.media_mix_permille.iter().sum();
        assert!(mix > 0, "media mix must have positive weight");
        let mut items = Vec::with_capacity(config.titles);
        // Media types are striped deterministically across popularity ranks
        // (largest-remainder round-robin) instead of drawn independently:
        // with Zipf popularity the head ranks dominate query and replica
        // mass, and an independent draw would make the *realized* media mix
        // of responses a coin flip over a handful of titles.
        let mut media_credit = [0i64; 6];
        for id in 0..config.titles as u32 {
            let media = pick_media_striped(&config.media_mix_permille, mix, &mut media_credit);
            let keywords = title_keywords(media, rng);
            let n_variants = rng.gen_range(1..=5usize);
            let (lo, hi) = media.size_range();
            let variants = (0..n_variants)
                .map(|v| {
                    let size = rng.gen_range(lo..=hi);
                    let name = variant_name(&keywords, media, v, rng);
                    Variant { name, size }
                })
                .collect();
            items.push(BenignItem {
                id,
                keywords,
                media,
                variants,
            });
        }
        let popularity = Zipf::new(config.titles, config.alpha);
        Catalog { items, popularity }
    }

    /// All titles, indexed by id / popularity rank.
    pub fn items(&self) -> &[BenignItem] {
        &self.items
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn item(&self, id: u32) -> &BenignItem {
        &self.items[id as usize]
    }

    /// Samples a title by popularity (rank 0 most likely).
    pub fn sample(&self, rng: &mut StdRng) -> &BenignItem {
        &self.items[self.popularity.sample(rng)]
    }

    /// Samples a title id by popularity.
    pub fn sample_id(&self, rng: &mut StdRng) -> u32 {
        self.popularity.sample(rng) as u32
    }

    /// Ids of all titles matching every term of `terms`.
    pub fn matching(&self, terms: &[&str]) -> Vec<u32> {
        self.items
            .iter()
            .filter(|it| it.matches_query(terms))
            .map(|it| it.id)
            .collect()
    }

    /// A realistic query string for this catalog: two or three keywords of
    /// a popularity-sampled title — what users actually type. Multi-word
    /// queries are the norm (single-word searches drown in noise), which
    /// also matters for filter fidelity: a single-word query would make an
    /// underscore-joining echo worm's response identical to a verbatim one.
    pub fn sample_query(&self, rng: &mut StdRng) -> String {
        let item = self.sample(rng);
        let max = item.keywords.len().min(3);
        let n = rng.gen_range(2.min(max)..=max).max(1);
        let start = rng.gen_range(0..=item.keywords.len() - n);
        item.keywords[start..start + n].join(" ")
    }

    /// Samples a title uniformly (every title equally likely), used for
    /// bait-title selection where query-mass coverage must stay small.
    pub fn sample_uniform(&self, rng: &mut StdRng) -> &BenignItem {
        &self.items[rng.gen_range(0..self.items.len())]
    }
}

/// Largest-remainder striping: each rank goes to the media type with the
/// highest accumulated credit, keeping every popularity band at the
/// configured mix.
fn pick_media_striped(weights: &[u32; 6], total: u32, credit: &mut [i64; 6]) -> MediaType {
    for (c, &w) in credit.iter_mut().zip(weights.iter()) {
        *c += w as i64;
    }
    let (best, _) = credit
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .expect("six media types");
    credit[best] -= total as i64;
    MediaType::ALL[best]
}

/// Word pools for synthetic titles. Deliberately invented (no real artists)
/// but shaped like real ones so query strings look authentic in logs.
const FIRST_WORDS: &[&str] = &[
    "crimson", "midnight", "electric", "silver", "neon", "golden", "broken", "velvet", "lunar",
    "shadow", "burning", "frozen", "wild", "savage", "hollow", "iron", "scarlet", "emerald",
    "phantom", "stellar", "rusty", "glass", "paper", "thunder", "quiet", "rapid", "northern",
    "eastern", "retro", "turbo",
];

const SECOND_WORDS: &[&str] = &[
    "horizon", "arcade", "echo", "serenade", "district", "parade", "empire", "avenue", "signal",
    "garden", "mirror", "harbor", "circuit", "anthem", "voyage", "canyon", "river", "skyline",
    "engine", "castle", "monsoon", "dynamo", "lagoon", "meadow", "pulse", "reactor", "summit",
    "tunnel", "vertigo", "zephyr",
];

const WORK_WORDS: &[&str] = &[
    "remix",
    "live",
    "sessions",
    "unplugged",
    "deluxe",
    "edition",
    "collection",
    "trilogy",
    "chronicles",
    "returns",
    "forever",
    "nights",
    "dreams",
    "stories",
    "tapes",
    "vault",
    "anthology",
    "bootleg",
    "special",
    "ultimate",
];

const APP_WORDS: &[&str] = &[
    "toolkit",
    "studio",
    "manager",
    "optimizer",
    "designer",
    "converter",
    "player",
    "editor",
    "builder",
    "suite",
    "wizard",
    "express",
    "deluxe",
    "professional",
    "cleaner",
    "tuner",
];

fn title_keywords(media: MediaType, rng: &mut StdRng) -> Vec<String> {
    let mut kws = vec![
        FIRST_WORDS[rng.gen_range(0..FIRST_WORDS.len())].to_string(),
        SECOND_WORDS[rng.gen_range(0..SECOND_WORDS.len())].to_string(),
    ];
    match media {
        MediaType::Application | MediaType::Archive => {
            kws.push(APP_WORDS[rng.gen_range(0..APP_WORDS.len())].to_string());
            if rng.gen_bool(0.6) {
                kws.push(format!("{}.{}", rng.gen_range(1..=9), rng.gen_range(0..=9)));
            }
        }
        _ => {
            if rng.gen_bool(0.7) {
                kws.push(WORK_WORDS[rng.gen_range(0..WORK_WORDS.len())].to_string());
            }
        }
    }
    kws
}

fn variant_name(keywords: &[String], media: MediaType, variant: usize, rng: &mut StdRng) -> String {
    let tag = match variant {
        0 => "",
        _ => ["hq", "rip", "full", "v2", "final"][rng.gen_range(0..5usize)],
    };
    let ext = media.extension();
    // `kw_kw[_tag].ext`, built in one buffer of exactly its final size.
    let stem = keywords.iter().map(|k| k.len() + 1).sum::<usize>();
    let tagged = if tag.is_empty() { 0 } else { tag.len() + 1 };
    let mut name = String::with_capacity(stem.saturating_sub(1) + tagged + 1 + ext.len());
    for (i, kw) in keywords.iter().enumerate() {
        if i > 0 {
            name.push('_');
        }
        name.push_str(kw);
    }
    if !tag.is_empty() {
        name.push('_');
        name.push_str(tag);
    }
    name.push('.');
    name.push_str(ext);
    name
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn small_catalog(seed: u64) -> Catalog {
        let mut rng = StdRng::seed_from_u64(seed);
        Catalog::generate(
            &CatalogConfig {
                titles: 300,
                ..Default::default()
            },
            &mut rng,
        )
    }

    #[test]
    fn variant_names_are_stem_tag_extension() {
        let keywords = ["crimson".to_string(), "horizon".to_string()];
        let mut rng = StdRng::seed_from_u64(9);
        let plain = variant_name(&keywords, MediaType::Audio, 0, &mut rng);
        assert_eq!(plain, "crimson_horizon.mp3");
        assert_eq!(plain.capacity(), plain.len());
        // The tag costs exactly one draw, taken before anything is written.
        let mut expect = StdRng::seed_from_u64(9);
        let tag = ["hq", "rip", "full", "v2", "final"][expect.gen_range(0..5usize)];
        let tagged = variant_name(&keywords, MediaType::Archive, 3, &mut rng);
        assert_eq!(tagged, format!("crimson_horizon_{tag}.zip"));
        assert_eq!(tagged.capacity(), tagged.len());
        assert_eq!(rng.gen_range(0..1000u32), expect.gen_range(0..1000u32));
        assert_eq!(variant_name(&[], MediaType::Image, 0, &mut rng), ".jpg");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_catalog(5);
        let b = small_catalog(5);
        for (x, y) in a.items().iter().zip(b.items()) {
            assert_eq!(x.keywords, y.keywords);
            assert_eq!(x.variants, y.variants);
        }
    }

    #[test]
    fn media_mix_roughly_matches_weights() {
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = CatalogConfig {
            titles: 6000,
            ..Default::default()
        };
        let cat = Catalog::generate(&cfg, &mut rng);
        let audio = cat
            .items()
            .iter()
            .filter(|i| i.media == MediaType::Audio)
            .count();
        let frac = audio as f64 / cat.len() as f64;
        assert!((frac - 0.58).abs() < 0.03, "audio fraction {frac}");
    }

    #[test]
    fn variants_have_sizes_in_media_range() {
        let cat = small_catalog(3);
        for item in cat.items() {
            let (lo, hi) = item.media.size_range();
            assert!(!item.variants.is_empty() && item.variants.len() <= 5);
            for v in &item.variants {
                assert!(v.size >= lo && v.size <= hi, "{} size {}", v.name, v.size);
                assert!(v.name.ends_with(item.media.extension()));
            }
        }
    }

    #[test]
    fn query_matching_requires_all_terms() {
        let cat = small_catalog(9);
        let item = cat.item(0);
        let k0 = item.keywords[0].clone();
        let k1 = item.keywords[1].clone();
        assert!(item.matches_query(&[&k0]));
        assert!(item.matches_query(&[&k0, &k1]));
        assert!(
            item.matches_query(&[&k0.to_ascii_uppercase()]),
            "case-insensitive"
        );
        assert!(!item.matches_query(&[&k0, "zzzzqqq"]));
        assert!(!item.matches_query(&[]), "empty query matches nothing");
    }

    #[test]
    fn sampled_queries_hit_the_catalog() {
        let cat = small_catalog(21);
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..50 {
            let q = cat.sample_query(&mut rng);
            let terms: Vec<&str> = q.split_whitespace().collect();
            assert!(
                !cat.matching(&terms).is_empty(),
                "query {q:?} matched nothing"
            );
        }
    }

    #[test]
    fn popular_titles_are_sampled_more() {
        let cat = small_catalog(33);
        let mut rng = StdRng::seed_from_u64(34);
        let mut counts = vec![0u32; cat.len()];
        for _ in 0..20_000 {
            counts[cat.sample_id(&mut rng) as usize] += 1;
        }
        assert!(counts[0] > counts[cat.len() - 1] * 3);
    }

    #[test]
    fn downloadable_class_flags() {
        assert!(MediaType::Application.is_downloadable_class());
        assert!(MediaType::Archive.is_downloadable_class());
        assert!(!MediaType::Audio.is_downloadable_class());
        assert!(!MediaType::Video.is_downloadable_class());
    }
}
