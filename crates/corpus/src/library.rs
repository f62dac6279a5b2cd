//! Per-host share libraries: what one peer offers in response to queries.
//!
//! A library holds *static* shared files (benign variants, fixed-name
//! trojans, popularity-bait clones) plus *dynamic* infections: query-echo
//! worms that fabricate a matching response for every query they see. The
//! protocol servents (Gnutella, OpenFT) own a `HostLibrary` and translate
//! its responses into wire-format query hits.

use crate::catalog::{BenignItem, Catalog};
use crate::family::{FamilyId, MalwareFamily, NamingStrategy};
use crate::intern::{NameInterner, NameRecord};
use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Identifies the bytes behind a shared file. Payloads are a pure function
/// of the reference (plus the store seed), so replicas of the same content
/// on different hosts are byte-identical — exactly like real file sharing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ContentRef {
    /// Variant `variant` of benign catalog title `item`.
    Benign { item: u32, variant: u8 },
    /// The infected binary of `family` at characteristic size `size_idx`.
    Malware { family: FamilyId, size_idx: u8 },
}

impl ContentRef {
    /// The family behind this content, if malicious.
    pub fn family(&self) -> Option<FamilyId> {
        match self {
            ContentRef::Malware { family, .. } => Some(*family),
            ContentRef::Benign { .. } => None,
        }
    }

    /// Ground-truth label (the simulator knows; the crawler must *measure*).
    pub fn is_malicious(&self) -> bool {
        matches!(self, ContentRef::Malware { .. })
    }
}

/// One file a host offers: display name, exact transfer size, and the
/// content reference resolving to its bytes.
/// `name` is an `Arc<str>`: replicas of the same content carry the same
/// name on thousands of hosts, and libraries built through a shared
/// [`NameInterner`] all point at one allocation per distinct name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedFile {
    pub name: std::sync::Arc<str>,
    pub size: u64,
    pub content: ContentRef,
}

/// A dynamic query-echo infection resident on a host.
#[derive(Debug, Clone)]
struct EchoInfection {
    family: FamilyId,
    size_idx: u8,
    size: u64,
    extensions: Vec<String>,
    verbatim: bool,
}

/// The share library of a single host.
///
/// Arena-backed: match metadata (lowered name + fingerprint) lives in
/// world-shared [`NameRecord`]s, one per *distinct* name, so a host's
/// per-file cost is one slice row plus one `Arc` — no owned text at all
/// once an interner is attached. (`SharedFile` itself stays a plain
/// wire-shaped value that is cheap to clone into query hits.)
#[derive(Debug, Clone, Default)]
pub struct HostLibrary {
    files: Vec<SharedFile>,
    /// Parallel to `files`: the shared name records used for matching.
    recs: Vec<std::sync::Arc<NameRecord>>,
    /// World-shared filename dedup table; inserts route through it when
    /// set (the servents attach their world's interner at construction).
    interner: Option<std::sync::Arc<NameInterner>>,
    echoes: Vec<EchoInfection>,
    /// Families present on this host (static or dynamic), for censuses.
    infections: Vec<FamilyId>,
}

/// Splits a query string into lower-cased match terms the way Gnutella
/// servents do: whitespace- and punctuation-separated words.
pub fn query_terms(query: &str) -> Vec<String> {
    query
        .split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_ascii_lowercase())
        .collect()
}

/// True when every term occurs as a substring of the lower-cased name —
/// the servent-side match rule. This is the reference implementation; the
/// hot path goes through [`CompiledQuery`], which must stay observationally
/// identical (see the proptest equivalence suite).
pub fn name_matches(name: &str, terms: &[String]) -> bool {
    if terms.is_empty() {
        return false;
    }
    let lower = name.to_ascii_lowercase();
    terms.iter().all(|t| lower.contains(t.as_str()))
}

#[inline]
fn fp_bit(x: u64) -> u64 {
    1u64 << (x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58)
}

/// 64-bit character/bigram fingerprint of an (already lowered) name.
///
/// One bit per distinct byte and per distinct byte bigram. Substrings set a
/// subset of the bits their containing string sets, so for any term `t` and
/// name `n`: `lower(n).contains(t)` implies
/// `name_fingerprint(t) & !name_fingerprint(lower(n)) == 0`. The converse
/// does not hold — the fingerprint is a fast *reject* only, and every
/// accept still runs the exact substring check.
pub fn name_fingerprint(lower: &str) -> u64 {
    let b = lower.as_bytes();
    let mut fp = 0u64;
    for i in 0..b.len() {
        fp |= fp_bit(b[i] as u64);
        if i + 1 < b.len() {
            fp |= fp_bit(((b[i] as u64) << 8) | b[i + 1] as u64);
        }
    }
    fp
}

/// A query tokenized (and fingerprinted) once at origination, then carried
/// through the overlay so forwarding hops, QRP checks, and per-library
/// matching never re-tokenize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledQuery {
    raw: String,
    terms: Vec<String>,
    fp: u64,
}

impl CompiledQuery {
    pub fn compile(query: &str) -> Self {
        let terms = query_terms(query);
        let fp = terms.iter().fold(0u64, |a, t| a | name_fingerprint(t));
        CompiledQuery {
            raw: query.to_string(),
            terms,
            fp,
        }
    }

    /// The original query text as it travels on the wire.
    pub fn raw(&self) -> &str {
        &self.raw
    }

    /// Lower-cased match terms, in query order.
    pub fn terms(&self) -> &[String] {
        &self.terms
    }

    /// Combined fingerprint (OR over the terms' fingerprints).
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// True when the query has no match terms (such queries match nothing).
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Match against a precomputed lowered name + fingerprint. Exactly
    /// equivalent to `name_matches(name, terms)`: the fingerprint subset
    /// test only short-circuits definite misses.
    #[inline]
    pub fn matches_meta(&self, lower: &str, name_fp: u64) -> bool {
        if self.terms.is_empty() || self.fp & !name_fp != 0 {
            return false;
        }
        self.terms.iter().all(|t| lower.contains(t.as_str()))
    }

    /// Match against a raw name (lowers on the fly; used where no cached
    /// meta exists). Equivalent to `name_matches(name, self.terms())`.
    pub fn matches_name(&self, name: &str) -> bool {
        name_matches(name, &self.terms)
    }

    /// The one match loop, in two passes over each block of
    /// `MASK_BLOCK` rows: calls `hit` with the number of each row that
    /// matches, ascending, for at most `max` rows. `lo` and `hi` are the
    /// halves of the rows' name fingerprints, one entry per row, which
    /// [`fingerprint_superset_masks`] tests without touching a row; `rec`
    /// yields the (cold, world-shared) record of a row that passed, and
    /// only those run the exact substring check — after the whole block was
    /// tested, so the streaming pass never waits on a record.
    pub fn match_rows<'r>(
        &self,
        lo: &[u32],
        hi: &[u32],
        max: usize,
        rec: impl Fn(usize) -> &'r NameRecord,
        mut hit: impl FnMut(usize),
    ) {
        assert_eq!(lo.len(), hi.len(), "one half of each per row");
        if self.is_empty() {
            return;
        }
        let mut room = max;
        let mut masks = [0; MASK_BLOCK / FLAG_CHUNK];
        for (block, (lo, hi)) in lo.chunks(MASK_BLOCK).zip(hi.chunks(MASK_BLOCK)).enumerate() {
            let masks = &mut masks[..lo.len().div_ceil(FLAG_CHUNK)];
            fingerprint_superset_masks(self.fp, lo, hi, masks);
            for (chunk, &mask) in masks.iter().enumerate() {
                let base = block * MASK_BLOCK + chunk * FLAG_CHUNK;
                if !self.follow(mask, base, &mut room, &rec, &mut hit) {
                    return;
                }
            }
        }
    }

    /// The second pass: runs the exact match on the rows `mask` flags from
    /// row `base` on, and calls `hit` with the ones that match while there
    /// is `room`; false once there is none.
    fn follow<'r>(
        &self,
        mut mask: u64,
        base: usize,
        room: &mut usize,
        rec: &impl Fn(usize) -> &'r NameRecord,
        hit: &mut impl FnMut(usize),
    ) -> bool {
        while mask != 0 {
            if *room == 0 {
                return false;
            }
            let row = base + mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let rec = rec(row);
            if self.matches_meta(rec.lower(), rec.fp()) {
                hit(row);
                *room -= 1;
            }
        }
        true
    }
}

/// Rows a mask covers: what [`superset_mask`] tests per pass over its flag
/// array.
const FLAG_CHUNK: usize = 64;

/// Rows [`CompiledQuery::match_rows`] tests before it follows any of them.
const MASK_BLOCK: usize = 16 * FLAG_CHUNK;

/// Bit `i` is set where the `i`-th of at most [`FLAG_CHUNK`] fingerprints
/// holds every bit of `want`, one fingerprint at a time: for what is not a
/// whole chunk of a column. (Most tables are short — a LimeWire library has
/// 34 rows — and on those the flag pass's set-up cost what it saved.)
#[inline]
fn superset_mask_of(want: u64, fps: impl Iterator<Item = u64>) -> u64 {
    fps.enumerate()
        .fold(0, |mask, (i, fp)| mask | u64::from(want & !fp == 0) << i)
}

/// Bit `i` is set where the fingerprint `(hi[i], lo[i])` holds every bit of
/// `want`: `want & !fp == 0`, on both halves at once, for up to
/// [`FLAG_CHUNK`] rows. A whole chunk fills a byte-flag array in a loop the
/// compiler unrolls and turns into four rows per compare at the x86-64
/// baseline; each eight flags are then gathered into a byte of the mask by
/// one multiplication.
#[inline(always)]
fn superset_mask(want: u64, lo: &[u32], hi: &[u32]) -> u64 {
    debug_assert!(lo.len() == hi.len() && lo.len() <= FLAG_CHUNK);
    if lo.len() < FLAG_CHUNK {
        let halves = lo.iter().zip(hi);
        return superset_mask_of(
            want,
            halves.map(|(&lo, &hi)| u64::from(hi) << 32 | u64::from(lo)),
        );
    }
    let (want_lo, want_hi) = (want as u32, (want >> 32) as u32);
    let mut flags = [0u8; FLAG_CHUNK];
    for ((flag, &lo), &hi) in flags.iter_mut().zip(lo).zip(hi) {
        *flag = u8::from((want_lo & !lo) | (want_hi & !hi) == 0);
    }
    // Byte `i` of a word holds 0 or 1 and lands on bit `56 + i` of the
    // product (through the multiplier's bit `56 - 7 i`); no two partial
    // products meet, so nothing carries.
    const GATHER: u64 = 0x0102_0408_1020_4080;
    let mut mask = 0;
    for (byte, eight) in flags.chunks_exact(8).enumerate() {
        let word = u64::from_le_bytes(eight.try_into().expect("chunks of eight"));
        mask |= (word.wrapping_mul(GATHER) >> 56) << (8 * byte);
    }
    mask
}

/// The fingerprint prefilter: sets bit `r % 64` of `masks[r / 64]` for
/// every row `r` whose name fingerprint — low half in `lo`, high half in
/// `hi` — is a superset of `want`, and clears every other bit. A necessary
/// condition for a match (see [`name_fingerprint`]) that a name passes for
/// about one query in a hundred; the rows flagged are the only ones
/// anything follows.
#[inline]
pub fn fingerprint_superset_masks(want: u64, lo: &[u32], hi: &[u32], masks: &mut [u64]) {
    assert_eq!(lo.len(), hi.len(), "one half of each per row");
    assert_eq!(
        masks.len(),
        lo.len().div_ceil(FLAG_CHUNK),
        "a mask per chunk"
    );
    let chunks = lo.chunks(FLAG_CHUNK).zip(hi.chunks(FLAG_CHUNK));
    for (mask, (lo, hi)) in masks.iter_mut().zip(chunks) {
        *mask = superset_mask(want, lo, hi);
    }
}

/// A bounded, shared compile cache: the same query text floods through
/// hundreds of servents per origination, so each distinct text is
/// tokenized + fingerprinted once per world instead of once per hop.
#[derive(Debug, Default)]
pub struct QueryCache {
    state: Mutex<CacheState>,
}

/// What [`QueryCache`]'s lock guards.
#[derive(Debug, Default)]
struct CacheState {
    map: HashMap<String, Arc<CompiledQuery>>,
    /// The form `compile` returned last: a flood delivers one text to every
    /// servent it reaches back to back, so most lookups are answered by one
    /// string compare instead of a hash of the text.
    last: Option<Arc<CompiledQuery>>,
}

impl QueryCache {
    /// Cap on distinct cached texts; beyond it, compiles are uncached
    /// (correct either way — the cache is purely a perf device).
    const MAX_ENTRIES: usize = 65_536;

    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the compiled form of `query`, caching per distinct text.
    pub fn compile(&self, query: &str) -> Arc<CompiledQuery> {
        let mut state = self.state.lock().unwrap();
        if let Some(q) = state.last.as_ref().filter(|q| q.raw() == query) {
            return Arc::clone(q);
        }
        let q = match state.map.get(query) {
            Some(q) => Arc::clone(q),
            None => {
                let q = Arc::new(CompiledQuery::compile(query));
                if state.map.len() < Self::MAX_ENTRIES {
                    state.map.insert(query.to_string(), Arc::clone(&q));
                }
                q
            }
        };
        state.last = Some(Arc::clone(&q));
        q
    }

    /// Number of distinct query texts currently cached.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl HostLibrary {
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty library with room for `files` static files, so one built
    /// to a known count holds exactly that many slots.
    pub fn with_capacity(files: usize) -> Self {
        HostLibrary {
            files: Vec::with_capacity(files),
            recs: Vec::with_capacity(files),
            ..Self::default()
        }
    }

    /// All static files (echo responses are fabricated per query and do not
    /// appear here).
    pub fn files(&self) -> &[SharedFile] {
        &self.files
    }

    /// Families infecting this host.
    pub fn infections(&self) -> &[FamilyId] {
        &self.infections
    }

    pub fn is_infected(&self) -> bool {
        !self.infections.is_empty()
    }

    /// True when a query-echo worm is resident — such hosts want to see
    /// *every* query (e.g. they saturate their QRP table when acting as a
    /// Gnutella leaf).
    pub fn has_echo(&self) -> bool {
        !self.echoes.is_empty()
    }

    /// Number of static shared files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    pub fn is_empty(&self) -> bool {
        self.files.is_empty() && self.echoes.is_empty()
    }

    /// Attaches the world-shared filename interner. Every subsequent
    /// insert dedups its name through it, and names already registered are
    /// re-interned in place — libraries are typically populated before the
    /// owning servent (which carries the world handle) is constructed.
    pub fn set_interner(&mut self, interner: std::sync::Arc<NameInterner>) {
        // Attaching the same interner twice must not double-count its
        // dedup statistics.
        if self
            .interner
            .as_ref()
            .is_some_and(|i| std::sync::Arc::ptr_eq(i, &interner))
        {
            return;
        }
        for (file, rec) in self.files.iter_mut().zip(&mut self.recs) {
            let r = interner.intern_record_arc(std::mem::replace(&mut file.name, "".into()));
            file.name = r.name().clone();
            *rec = r;
        }
        self.interner = Some(interner);
    }

    /// Shares one variant of a benign title.
    pub fn add_benign(&mut self, item: &BenignItem, variant: usize) {
        let v = &item.variants[variant];
        self.push_file(SharedFile {
            name: v.name.as_str().into(),
            size: v.size,
            content: ContentRef::Benign {
                item: item.id,
                variant: variant as u8,
            },
        });
    }

    /// Adds an arbitrary pre-built file (used by tests and custom hosts).
    pub fn add_file(&mut self, file: SharedFile) {
        self.push_file(file);
    }

    /// The single insert path: every shared file resolves to its arena
    /// record here (world-shared when an interner is attached, standalone
    /// otherwise), so match metadata is derived once per *distinct* name.
    fn push_file(&mut self, mut file: SharedFile) {
        let rec = match &self.interner {
            Some(i) => i.intern_record_arc(file.name),
            None => std::sync::Arc::new(NameRecord::compute(file.name)),
        };
        file.name = rec.name().clone();
        self.recs.push(rec);
        self.files.push(file);
    }

    /// True when a file with exactly this name is already shared. Linear:
    /// only the infect paths call it, at world-build time, and per-host
    /// libraries are small — no per-host hash table needed.
    fn has_name(&self, name: &str) -> bool {
        self.files.iter().any(|f| &*f.name == name)
    }

    /// Room for `more` static files, exactly: an infection adds its few
    /// files to a library already built to size.
    fn reserve_exact(&mut self, more: usize) {
        self.files.reserve_exact(more);
        self.recs.reserve_exact(more);
    }

    /// Infects this host with `family`. The host picks one characteristic
    /// size (the first size is the most common replica, weighted 4:1 over
    /// the rest, which is what makes "most commonly seen sizes" meaningful)
    /// and then:
    ///
    /// * `QueryEcho` — registers a dynamic responder;
    /// * `FixedNames` — shares the static enticing names;
    /// * `PopularBait` — shares clones named after `bait_titles`
    ///   popularity-sampled catalog titles.
    pub fn infect(&mut self, family: &MalwareFamily, catalog: &Catalog, rng: &mut StdRng) {
        let size_idx = pick_size_idx(family, rng);
        let size = family.sizes[size_idx as usize];
        let content = ContentRef::Malware {
            family: family.id,
            size_idx,
        };
        match &family.naming {
            NamingStrategy::QueryEcho {
                extensions,
                verbatim,
            } => {
                self.echoes.push(EchoInfection {
                    family: family.id,
                    size_idx,
                    size,
                    extensions: extensions.clone(),
                    verbatim: *verbatim,
                });
            }
            NamingStrategy::FixedNames(names) => {
                self.reserve_exact(names.len());
                for name in names {
                    self.push_file(SharedFile {
                        name: name.as_str().into(),
                        size,
                        content,
                    });
                }
            }
            NamingStrategy::PopularBait { extension } => {
                // Bait titles are sampled uniformly over the catalog: real
                // baiters skew popular, but the measured tail shares of
                // such families are well under 1% of malicious responses,
                // which uniform title mass reproduces (DESIGN.md §4, T2).
                const BAIT_TITLES: usize = 6;
                self.reserve_exact(BAIT_TITLES);
                for _ in 0..BAIT_TITLES {
                    let title = catalog.sample_uniform(rng);
                    let name = format!("{}.{extension}", title.keywords.join("_"));
                    // Avoid duplicate names if sampling repeats a title.
                    if !self.has_name(&name) {
                        self.push_file(SharedFile {
                            name: name.into(),
                            size,
                            content,
                        });
                    }
                }
            }
        }
        self.infections.push(family.id);
    }

    /// Infects this host as a *superspreader*: `baits` popularity-sampled
    /// bait clones of `family`, regardless of the family's native naming
    /// strategy. This models the single OpenFT host the paper found serving
    /// 67% of all malicious responses — one always-on machine sharing one
    /// virus under a large number of popular titles.
    pub fn infect_superspreader(
        &mut self,
        family: &MalwareFamily,
        catalog: &Catalog,
        baits: usize,
        rng: &mut StdRng,
    ) {
        let size_idx = pick_size_idx(family, rng);
        let size = family.sizes[size_idx as usize];
        let content = ContentRef::Malware {
            family: family.id,
            size_idx,
        };
        let mut added = 0;
        let mut attempts = 0;
        // Bait titles come uniformly from below the top popularity decile:
        // the host's query-mass share is then close to its bait count times
        // the mean tail-title mass, instead of being dominated by whether a
        // lucky draw shares keywords with a chart-topper. This keeps the
        // calibration knob (bait count -> share of malicious responses)
        // stable across seeds.
        let skip = catalog.len() / 10;
        self.reserve_exact(baits);
        while added < baits && attempts < baits * 8 {
            attempts += 1;
            let rank = skip + (rng.next_u64() as usize) % (catalog.len() - skip).max(1);
            let title = catalog.item(rank as u32);
            let name = format!("{}.exe", title.keywords.join("_"));
            if !self.has_name(&name) {
                self.push_file(SharedFile {
                    name: name.into(),
                    size,
                    content,
                });
                added += 1;
            }
        }
        self.infections.push(family.id);
    }

    /// Deep-heap estimate of this library's per-host owned bytes, for the
    /// simulator's bytes-per-node accounting. Interned names and records
    /// are world-shared and charged to the interner, not to each replica;
    /// the per-host cost counted here is the container storage and (only
    /// for interner-less libraries, whose records are private) the record
    /// text itself.
    pub fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        let mut b = (self.files.capacity() * size_of::<SharedFile>()) as u64;
        b += (self.recs.capacity() * size_of::<std::sync::Arc<NameRecord>>()) as u64;
        if self.interner.is_none() {
            b += self
                .recs
                .iter()
                .map(|r| size_of::<NameRecord>() as u64 + r.heap_bytes())
                .sum::<u64>();
        }
        b += (self.echoes.capacity() * size_of::<EchoInfection>()) as u64;
        for e in &self.echoes {
            b += (e.extensions.capacity() * size_of::<String>()) as u64;
            b += e
                .extensions
                .iter()
                .map(|s| s.capacity() as u64)
                .sum::<u64>();
        }
        b += (self.infections.capacity() * size_of::<FamilyId>()) as u64;
        b
    }

    /// Computes this host's responses to `query`, capped at `max` results
    /// (servents cap per-query results; LimeWire used 64). Echo infections
    /// answer *every* non-empty query; static files answer only on keyword
    /// match. Echo responses come first — the worm wants to be downloaded.
    pub fn respond(&self, query: &str, max: usize) -> Vec<SharedFile> {
        self.respond_compiled(&CompiledQuery::compile(query), max)
    }

    /// [`HostLibrary::respond`] for an already-compiled query: the echo
    /// answers, then the matching static rows, as owned files. No column
    /// is kept here — each chunk's mask comes from the records' own
    /// fingerprints; a caller that answers many queries keeps the
    /// [`HostLibrary::name_fingerprints`] columns and calls
    /// [`HostLibrary::match_rows`] itself.
    pub fn respond_compiled(&self, query: &CompiledQuery, max: usize) -> Vec<SharedFile> {
        let mut out = self.echo_responses(query, max);
        if query.is_empty() {
            return out;
        }
        let mut room = max - out.len();
        for (chunk, recs) in self.recs.chunks(FLAG_CHUNK).enumerate() {
            let mask = superset_mask_of(query.fp, recs.iter().map(|r| r.fp()));
            let more = query.follow(
                mask,
                chunk * FLAG_CHUNK,
                &mut room,
                &|row| &*self.recs[row],
                &mut |row| out.push(self.files[row].clone()),
            );
            if !more {
                break;
            }
        }
        out
    }

    /// The answers this host's echo infections fabricate for `query`, at
    /// most `max` of them. Empty — and allocation-free — on a host without
    /// one.
    pub fn echo_responses(&self, query: &CompiledQuery, max: usize) -> Vec<SharedFile> {
        let mut out = Vec::new();
        if query.is_empty() {
            return out;
        }
        for echo in &self.echoes {
            // Verbatim worms echo the raw query text (Mandragore-style);
            // the rest join terms with underscores, evading exact-echo
            // filters.
            let stem: String = if echo.verbatim {
                query.raw().trim().to_string()
            } else {
                query.terms().join("_")
            };
            for ext in &echo.extensions {
                if out.len() >= max {
                    return out;
                }
                out.push(SharedFile {
                    name: format!("{stem}.{ext}").into(),
                    size: echo.size,
                    content: ContentRef::Malware {
                        family: echo.family,
                        size_idx: echo.size_idx,
                    },
                });
            }
        }
        out
    }

    /// The fingerprint of every static row's name as the two columns
    /// [`HostLibrary::match_rows`] reads before it follows a row's record:
    /// the low halves in row order, then the high halves.
    pub fn name_fingerprints(&self) -> Vec<u32> {
        let lo = self.recs.iter().map(|r| r.fp() as u32);
        let hi = self.recs.iter().map(|r| (r.fp() >> 32) as u32);
        lo.chain(hi).collect()
    }

    /// Calls `hit` with the number of each static row (its position in
    /// [`HostLibrary::files`]) that matches `query`, in library order, for
    /// at most `max` rows: [`CompiledQuery::match_rows`] over this
    /// library's records and its [`HostLibrary::name_fingerprints`]
    /// columns, which the caller keeps.
    pub fn match_rows(
        &self,
        query: &CompiledQuery,
        fps: &[u32],
        max: usize,
        hit: impl FnMut(usize),
    ) {
        assert_eq!(fps.len(), 2 * self.recs.len(), "stale fingerprint columns");
        let (lo, hi) = fps.split_at(self.recs.len());
        query.match_rows(lo, hi, max, |row| &*self.recs[row], hit);
    }
}

/// Rough heap estimate of a hashbrown map/set with `len` entries of
/// `entry_bytes` each: capacity at the 7/8 max load factor, one control
/// byte per slot. Accounting only — never affects behavior.
pub fn hash_table_bytes(len: usize, entry_bytes: usize) -> u64 {
    if len == 0 {
        return 0;
    }
    let cap = (len * 8 / 7 + 1).next_power_of_two().max(8);
    (cap * (entry_bytes + 1)) as u64
}

/// Weighted choice of a characteristic size: index 0 carries 4x the weight
/// of each later index.
fn pick_size_idx(family: &MalwareFamily, rng: &mut StdRng) -> u8 {
    let n = family.sizes.len();
    if n == 1 {
        return 0;
    }
    let total = 4 + (n - 1);
    let roll = rng.gen_range(0..total);
    if roll < 4 {
        0
    } else {
        (roll - 3) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CatalogConfig;
    use crate::family::{Container, Roster};
    use rand::SeedableRng;

    fn catalog() -> Catalog {
        let mut rng = StdRng::seed_from_u64(1);
        Catalog::generate(
            &CatalogConfig {
                titles: 200,
                ..Default::default()
            },
            &mut rng,
        )
    }

    #[test]
    fn query_terms_split_and_lowercase() {
        assert_eq!(query_terms("Crimson  Horizon"), vec!["crimson", "horizon"]);
        assert_eq!(query_terms("a-b_c.d"), vec!["a", "b", "c", "d"]);
        assert!(query_terms("  ").is_empty());
    }

    #[test]
    fn name_matching_rules() {
        let terms = query_terms("silver echo");
        assert!(name_matches("silver_echo_remix.mp3", &terms));
        assert!(name_matches("SILVER_ECHO.mp3", &terms));
        assert!(!name_matches("silver_serenade.mp3", &terms));
        assert!(!name_matches("anything", &[]));
    }

    #[test]
    fn fingerprint_is_subset_for_substrings() {
        let name = "crimson_horizon_remix.mp3";
        for sub in ["son", "crimson", "mix.m", "_", "n_h"] {
            let (nfp, sfp) = (name_fingerprint(name), name_fingerprint(sub));
            assert_eq!(sfp & !nfp, 0, "substring {sub:?} must be fp-subset");
        }
    }

    #[test]
    fn compiled_query_matches_like_name_matches() {
        let cases = [
            ("son", "crimson.mp3"), // substring across token boundary
            ("silver echo", "SILVER_ECHO.mp3"),
            ("silver echo", "silver_serenade.mp3"),
            ("", "anything"),
            ("--  ..", "anything"),
            ("zzz", "aaa"),
        ];
        for (q, name) in cases {
            let terms = query_terms(q);
            let cq = CompiledQuery::compile(q);
            let lower = name.to_ascii_lowercase();
            let fp = name_fingerprint(&lower);
            assert_eq!(
                cq.matches_meta(&lower, fp),
                name_matches(name, &terms),
                "query {q:?} vs {name:?}"
            );
            assert_eq!(cq.matches_name(name), name_matches(name, &terms));
        }
    }

    /// `match_rows` over a table longer than two mask blocks selects what
    /// the reference matcher selects — on both sides of every chunk and
    /// block boundary, behind rows that pass the fingerprint test only —
    /// and stops at `max`.
    #[test]
    fn match_rows_equals_the_reference_across_blocks() {
        let n = 2 * MASK_BLOCK + FLAG_CHUNK + 6;
        let hits = [
            0,
            63,
            64,
            MASK_BLOCK - 1,
            MASK_BLOCK,
            2 * MASK_BLOCK + 1,
            n - 1,
        ];
        let recs: Vec<NameRecord> = (0..n)
            .map(|i| match i {
                i if hits.contains(&i) => format!("Silver_Echo_{i}.mp3"),
                i if i % 7 == 0 => format!("ho_ec_ch_er_lv_il_si_ve_r_{i}.mp3"),
                i => format!("other_{i}.avi"),
            })
            .map(|name| NameRecord::compute(name.into()))
            .collect();
        let lo: Vec<u32> = recs.iter().map(|r| r.fp() as u32).collect();
        let hi: Vec<u32> = recs.iter().map(|r| (r.fp() >> 32) as u32).collect();
        let query = CompiledQuery::compile("silver echo");
        let decoys = recs
            .iter()
            .filter(|r| query.fingerprint() & !r.fp() == 0)
            .count();
        assert!(decoys > hits.len(), "some rows pass the prefilter only");
        for max in [usize::MAX, 3, 0] {
            let mut rows = vec![7];
            query.match_rows(&lo, &hi, max, |row| &recs[row], |row| rows.push(row as u32));
            let expected: Vec<u32> = std::iter::once(7)
                .chain(
                    (0..n as u32)
                        .filter(|&i| name_matches(recs[i as usize].name(), query.terms()))
                        .take(max),
                )
                .collect();
            assert_eq!(rows, expected, "max {max}");
            assert_eq!(rows.len() - 1, hits.len().min(max));
        }
        let mut rows = Vec::new();
        CompiledQuery::compile(" ").match_rows(&lo, &hi, 9, |row| &recs[row], |row| rows.push(row));
        assert!(rows.is_empty(), "an empty query matches nothing");
    }

    #[test]
    fn query_cache_dedups_compiles() {
        let cache = QueryCache::new();
        let a = cache.compile("Silver Echo");
        let b = cache.compile("Silver Echo");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
        assert_eq!(a.terms(), &["silver".to_string(), "echo".to_string()]);
        // Not the text asked last any more: same form, out of the map.
        let other = cache.compile("silver");
        assert_eq!(other.raw(), "silver");
        assert!(Arc::ptr_eq(&a, &cache.compile("Silver Echo")));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn benign_files_answer_matching_queries_only() {
        let cat = catalog();
        let mut lib = HostLibrary::new();
        lib.add_benign(cat.item(0), 0);
        let kw = cat.item(0).keywords[0].clone();
        assert_eq!(lib.respond(&kw, 64).len(), 1);
        assert!(lib.respond("zzzz9999", 64).is_empty());
        assert!(!lib.is_infected());
    }

    #[test]
    fn echo_worm_answers_every_query_with_query_name() {
        let cat = catalog();
        let roster = Roster::limewire_2006();
        let mut rng = StdRng::seed_from_u64(5);
        let mut lib = HostLibrary::new();
        lib.infect(roster.get(FamilyId(0)), &cat, &mut rng);
        for q in ["madonna", "quarterly report", "xyzzy plugh"] {
            let rs = lib.respond(q, 64);
            assert_eq!(rs.len(), 1, "query {q}");
            assert!(rs[0].name.ends_with(".exe"));
            assert!(rs[0].content.is_malicious());
            assert_eq!(rs[0].size, roster.get(FamilyId(0)).sizes[0]);
        }
        let rs = lib.respond("free music", 64);
        assert_eq!(&*rs[0].name, "free_music.exe");
    }

    #[test]
    fn multi_extension_echo_produces_one_response_per_extension() {
        let cat = catalog();
        let roster = Roster::limewire_2006();
        let alcra = roster.by_name("W32.Alcra.B").unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let mut lib = HostLibrary::new();
        lib.infect(alcra, &cat, &mut rng);
        let rs = lib.respond("test", 64);
        assert_eq!(rs.len(), 2);
        let exts: Vec<&str> = rs
            .iter()
            .map(|f| f.name.rsplit('.').next().unwrap())
            .collect();
        assert_eq!(exts, vec!["exe", "zip"]);
    }

    #[test]
    fn fixed_name_trojan_answers_only_its_names() {
        let cat = catalog();
        let roster = Roster::openft_2006();
        let gnuman = roster.get(FamilyId(0));
        let mut rng = StdRng::seed_from_u64(7);
        let mut lib = HostLibrary::new();
        lib.infect(gnuman, &cat, &mut rng);
        assert!(lib.is_infected());
        assert_eq!(lib.len(), 4, "four enticing names");
        // A query matching one of the fixed names hits; others miss.
        let name = lib.files()[0].name.clone();
        let first_word = name.split('_').next().unwrap().to_string();
        assert!(!lib.respond(&first_word, 64).is_empty());
        assert!(lib.respond("completely unrelated", 64).is_empty());
    }

    /// A library built to a known count holds exactly that many slots, and
    /// an infection adds exactly the slots of the files it shares: nothing
    /// is left to doubling (34 files would sit in 64 slots).
    #[test]
    fn libraries_are_built_at_their_size() {
        let cat = catalog();
        let slots = |lib: &HostLibrary| (lib.files.capacity(), lib.recs.capacity());
        let mut lib = HostLibrary::with_capacity(34);
        for i in 0..34 {
            lib.add_benign(cat.item(i), 0);
        }
        assert_eq!(slots(&lib), (34, 34));
        let roster = Roster::openft_2006();
        lib.infect(roster.get(FamilyId(0)), &cat, &mut StdRng::seed_from_u64(7));
        assert_eq!(lib.len(), 34 + 4, "four enticing names");
        assert_eq!(slots(&lib), (38, 38));
    }

    #[test]
    fn popular_bait_rides_catalog_titles() {
        let cat = catalog();
        let roster = Roster::limewire_2006();
        let baiter = roster
            .families()
            .iter()
            .find(|f| matches!(f.naming, NamingStrategy::PopularBait { .. }))
            .unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let mut lib = HostLibrary::new();
        lib.infect(baiter, &cat, &mut rng);
        assert!(!lib.files().is_empty());
        for f in lib.files() {
            assert!(f.name.ends_with(".exe"));
            assert!(f.content.is_malicious());
            assert_eq!(f.size, baiter.sizes[0]);
        }
    }

    #[test]
    fn respond_respects_cap() {
        let cat = catalog();
        let roster = Roster::limewire_2006();
        let mut rng = StdRng::seed_from_u64(9);
        let mut lib = HostLibrary::new();
        for _ in 0..5 {
            lib.infect(roster.get(FamilyId(1)), &cat, &mut rng); // 2 exts each
        }
        assert_eq!(lib.respond("anything", 3).len(), 3);
    }

    #[test]
    fn size_idx_prefers_first_size() {
        let roster = Roster::limewire_2006();
        let alcra = roster.by_name("W32.Alcra.B").unwrap();
        assert_eq!(alcra.sizes.len(), 2);
        let mut rng = StdRng::seed_from_u64(10);
        let mut first = 0;
        for _ in 0..1000 {
            if pick_size_idx(alcra, &mut rng) == 0 {
                first += 1;
            }
        }
        // 4:1 weighting => ~80%.
        assert!((700..=900).contains(&first), "first-size picks {first}");
        let _ = Container::Executable; // silence unused import in some cfgs
    }
}
