//! Property tests on the content ecosystem's invariants.

use p2pmal_corpus::catalog::{Catalog, CatalogConfig};
use p2pmal_corpus::library::{name_fingerprint, name_matches, query_terms};
use p2pmal_corpus::{
    fingerprint_superset_masks, CompiledQuery, ContentRef, ContentStore, FamilyId, HostLibrary,
    Roster, Zipf,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every payload's length equals its declared size, for all malware
    /// shapes in both rosters.
    #[test]
    fn malware_payload_len_equals_declared_size(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let catalog = Catalog::generate(&CatalogConfig { titles: 20, ..Default::default() }, &mut rng);
        let store = ContentStore::new(seed);
        for roster in [Roster::limewire_2006(), Roster::openft_2006()] {
            for fam in roster.families() {
                for (i, &size) in fam.sizes.iter().enumerate() {
                    let r = ContentRef::Malware { family: fam.id, size_idx: i as u8 };
                    prop_assert_eq!(store.size(r, &catalog, &roster), size);
                    prop_assert_eq!(store.payload(r, &catalog, &roster).len() as u64, size);
                }
            }
        }
    }

    /// Replica determinism: two stores with the same seed produce identical
    /// bytes and hashes for the same reference.
    #[test]
    fn replicas_are_identical(seed in any::<u64>(), fam in 0u16..3) {
        let mut rng = StdRng::seed_from_u64(seed);
        let catalog = Catalog::generate(&CatalogConfig { titles: 10, ..Default::default() }, &mut rng);
        let roster = Roster::limewire_2006();
        let a = ContentStore::new(seed);
        let b = ContentStore::new(seed);
        let r = ContentRef::Malware { family: FamilyId(fam), size_idx: 0 };
        prop_assert_eq!(a.payload(r, &catalog, &roster), b.payload(r, &catalog, &roster));
        prop_assert_eq!(a.hashes(r, &catalog, &roster), b.hashes(r, &catalog, &roster));
        prop_assert_eq!(a.declared_md5(r), b.declared_md5(r));
    }

    /// A filename always matches the query built from its own terms.
    #[test]
    fn name_matches_its_own_terms(name in "[ -~&&[^\\x00]]{1,40}") {
        let terms = query_terms(&name);
        prop_assume!(!terms.is_empty());
        prop_assert!(name_matches(&name, &terms), "{name:?} vs {terms:?}");
    }

    /// Query terms are lowercase, non-empty, alphanumeric.
    #[test]
    fn query_terms_are_normalized(q in "[ -~]{0,60}") {
        for t in query_terms(&q) {
            prop_assert!(!t.is_empty());
            prop_assert!(t.chars().all(|c| c.is_ascii_alphanumeric()));
            prop_assert_eq!(t.clone(), t.to_ascii_lowercase());
        }
    }

    /// Zipf sampling stays in range and pmf is monotonically non-increasing.
    #[test]
    fn zipf_invariants(n in 1usize..200, alpha in 0.0f64..2.0, seed in any::<u64>()) {
        let z = Zipf::new(n, alpha);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(z.sample(&mut rng) < n);
        }
        for k in 1..n {
            prop_assert!(z.pmf(k - 1) >= z.pmf(k) - 1e-12);
        }
    }

    /// An echo-infected host answers any query with at least one result
    /// named after the query, at a characteristic family size.
    #[test]
    fn echo_answers_arbitrary_queries(seed in any::<u64>(), query in "[a-z]{2,10}( [a-z]{2,10}){0,2}") {
        let mut rng = StdRng::seed_from_u64(seed);
        let catalog = Catalog::generate(&CatalogConfig { titles: 10, ..Default::default() }, &mut rng);
        let roster = Roster::limewire_2006();
        let mut lib = HostLibrary::new();
        lib.infect(roster.get(FamilyId(0)), &catalog, &mut rng);
        let responses = lib.respond(&query, 16);
        prop_assert!(!responses.is_empty());
        for r in &responses {
            prop_assert!(roster.get(FamilyId(0)).sizes.contains(&r.size));
            prop_assert!(r.content.is_malicious());
        }
    }

    /// Fingerprint soundness: a substring's fingerprint bits are always a
    /// subset of the containing string's, so the fast-reject can never
    /// discard a true match. Exercised over arbitrary printable-and-beyond
    /// byte content and arbitrary substring windows.
    #[test]
    fn fingerprint_of_substring_is_subset(name in "\\PC{0,48}", start in 0usize..48, len in 0usize..48) {
        let lower = name.to_ascii_lowercase();
        // Clamp to char boundaries so slicing stays valid.
        let mut s = start.min(lower.len());
        while !lower.is_char_boundary(s) { s -= 1; }
        let mut e = (s + len).min(lower.len());
        while !lower.is_char_boundary(e) { e -= 1; }
        let sub = &lower[s..e.max(s)];
        prop_assert_eq!(name_fingerprint(sub) & !name_fingerprint(&lower), 0);
    }

    /// The flag pass over the two half columns flags exactly the rows
    /// `want & !fp == 0` selects one at a time, whatever the masks held
    /// before — for any table length around the 64 rows a mask covers, a
    /// `want` that is a subset of some row's bits (down to the empty one,
    /// which every row and no padding passes) or arbitrary.
    #[test]
    fn flag_pass_equals_the_subset_test_row_by_row(
        fps in proptest::collection::vec(any::<u64>(), 0..200),
        pick in any::<usize>(),
        masks in (any::<u64>(), any::<u64>(), any::<bool>()),
    ) {
        let (keep, thin, subset) = masks;
        let want = match fps.get(pick % fps.len().max(1)) {
            Some(fp) if subset => fp & keep & thin,
            _ => keep,
        };
        let lo: Vec<u32> = fps.iter().map(|&fp| fp as u32).collect();
        let hi: Vec<u32> = fps.iter().map(|&fp| (fp >> 32) as u32).collect();
        let mut masks = vec![thin; fps.len().div_ceil(64)];
        fingerprint_superset_masks(want, &lo, &hi, &mut masks);
        let mut expected = vec![0u64; masks.len()];
        for (row, fp) in fps.iter().enumerate() {
            expected[row / 64] |= u64::from(want & !fp == 0) << (row % 64);
        }
        prop_assert_eq!(masks, expected);
    }

    /// The compiled hot path is observationally identical to the reference
    /// `query_terms` + `name_matches` pair, over adversarial inputs:
    /// unicode-ish names, empty/punctuation-only queries, and terms that
    /// straddle token boundaries of the name (e.g. "son" in "crimson").
    #[test]
    fn compiled_query_equals_reference(name in "\\PC{0,40}", query in "\\PC{0,40}") {
        let terms = query_terms(&query);
        let reference = name_matches(&name, &terms);
        let compiled = CompiledQuery::compile(&query);
        prop_assert_eq!(compiled.terms(), &terms[..]);
        prop_assert_eq!(compiled.is_empty(), terms.is_empty());
        prop_assert_eq!(compiled.matches_name(&name), reference);
        let lower = name.to_ascii_lowercase();
        prop_assert_eq!(
            compiled.matches_meta(&lower, name_fingerprint(&lower)),
            reference,
            "meta path diverged for name {:?} query {:?}", name, query
        );
    }

    /// `respond` (which now runs the compiled fingerprint path) returns
    /// exactly the static files the reference matcher accepts, in library
    /// order, for any query against a real catalog population.
    #[test]
    fn respond_equals_reference_filter(seed in any::<u64>(), query in "[ -~]{0,24}") {
        let mut rng = StdRng::seed_from_u64(seed);
        let catalog = Catalog::generate(&CatalogConfig { titles: 30, ..Default::default() }, &mut rng);
        let mut lib = HostLibrary::new();
        for i in 0..8 {
            lib.add_benign(catalog.item(i), 0);
        }
        let terms = query_terms(&query);
        let expected: Vec<std::sync::Arc<str>> = if terms.is_empty() {
            Vec::new()
        } else {
            lib.files()
                .iter()
                .filter(|f| name_matches(&f.name, &terms))
                .map(|f| f.name.clone())
                .collect()
        };
        let got: Vec<std::sync::Arc<str>> =
            lib.respond(&query, usize::MAX).into_iter().map(|f| f.name).collect();
        prop_assert_eq!(got, expected);
    }

    /// Clean libraries never respond to queries that match nothing, and
    /// every response of a clean library is benign.
    #[test]
    fn clean_library_responses_are_benign(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let catalog = Catalog::generate(&CatalogConfig { titles: 50, ..Default::default() }, &mut rng);
        let mut lib = HostLibrary::new();
        for i in 0..5 {
            lib.add_benign(catalog.item(i), 0);
        }
        prop_assert!(lib.respond("zz qq xx", 16).is_empty());
        let kw = catalog.item(0).keywords[0].clone();
        for r in lib.respond(&kw, 16) {
            prop_assert!(!r.content.is_malicious());
        }
    }
}
