//! Workspace-level integration: the full pipeline's cross-crate contracts.
//!
//! These tests cut across crate boundaries: wire bytes produced by the
//! gnutella/openft codecs feed the crawler, payloads produced by the
//! corpus feed the scanner, and the filter evaluates against what the
//! analysis sees — every interface a downstream user would compose.

use p2pmal::analysis::{size_census, top_malware};
use p2pmal::core::LimewireScenario;
use p2pmal::corpus::{ContentRef, FamilyId};
use p2pmal::filter::{evaluate, LimewireBuiltin, SizeFilter};

#[test]
fn measured_families_exist_in_roster_and_sizes_match() {
    let mut scenario = LimewireScenario::quick(77);
    scenario.days = 1;
    let run = scenario.run();
    let roster = &run.world.roster;

    // Every measured malware name is a real roster family, and every
    // malicious response's advertised size is one of that family's
    // characteristic sizes — advertisement and ground truth agree.
    let mut seen_any = false;
    for r in run.resolved.iter().filter(|r| r.malware.is_some()) {
        seen_any = true;
        let name = r.malware.as_deref().unwrap();
        let fam = roster
            .by_name(name)
            .unwrap_or_else(|| panic!("unknown family {name}"));
        assert!(
            fam.sizes.contains(&u64::from(r.record.size)),
            "{name} advertised size {} not in {:?}",
            r.record.size,
            fam.sizes
        );
    }
    assert!(seen_any, "the quick scenario must observe malware");

    // The size census over the measured log agrees with the roster.
    let census = size_census(&run.resolved);
    for (name, sizes) in &census.malware_sizes {
        let fam = roster.by_name(name).expect("census family in roster");
        for s in sizes {
            assert!(fam.sizes.contains(s));
        }
    }
}

#[test]
fn scanned_content_hashes_match_store() {
    let mut scenario = LimewireScenario::quick(78);
    scenario.days = 1;
    let run = scenario.run();
    let world = &run.world;
    // For malicious responses, the downloaded content's SHA-1 must equal
    // the store's ground-truth hash for that (family, size).
    let mut checked = 0;
    for r in run
        .resolved
        .iter()
        .filter(|r| r.malware.is_some() && r.sha1.is_some())
    {
        let fam = world.roster.by_name(r.malware.as_deref().unwrap()).unwrap();
        let size_idx = fam
            .sizes
            .iter()
            .position(|&s| s == u64::from(r.record.size))
            .expect("size is characteristic") as u8;
        let ground = world.store.sha1_of(
            ContentRef::Malware {
                family: fam.id,
                size_idx,
            },
            &world.catalog,
            &world.roster,
        );
        assert_eq!(r.sha1.unwrap(), ground, "transfer must be byte-faithful");
        checked += 1;
        if checked > 50 {
            break;
        }
    }
    assert!(checked > 0);
    // And the echo worm family actually dominates, as designed.
    let top = top_malware(&run.resolved);
    assert_eq!(top[0].item, world.roster.get(FamilyId(0)).name);
}

#[test]
fn filters_compose_with_measured_logs() {
    let mut scenario = LimewireScenario::quick(79);
    scenario.days = 1;
    let run = scenario.run();
    let size = SizeFilter::learn(&run.resolved, 3, 2);
    let builtin = LimewireBuiltin::new();
    let se = evaluate(&size, &run.resolved);
    let be = evaluate(&builtin, &run.resolved);
    assert!(se.detection_rate() > be.detection_rate());
    assert!(se.tp + se.fn_ > 0, "universe non-empty");
    // The learned blocklist is drawn from roster sizes only.
    for s in size.blocked_sizes() {
        assert!(
            run.world
                .roster
                .families()
                .iter()
                .any(|f| f.sizes.contains(&s)),
            "blocked size {s} must be a malware size"
        );
    }
}
