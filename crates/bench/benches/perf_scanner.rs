//! Perf: signature scanning — Aho–Corasick multi-pattern matching vs the
//! naive per-signature scan it replaces (the ablation DESIGN.md calls
//! out), archive traversal cost, the first-byte prefilter, and the
//! content-addressed verdict cache on a repeated-payload workload.
//!
//! `P2PMAL_PERF_SMOKE=1` cuts sample counts for the CI smoke run; the
//! numbers it prints are not publication-grade.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use p2pmal_corpus::Roster;
use p2pmal_crawler::{HostKey, ResponseRecord, ScanPipeline, ScanService};
use p2pmal_netsim::SimTime;
use p2pmal_scanner::{AhoCorasick, ScanConfig, Scanner, Signature};
use std::hint::black_box;
use std::sync::Arc;

/// Sample count: 10 normally, 2 under `P2PMAL_PERF_SMOKE=1` (CI smoke).
fn samples() -> usize {
    if std::env::var("P2PMAL_PERF_SMOKE").is_ok() {
        2
    } else {
        10
    }
}

fn clean_sample(len: usize) -> Vec<u8> {
    // Deterministic pseudo-random bytes: no signature present.
    let mut v = Vec::with_capacity(len);
    let mut x = 0x12345678u64;
    while v.len() < len {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        v.extend_from_slice(&x.to_le_bytes());
    }
    v.truncate(len);
    v
}

fn bench_scan(c: &mut Criterion) {
    let roster = Roster::limewire_2006();
    let scanner = Scanner::with_config(
        roster.signature_db().unwrap().build().unwrap(),
        ScanConfig::default(),
    );
    let sample = clean_sample(1 << 20);

    let mut g = c.benchmark_group("scanner");
    g.sample_size(samples());
    g.throughput(Throughput::Bytes(sample.len() as u64));
    g.bench_function("aho_corasick_1MiB_clean", |b| {
        b.iter(|| black_box(scanner.scan("sample.exe", black_box(&sample))));
    });

    // Naive comparison: scan with each signature independently.
    let sigs: Vec<Signature> = roster
        .families()
        .iter()
        .map(|f| Signature::parse(&f.name, &f.signature_hex()).unwrap())
        .collect();
    g.bench_function("naive_multi_pattern_1MiB_clean", |b| {
        b.iter(|| {
            let mut hits = 0;
            for s in &sigs {
                if s.matches(black_box(&sample)) {
                    hits += 1;
                }
            }
            black_box(hits)
        });
    });

    // Infected content with archive traversal (zip family).
    let store = p2pmal_corpus::ContentStore::new(7);
    let catalog = {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        p2pmal_corpus::Catalog::generate(
            &p2pmal_corpus::catalog::CatalogConfig {
                titles: 10,
                ..Default::default()
            },
            &mut rng,
        )
    };
    let zip_family = roster
        .families()
        .iter()
        .find(|f| f.name == "W32.Bagle.DL")
        .unwrap();
    let payload = store.payload(
        p2pmal_corpus::ContentRef::Malware {
            family: zip_family.id,
            size_idx: 0,
        },
        &catalog,
        &roster,
    );
    g.throughput(Throughput::Bytes(payload.len() as u64));
    g.bench_function("scan_infected_zip_with_traversal", |b| {
        b.iter(|| black_box(scanner.scan("pack.zip", black_box(&payload))));
    });
    g.finish();
}

fn bench_automaton_build(c: &mut Criterion) {
    let patterns: Vec<Vec<u8>> = (0..512u32)
        .map(|i| p2pmal_hashes::sha1(&i.to_le_bytes()).0[..16].to_vec())
        .collect();
    c.bench_function("aho_corasick_build_512_patterns", |b| {
        b.iter(|| black_box(AhoCorasick::new(black_box(patterns.clone()))));
    });
}

/// The first-byte prefilter: the roster's anchor automaton over a clean
/// megabyte, where the root skip loop does nearly all the work.
fn bench_prefilter(c: &mut Criterion) {
    let roster = Roster::limewire_2006();
    let anchors: Vec<Vec<u8>> = roster
        .families()
        .iter()
        .map(|f| {
            Signature::parse(&f.name, &f.signature_hex()).unwrap().parts[0]
                .anchor
                .clone()
        })
        .collect();
    let ac = AhoCorasick::new(anchors);
    let sample = clean_sample(1 << 20);

    let mut g = c.benchmark_group("prefilter");
    g.sample_size(samples());
    g.throughput(Throughput::Bytes(sample.len() as u64));
    g.bench_function("find_each_1MiB_clean", |b| {
        b.iter(|| {
            let mut n = 0u32;
            ac.find_each(black_box(&sample), |_| {
                n += 1;
                true
            });
            black_box(n)
        });
    });
    g.finish();
}

/// The verdict cache on a crawler-shaped workload: many downloads of few
/// distinct payloads (the study's reality — malware shares one body across
/// thousands of responses). Cached steady-state pays SHA-1 plus a map
/// lookup; uncached pays SHA-1 plus the full scan every time.
fn bench_verdict_cache(c: &mut Criterion) {
    let roster = Roster::limewire_2006();
    let store = p2pmal_corpus::ContentStore::new(7);
    let catalog = {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        p2pmal_corpus::Catalog::generate(
            &p2pmal_corpus::catalog::CatalogConfig {
                titles: 10,
                ..Default::default()
            },
            &mut rng,
        )
    };
    // Distinct bodies across the malware families (zip and exe echoes);
    // each body then repeats, as responses do in the crawl.
    let mut bodies: Vec<Vec<u8>> = Vec::new();
    for f in roster.families() {
        bodies.push(store.payload(
            p2pmal_corpus::ContentRef::Malware {
                family: f.id,
                size_idx: 0,
            },
            &catalog,
            &roster,
        ));
    }
    // Plus the study's padded-installer shape: executables zero-padded to
    // match popular file sizes, shipped deflated. The pad compresses to
    // almost nothing, so the downloaded body is small but the scanner must
    // inflate and scan megabytes — the case where re-scanning duplicates
    // hurts most.
    for pad_key in [11u64, 12] {
        let mut inner = vec![0u8; 8 << 20];
        let head = 24 * 1024;
        let mut x = pad_key;
        for b in inner[..head].iter_mut() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *b = (x >> 56) as u8;
        }
        inner[0] = b'M';
        inner[1] = b'Z';
        let mut w = p2pmal_archive::ZipWriter::new();
        w.add("setup.exe", &inner, p2pmal_archive::Method::Deflate);
        bodies.push(w.finish());
    }
    const REPEATS: usize = 8;
    let total_bytes: u64 = bodies.iter().map(|b| b.len() as u64).sum::<u64>() * REPEATS as u64;
    let make_scanner = || {
        Arc::new(Scanner::with_config(
            roster.signature_db().unwrap().build().unwrap(),
            ScanConfig::default(),
        ))
    };

    let mut g = c.benchmark_group("verdict_cache");
    g.sample_size(samples());
    g.throughput(Throughput::Bytes(total_bytes));
    let mut cached = ScanPipeline::new(make_scanner(), 4096);
    g.bench_function("repeated_payloads_cached", |b| {
        b.iter(|| {
            for _ in 0..REPEATS {
                for body in &bodies {
                    black_box(cached.scan("sample.zip", black_box(body)));
                }
            }
        });
    });
    let mut uncached = ScanPipeline::new(make_scanner(), 0);
    g.bench_function("repeated_payloads_uncached", |b| {
        b.iter(|| {
            for _ in 0..REPEATS {
                for body in &bodies {
                    black_box(uncached.scan("sample.zip", black_box(body)));
                }
            }
        });
    });
    g.finish();
    let s = cached.stats();
    println!(
        "verdict_cache: {} distinct bodies x {REPEATS} repeats/iter, steady-state hit rate {:.1}%",
        bodies.len(),
        s.hit_rate_pct(),
    );
}

/// The batched scan service against the inline sequential path, over
/// distinct clean megabyte bodies with the verdict cache disabled — every
/// body pays SHA-1 plus a full engine pass, the workload the service
/// parallelizes. `batched_1_thread` goes through the same submit/flush
/// machinery on the inline pool, isolating the batching overhead itself.
fn bench_scan_service(c: &mut Criterion) {
    let roster = Roster::limewire_2006();
    let make_scanner = || {
        Arc::new(Scanner::with_config(
            roster.signature_db().unwrap().build().unwrap(),
            ScanConfig::default(),
        ))
    };
    const BODIES: usize = 16;
    let bodies: Vec<Vec<u8>> = (0..BODIES)
        .map(|i| {
            let mut b = clean_sample(1 << 20);
            b[..8].copy_from_slice(&(i as u64).to_le_bytes());
            b
        })
        .collect();
    let record = |i: usize| ResponseRecord {
        at: SimTime::ZERO,
        day: 0,
        query: "q".into(),
        filename: format!("f{i}.exe").into(),
        size: 0,
        source_ip: std::net::Ipv4Addr::new(10, 0, 0, 1),
        source_port: 6346,
        needs_push: false,
        host: HostKey::Addr(std::net::Ipv4Addr::new(10, 0, 0, 1), 6346),
        downloadable: true,
    };
    let total_bytes: u64 = bodies.iter().map(|b| b.len() as u64).sum();

    let mut g = c.benchmark_group("scan_service");
    g.sample_size(samples());
    g.throughput(Throughput::Bytes(total_bytes));
    let mut inline = ScanPipeline::new(make_scanner(), 0);
    g.bench_function("sequential_inline", |b| {
        b.iter(|| {
            for (i, body) in bodies.iter().enumerate() {
                black_box(inline.scan(&format!("f{i}.exe"), black_box(body)));
            }
        });
    });
    for threads in [1usize, 4] {
        let mut pipeline = ScanPipeline::new(make_scanner(), 0);
        let mut service = ScanService::new(threads);
        let name = format!("batched_{threads}_thread");
        g.bench_function(name.as_str(), |b| {
            // Setup clones the bodies outside the timed section: the crawler
            // hands the service each downloaded body by value, so the copy
            // is a bench artifact, not part of the measured path.
            b.iter_batched(
                || bodies.clone(),
                |bs| {
                    for (i, body) in bs.into_iter().enumerate() {
                        service.submit(record(i), body);
                    }
                    black_box(service.flush(&mut pipeline).outcomes.len())
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_scan,
    bench_automaton_build,
    bench_prefilter,
    bench_verdict_cache,
    bench_scan_service
);
criterion_main!(benches);
