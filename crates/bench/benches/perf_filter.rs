//! Perf: per-response filter decision cost — the size filter must be cheap
//! enough to run on every query hit a servent displays.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use p2pmal_crawler::log::{HostKey, ResponseRecord};
use p2pmal_crawler::ResolvedResponse;
use p2pmal_filter::{EchoHeuristicFilter, LimewireBuiltin, ResponseFilter, SizeFilter};
use p2pmal_netsim::SimTime;
use std::hint::black_box;
use std::net::Ipv4Addr;

fn responses(n: usize) -> Vec<ResolvedResponse> {
    (0..n)
        .map(|i| ResolvedResponse {
            record: ResponseRecord {
                at: SimTime::ZERO,
                day: 0,
                query: format!("query number {i}").into(),
                filename: format!("query_number_{i}.exe").into(),
                size: 50_000 + (i as u64 % 64) * 1024,
                source_ip: Ipv4Addr::new(10, 0, 0, 1),
                source_port: 6346,
                needs_push: false,
                host: HostKey::Guid([i as u8; 16]),
                downloadable: true,
            },
            malware: None,
            scanned: true,
            sha1: None,
        })
        .collect()
}

fn bench_filters(c: &mut Criterion) {
    let rs = responses(10_000);
    let size = SizeFilter::from_sizes([58_368u64, 92_672, 178_176, 180_224]);
    let size_tol =
        SizeFilter::from_sizes([58_368u64, 92_672, 178_176, 180_224]).with_tolerance(1024);
    let builtin = LimewireBuiltin::new();
    let echo = EchoHeuristicFilter::new();

    let mut g = c.benchmark_group("filter_10k_responses");
    g.throughput(Throughput::Elements(rs.len() as u64));
    for (name, f) in [
        ("size_exact", &size as &dyn ResponseFilter),
        ("size_tolerant", &size_tol),
        ("limewire_builtin", &builtin),
        ("echo_heuristic", &echo),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut blocked = 0u64;
                for r in &rs {
                    if f.blocks(black_box(r)) {
                        blocked += 1;
                    }
                }
                black_box(blocked)
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_filters);
criterion_main!(benches);
