//! Perf: QRP hashing, table matching, and table transfer (RESET/PATCH with
//! DEFLATE compression) — the per-query cost at every ultrapeer.

use criterion::{criterion_group, criterion_main, Criterion};
use p2pmal_gnutella::qrp::{qrp_hash, QrpIndex, QrpTable};
use p2pmal_netsim::ConnId;
use std::hint::black_box;

fn populated_table() -> QrpTable {
    let mut t = QrpTable::default_table();
    for i in 0..200 {
        t.insert_name(&format!("some_shared_file_number_{i}_final.mp3"));
    }
    t
}

fn bench_qrp(c: &mut Criterion) {
    c.bench_function("qrp_hash_word", |b| {
        b.iter(|| black_box(qrp_hash(black_box("horizon"), 16)));
    });

    let table = populated_table();
    c.bench_function("qrp_might_match_3_terms", |b| {
        b.iter(|| black_box(table.might_match(black_box("some shared file"))));
    });

    c.bench_function("qrp_table_transfer_compressed", |b| {
        b.iter(|| {
            let msgs = table.to_messages(4096, true);
            let mut index = QrpIndex::new();
            index.add_leaf(ConnId(1));
            for m in &msgs {
                index.apply(ConnId(1), m).unwrap();
            }
            black_box(index.heap_bytes())
        });
    });
}

criterion_group!(benches, bench_qrp);
criterion_main!(benches);
