use super::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};

#[test]
fn hash_is_case_insensitive_and_in_range() {
    for bits in [8u8, 13, 16] {
        for w in ["hello", "HELLO", "HeLLo"] {
            let h = qrp_hash(w, bits);
            assert_eq!(h, qrp_hash("hello", bits));
            assert!(h < (1 << bits));
        }
    }
    assert_ne!(qrp_hash("hello", 16), qrp_hash("world", 16));
}

#[test]
fn keyword_extraction() {
    assert_eq!(
        keywords("crimson_horizon-remix.mp3"),
        vec!["crimson", "horizon", "remix", "mp3"]
    );
    assert_eq!(keywords("a bb ccc"), vec!["ccc"], "short words dropped");
    assert!(keywords("--//--").is_empty());
}

#[test]
fn insert_and_match() {
    let mut t = QrpTable::new(12, 7);
    t.insert_name("crimson_horizon_remix.mp3");
    assert!(t.might_match("crimson horizon"));
    assert!(t.might_match("CRIMSON"));
    assert!(!t.might_match("crimson missingword"));
    assert!(
        t.might_match("zz"),
        "keyword-free queries pass conservatively"
    );
    assert!(t.population() >= 3);
}

fn hashes_of(query: &str) -> Vec<u64> {
    keywords(query).iter().map(|w| qrp_hash_full(w)).collect()
}

#[test]
fn might_match_hashes_agrees_with_might_match() {
    let mut t = QrpTable::new(12, 7);
    t.insert_name("crimson_horizon_remix.mp3");
    for q in [
        "crimson horizon",
        "CRIMSON",
        "crimson missingword",
        "zz",
        "remix mp3",
    ] {
        assert_eq!(
            t.might_match_hashes(&hashes_of(q)),
            t.might_match(q),
            "query {q:?}"
        );
    }
}

#[test]
fn full_hash_derives_sized_hash() {
    for w in ["hello", "WORLD", "a", "crimson_horizon"] {
        for bits in [8u8, 13, 16, 24] {
            assert_eq!(
                (qrp_hash_full(w) >> (64 - bits as u64)) as u32,
                qrp_hash(w, bits)
            );
        }
    }
}

#[test]
fn route_msg_roundtrip() {
    let msgs = [
        RouteMsg::Reset {
            table_len: 65536,
            infinity: 7,
        },
        RouteMsg::Patch {
            seq_no: 1,
            seq_count: 2,
            compressor: Compressor::None,
            entry_bits: 8,
            data: vec![0xFA, 0x00, 0x06],
        },
    ];
    for m in msgs {
        assert_eq!(RouteMsg::parse(&m.encode()).unwrap(), m);
    }
    assert_eq!(RouteMsg::parse(&[]), Err(QrpError::Truncated));
    assert_eq!(RouteMsg::parse(&[0x07]), Err(QrpError::BadVariant(0x07)));
}

/// A leaf table as a servent builds and sends it: these bytes are what
/// every ultrapeer inflates, and the deflate matcher must not move them.
#[test]
fn default_table_patch_bytes_are_pinned() {
    let words = [
        "crimson", "horizon", "silver", "echo", "toolkit", "remix", "serenade", "dynamo", "velvet",
        "thunder",
    ];
    let mut t = QrpTable::default_table();
    for i in 0..150usize {
        t.insert_name(&format!(
            "{}_{}_{}.mp3",
            words[i % 10],
            words[(i / 10) % 10],
            100 + i
        ));
    }
    let msgs = t.to_messages(2048, true);
    let RouteMsg::Patch { data, .. } = &msgs[1] else {
        panic!("expected a patch");
    };
    assert_eq!((t.population(), data.len()), (161, 649));
    assert_eq!(
        p2pmal_hashes::sha1(data).to_hex(),
        "2f3585899fdf36a9b2a9602c1150651c73364fe0"
    );
}

const LEAF: ConnId = ConnId(1);

/// The slots `conn`'s table holds present, read from its keys or its
/// bitset; `None` before its first RESET.
fn slots_of(index: &QrpIndex, conn: ConnId) -> Option<Vec<usize>> {
    let peer = index.peers.iter().find(|p| p.conn == conn)?;
    if peer.log2 == 0 {
        return None;
    }
    match index.dense.iter().find(|(c, _)| *c == peer.column) {
        Some((_, f)) => Some((0..1 << f.log2_size).filter(|&s| f.present(s)).collect()),
        None => Some(
            index
                .keys
                .iter()
                .filter(|&&k| k as u16 == peer.column)
                .map(|&k| key_slot(k))
                .collect(),
        ),
    }
}

/// What the index spends on tables themselves: keys and bitsets.
fn table_bytes(index: &QrpIndex) -> u64 {
    let dense: u64 = index.dense.iter().map(|(_, f)| f.heap_bytes()).sum();
    8 * index.keys.capacity() as u64 + dense
}

fn table_slots(t: &QrpTable) -> Vec<usize> {
    (0..t.len())
        .filter(|&s| t.entries[s] < t.infinity())
        .collect()
}

/// An index holding `t`, sent by leaf [`LEAF`] as `msgs`, each through the
/// wire codec.
fn received(msgs: &[RouteMsg]) -> QrpIndex {
    let mut index = QrpIndex::new();
    index.add_leaf(LEAF);
    for m in msgs {
        let wire = RouteMsg::parse(&m.encode()).unwrap();
        index.apply(LEAF, &wire).unwrap();
    }
    index
}

/// Whether the index sends a query with these keyword hashes to [`LEAF`].
fn passes(index: &mut QrpIndex, hashes: &[u64]) -> bool {
    let mut sent = Vec::new();
    let suppressed = index.route_last_hop(hashes, ConnId(0), |c| sent.push(c));
    assert_eq!(sent.len() as u64 + suppressed, 1);
    sent == [LEAF]
}

#[test]
fn table_transfer_uncompressed_roundtrip() {
    let mut t = QrpTable::new(10, 7);
    t.insert_name("silver echo serenade");
    t.insert_name("turbo dynamo toolkit");
    let index = received(&t.to_messages(256, false));
    assert_eq!(slots_of(&index, LEAF).unwrap(), table_slots(&t));
}

#[test]
fn table_transfer_deflate_roundtrip() {
    let mut t = QrpTable::new(14, 7);
    for name in ["alpha beta gamma", "delta epsilon", "zeta_eta_theta.exe"] {
        t.insert_name(name);
    }
    let msgs = t.to_messages(4096, true);
    assert_eq!(msgs.len(), 2, "reset + one compressed patch");
    let index = received(&msgs);
    assert_eq!(slots_of(&index, LEAF).unwrap(), table_slots(&t));
    // Compression must actually compress a sparse table.
    if let RouteMsg::Patch { data, .. } = &msgs[1] {
        assert!(data.len() < (1 << 14) / 4, "patch bytes {}", data.len());
    } else {
        panic!("expected patch");
    }
}

#[test]
fn patches_accumulate_across_chunks() {
    let mut t = QrpTable::new(10, 7);
    t.insert_name("one two three four five six seven");
    let msgs = t.to_messages(100, false); // many small chunks
    assert!(msgs.len() > 3);
    let index = received(&msgs);
    assert_eq!(slots_of(&index, LEAF).unwrap(), table_slots(&t));
}

#[test]
fn index_verdicts_agree_with_the_table() {
    let mut t = QrpTable::new(12, 7);
    t.insert_name("crimson_horizon_remix.mp3");
    let mut index = received(&t.to_messages(2048, true));
    for q in [
        "crimson horizon",
        "CRIMSON",
        "crimson missingword",
        "zz",
        "remix mp3",
        "",
    ] {
        assert_eq!(passes(&mut index, &hashes_of(q)), t.might_match(q), "{q:?}");
    }
}

#[test]
fn saturated_table_is_all_present_and_delta_clean() {
    let t = QrpTable::saturated(10, 7);
    assert_eq!(t.population(), t.len());
    // Its wire form is the same full-table patch of -(infinity - 1)
    // deltas a receiver-built saturated table produced.
    let msgs = t.to_messages(1 << 10, false);
    let RouteMsg::Patch { data, .. } = &msgs[1] else {
        panic!("expected patch");
    };
    assert!(data.iter().all(|&d| d as i8 == -6));
    let index = received(&msgs);
    assert!(index.peers[0].flags & DENSE != 0);
    assert_eq!(slots_of(&index, LEAF).unwrap().len(), t.len());
}

#[test]
fn index_rejects_protocol_violations() {
    let mut index = QrpIndex::new();
    index.add_leaf(LEAF);
    let patch = |compressor, entry_bits, data| RouteMsg::Patch {
        seq_no: 1,
        seq_count: 1,
        compressor,
        entry_bits,
        data,
    };
    let plain = patch(Compressor::None, 8, vec![0; 16]);
    assert_eq!(index.apply(LEAF, &plain), Err(QrpError::PatchBeforeReset));
    // An ultrapeer that never reset, likewise.
    assert_eq!(
        index.apply(ConnId(2), &plain),
        Err(QrpError::PatchBeforeReset)
    );
    for table_len in [1000, 128, 1 << 25, 0] {
        let reset = RouteMsg::Reset {
            table_len,
            infinity: 7,
        };
        assert_eq!(
            index.apply(LEAF, &reset),
            Err(QrpError::BadTableLen(table_len))
        );
    }
    index
        .apply(
            LEAF,
            &RouteMsg::Reset {
                table_len: 256,
                infinity: 7,
            },
        )
        .unwrap();
    let overrun = patch(Compressor::None, 8, vec![0; 257]);
    assert_eq!(index.apply(LEAF, &overrun), Err(QrpError::PatchOverrun));
    let bad_bits = patch(Compressor::None, 4, vec![0; 8]);
    assert_eq!(
        index.apply(LEAF, &bad_bits),
        Err(QrpError::UnsupportedEntryBits(4))
    );
    let garbage = patch(Compressor::Deflate, 8, vec![0xFF; 8]);
    assert_eq!(index.apply(LEAF, &garbage), Err(QrpError::BadCompression));
}

/// A table of `2^log2` slots with `present` slots set, as the index holds
/// it: keys while they take no more bytes than the bitset, the bitset from
/// one slot beyond. Either way it costs at most the bitset; beside the
/// tables the index holds only its peer list, column bits and directory.
#[test]
fn a_table_never_costs_more_than_its_bitset() {
    for log2 in [8u8, 12, 16] {
        let limit = sparse_limit(log2);
        let bitset = (1u64 << log2) / 8;
        for present in [0, 1, limit - 1, limit, limit + 1, 2 * limit, 1 << log2] {
            let mut t = QrpTable::new(log2, 7);
            t.entries[..present].fill(1);
            let msgs = t.to_messages(1 << log2, false);
            let mut index = QrpIndex::new();
            index.add_leaf(LEAF);
            for m in &msgs {
                index.apply(LEAF, m).unwrap();
            }
            let table = table_bytes(&index);
            let sparse = present <= limit && present > 0;
            let dir = 4 * (1u64 << log2.min(DIR_BITS)) * sparse as u64;
            let book = index.heap_bytes() - table - dir;
            assert!(
                book <= 256,
                "2^{log2}, {present} present: {book} bytes beside"
            );
            assert!(
                table <= bitset,
                "2^{log2}, {present} present: {table} bytes"
            );
            let expect = if present <= limit {
                8 * present as u64
            } else {
                bitset
            };
            assert_eq!(table, expect, "2^{log2}, {present} present");
            assert_eq!(slots_of(&index, LEAF).unwrap(), table_slots(&t));
        }
    }
}

/// Columns are 16 bits: with more leaves than a byte can number, each
/// still passes exactly the queries for its own keyword, and a leaf that
/// left takes only its own keys.
#[test]
fn three_hundred_leaves_keep_their_own_columns() {
    let mut index = QrpIndex::new();
    let word = |i: u64| format!("word{i}");
    for i in 0..300u64 {
        let conn = ConnId(10 + i);
        index.add_leaf(conn);
        let mut t = QrpTable::new(14, 7);
        t.insert_name(&word(i));
        for m in t.to_messages(1 << 14, true) {
            index.apply(conn, &m).unwrap();
        }
    }
    index.remove(ConnId(10 + 7));
    for i in [0u64, 7, 255, 256, 299] {
        let mut sent = Vec::new();
        let suppressed = index.route_last_hop(&hashes_of(&word(i)), ConnId(0), |c| sent.push(c));
        let own: Vec<ConnId> = (0..300)
            .filter(|&j| j != 7 && qrp_hash(&word(j), 14) == qrp_hash(&word(i), 14))
            .map(|j| ConnId(10 + j))
            .collect();
        assert_eq!(sent, own, "word {i}");
        assert_eq!(suppressed, 299 - own.len() as u64);
    }
}

/// The index allocates nothing until it holds a peer; a leaf's RESET and
/// departure give back every key.
#[test]
fn keys_leave_with_their_table() {
    let mut index = QrpIndex::new();
    assert_eq!(index.heap_bytes(), 0);
    let mut t = QrpTable::new(12, 7);
    t.insert_name("crimson horizon remix silver echo");
    for conn in [LEAF, ConnId(2)] {
        index.add_leaf(conn);
        for m in t.to_messages(4096, true) {
            index.apply(conn, &m).unwrap();
        }
    }
    assert_eq!(index.keys.len(), 2 * t.population());
    index
        .apply(
            LEAF,
            &RouteMsg::Reset {
                table_len: 1 << 12,
                infinity: 7,
            },
        )
        .unwrap();
    assert_eq!(index.keys.len(), t.population());
    assert_eq!(slots_of(&index, LEAF).unwrap(), Vec::<usize>::new());
    index.remove(ConnId(2));
    assert!(index.keys.is_empty());
    assert_eq!(index.keys.capacity(), 0);
    index.remove(LEAF);
    assert!(index.columns.is_empty());
    assert_eq!(index.dir.capacity(), 0);
    assert_eq!(index.leaves().count(), 0);
}

// ---------------------------------------------------------------------------
// The per-leaf receiver the index replaced: one bitset per peer, tested
// leaf by leaf. Kept as the index's oracle.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct ReferenceFilter {
    log2_size: u8,
    bits: Vec<u64>,
}

impl ReferenceFilter {
    fn new(log2_size: u8) -> Self {
        ReferenceFilter {
            log2_size,
            bits: vec![0u64; (1usize << log2_size) / 64],
        }
    }

    fn len(&self) -> usize {
        1usize << self.log2_size
    }

    fn set(&mut self, slot: usize, present: bool) {
        let (w, b) = (slot / 64, slot % 64);
        if present {
            self.bits[w] |= 1u64 << b;
        } else {
            self.bits[w] &= !(1u64 << b);
        }
    }

    fn present(&self, slot: usize) -> bool {
        self.bits[slot / 64] >> (slot % 64) & 1 != 0
    }

    fn might_match_hashes(&self, hashes: &[u64]) -> bool {
        hashes
            .iter()
            .all(|&h| self.present((h >> (64 - self.log2_size as u64)) as usize))
    }
}

#[derive(Debug, Clone, Default)]
struct ReferenceReceiver {
    filter: Option<ReferenceFilter>,
    next_offset: usize,
}

impl ReferenceReceiver {
    fn apply(&mut self, msg: &RouteMsg) -> Result<(), QrpError> {
        match msg {
            RouteMsg::Reset { table_len, .. } => {
                let log2 = (*table_len as f64).log2();
                if log2.fract() != 0.0 || !(8.0..=24.0).contains(&log2) {
                    return Err(QrpError::BadTableLen(*table_len));
                }
                self.filter = Some(ReferenceFilter::new(log2 as u8));
                self.next_offset = 0;
            }
            RouteMsg::Patch {
                compressor,
                entry_bits,
                data,
                ..
            } => {
                let filter = self.filter.as_mut().ok_or(QrpError::PatchBeforeReset)?;
                if *entry_bits != 8 {
                    return Err(QrpError::UnsupportedEntryBits(*entry_bits));
                }
                let raw = match compressor {
                    Compressor::None => data.clone(),
                    Compressor::Deflate => {
                        inflate(data, filter.len() + 1024).map_err(|_| QrpError::BadCompression)?
                    }
                };
                if self.next_offset + raw.len() > filter.len() {
                    return Err(QrpError::PatchOverrun);
                }
                for (i, &d) in raw.iter().enumerate() {
                    filter.set(self.next_offset + i, (d as i8) < 0);
                }
                self.next_offset += raw.len();
            }
        }
        Ok(())
    }
}

/// Every peer of one servent, each with its own receiver, as the servent
/// kept them: `(is a leaf, receiver)` by connection.
type Reference = BTreeMap<ConnId, (bool, ReferenceReceiver)>;

/// The last hop as the servent routed it before the index: gather the
/// leaves but `except`, test each one's filter.
fn reference_route(peers: &Reference, hashes: &[u64], except: ConnId) -> (Vec<ConnId>, u64) {
    let leaves: Vec<(ConnId, Option<&ReferenceFilter>)> = peers
        .iter()
        .filter(|(&c, (leaf, _))| *leaf && c != except)
        .map(|(&c, (_, rx))| (c, rx.filter.as_ref()))
        .collect();
    let connected = leaves.len();
    let sent: Vec<ConnId> = leaves
        .into_iter()
        .filter(|(_, f)| f.is_none_or(|f| f.might_match_hashes(hashes)))
        .map(|(c, _)| c)
        .collect();
    let suppressed = (connected - sent.len()) as u64;
    (sent, suppressed)
}

/// A random table as RESET + PATCH messages: 2^8 to 2^16 slots, mostly
/// small; a few present slots, about the sparse limit, up to twice it, or
/// every slot; some entries above infinity (absent); chunked or
/// compressed.
fn random_table(rng: &mut StdRng) -> Vec<RouteMsg> {
    let log2 = if rng.gen_bool(0.85) {
        rng.gen_range(8..=11)
    } else {
        rng.gen_range(12..=16)
    };
    let len = 1usize << log2;
    let limit = sparse_limit(log2);
    let mut t = QrpTable::new(log2, 7);
    match rng.gen_range(0..5) {
        0 => t = QrpTable::saturated(log2, 7),
        n => {
            let present = match n {
                1 => rng.gen_range(0..=limit / 4),
                2 => rng.gen_range(limit - 3..=limit + 3),
                _ => rng.gen_range(0..=2 * limit),
            };
            for _ in 0..present {
                let slot = rng.gen_range(0..len);
                t.entries[slot] = rng.gen_range(0..7);
            }
            for _ in 0..rng.gen_range(0..4) {
                let slot = rng.gen_range(0..len);
                t.entries[slot] = rng.gen_range(8..=120);
            }
        }
    }
    let chunk = if rng.gen_bool(0.5) {
        rng.gen_range(1..=64)
    } else {
        rng.gen_range(1..=len)
    };
    t.to_messages(chunk, rng.gen_bool(0.3))
}

/// A message no well-behaved leaf sends: a RESET of a bad size, a PATCH
/// of arbitrary deltas (perhaps overrunning), of the wrong entry width, or
/// of garbage claiming compression.
fn odd_message(rng: &mut StdRng) -> RouteMsg {
    let mut data = vec![0u8; rng.gen_range(0..600)];
    rng.fill(&mut data[..]);
    match rng.gen_range(0..4) {
        0 => RouteMsg::Reset {
            table_len: [100u32, 1 << 7, 1 << 25, 3 << 9][rng.gen_range(0..4usize)],
            infinity: 7,
        },
        n => RouteMsg::Patch {
            seq_no: 1,
            seq_count: 1,
            compressor: if n == 3 {
                Compressor::Deflate
            } else {
                Compressor::None
            },
            entry_bits: if n == 2 { 4 } else { 8 },
            data,
        },
    }
}

/// Keyword hashes for a lookup: none, arbitrary ones, and ones whose top
/// bits name a slot some table holds (so queries pass as well as fail,
/// across table sizes).
fn random_hashes(rng: &mut StdRng, peers: &Reference) -> Vec<u64> {
    let filters: Vec<&ReferenceFilter> = peers
        .values()
        .filter_map(|(_, rx)| rx.filter.as_ref())
        .collect();
    (0..rng.gen_range(0..=3))
        .map(|_| {
            let h: u64 = rng.gen();
            if filters.is_empty() || rng.gen_bool(0.3) {
                return h;
            }
            let f = filters[rng.gen_range(0..filters.len())];
            let present: Vec<usize> = (0..f.len()).filter(|&s| f.present(s)).collect();
            match present.len() {
                0 => h,
                n => {
                    let slot = present[rng.gen_range(0..n)] as u64;
                    slot << (64 - f.log2_size as u64) | h >> f.log2_size
                }
            }
        })
        .collect()
}

/// Keys and bitsets never outgrow the bitsets of the tables they hold.
fn assert_within_bitsets(index: &QrpIndex) {
    let bitsets: u64 = index
        .peers
        .iter()
        .filter(|p| p.log2 != 0)
        .map(|p| (1u64 << p.log2) / 8)
        .sum();
    let held = table_bytes(index);
    assert!(index.dir.capacity() <= 1 << DIR_BITS);
    assert!(
        held <= bitsets,
        "{held} bytes held for {bitsets} of bitsets"
    );
}

/// Runs one random script against the index and the per-leaf receivers
/// side by side: leaves and ultrapeers join and leave, tables of mixed
/// sizes arrive chunked or compressed and interleaved, a RESET may cut a
/// table short, odd messages arrive at any time, and every lookup, every
/// `apply` result and every suppressed count must agree.
fn run_script(seed: u64, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut index = QrpIndex::new();
    let mut reference = Reference::new();
    let mut pending: BTreeMap<ConnId, VecDeque<RouteMsg>> = BTreeMap::new();
    let mut next = 1u64;
    let mut lookups = 0;
    for step in 0..steps {
        let live: Vec<ConnId> = reference.keys().copied().collect();
        let pick = |rng: &mut StdRng| live[rng.gen_range(0..live.len())];
        match rng.gen_range(0..100) {
            0..=11 => {
                let conn = ConnId(next);
                next += rng.gen_range(1..4u64);
                let leaf = rng.gen_bool(0.8);
                if leaf {
                    index.add_leaf(conn);
                }
                reference.insert(conn, (leaf, ReferenceReceiver::default()));
            }
            12..=16 if !live.is_empty() => {
                let conn = pick(&mut rng);
                index.remove(conn);
                reference.remove(&conn);
                pending.remove(&conn);
            }
            17..=26 if !live.is_empty() => {
                let conn = pick(&mut rng);
                pending.insert(conn, random_table(&mut rng).into());
            }
            27..=31 if !live.is_empty() => {
                let conn = pick(&mut rng);
                pending
                    .entry(conn)
                    .or_default()
                    .push_front(odd_message(&mut rng));
            }
            32..=69 if !pending.is_empty() => {
                let ready: Vec<ConnId> = pending.keys().copied().collect();
                let conn = ready[rng.gen_range(0..ready.len())];
                let queue = pending.get_mut(&conn).unwrap();
                let msg = queue.pop_front().unwrap();
                if queue.is_empty() {
                    pending.remove(&conn);
                }
                let msg = RouteMsg::parse(&msg.encode()).unwrap();
                let expect = reference.get_mut(&conn).unwrap().1.apply(&msg);
                assert_eq!(index.apply(conn, &msg), expect, "seed {seed} step {step}");
                assert_within_bitsets(&index);
            }
            _ => {
                let hashes = random_hashes(&mut rng, &reference);
                let except = match live.len() {
                    0 => ConnId(0),
                    _ if rng.gen_bool(0.3) => ConnId(0),
                    _ => pick(&mut rng),
                };
                let mut sent = Vec::new();
                let suppressed = index.route_last_hop(&hashes, except, |c| sent.push(c));
                let expect = reference_route(&reference, &hashes, except);
                assert_eq!(
                    (sent, suppressed),
                    expect,
                    "seed {seed} step {step} hashes {hashes:x?}"
                );
                lookups += 1;
            }
        }
        let leaves: Vec<ConnId> = reference
            .iter()
            .filter(|(_, (leaf, _))| *leaf)
            .map(|(&c, _)| c)
            .collect();
        assert!(index.leaves().eq(leaves), "seed {seed} step {step}");
    }
    assert!(lookups > 0);
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

    #[test]
    fn prop_index_agrees_with_per_leaf_receivers(seed in proptest::prelude::any::<u64>()) {
        run_script(seed, 200);
    }
}

proptest::proptest! {
    /// Random tables, chunkings and compression modes: the index holds
    /// exactly the table's present slots.
    #[test]
    fn prop_index_holds_the_table(
        names in proptest::collection::vec("[a-zA-Z0-9_ .]{0,24}", 0..24),
        log2 in 8u8..13,
        chunk in 1usize..600,
        compress in proptest::prelude::any::<bool>(),
    ) {
        let mut t = QrpTable::new(log2, 7);
        for n in &names {
            t.insert_name(n);
        }
        let index = received(&t.to_messages(chunk, compress));
        proptest::prop_assert_eq!(slots_of(&index, LEAF).unwrap(), table_slots(&t));
    }
}
