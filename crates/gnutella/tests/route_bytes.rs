//! ROUTE_TABLE_UPDATE bytes from a hostile peer: whatever arrives, in any
//! order, through `RouteMsg::parse` into `QrpIndex::apply`, nothing panics,
//! a PATCH allocates no more than its table length plus 1024 bytes to
//! inflate, and what the index keeps never outgrows the tables' bitsets. A
//! counting allocator measures both; its counters are per thread, so
//! concurrent tests do not disturb each other.

use p2pmal_gnutella::qrp::{QrpIndex, RouteMsg};
use p2pmal_netsim::ConnId;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            track(layout.size() as isize);
        }
        p
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            track(layout.size() as isize);
        }
        p
    }
    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        track(-(layout.size() as isize));
    }
    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new);
        if !q.is_null() {
            track(new as isize - layout.size() as isize);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The most `f` had allocated at once on this thread, beyond what was live
/// when it started.
fn peak_of<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let r = f();
    (r, (PEAK.with(Cell::get) - base) as usize)
}

/// The peer list, column bits, the 4 KiB slot directory and decoding
/// tables: what the index may allocate beside a table's inflate buffer,
/// keys and bitset.
const OVERHEAD: usize = 8192;

/// A fixed-Huffman DEFLATE stream of `n` length-258, distance-1 matches
/// behind one literal: `258 n + 1` bytes out of about `n` in.
fn bomb(n: usize, literal: u8) -> Vec<u8> {
    let mut bits: Vec<bool> = vec![true, true, false];
    let mut code = |c: u32, len: u32| (0..len).rev().for_each(|i| bits.push(c >> i & 1 == 1));
    let (lit, len) = if literal < 144 {
        (0x30 + literal as u32, 8)
    } else {
        (0x190 + literal as u32 - 144, 9)
    };
    code(lit, len);
    for _ in 0..n {
        code(0xC5, 8);
        code(0, 5);
    }
    code(0, 7);
    let mut out = vec![0u8; bits.len().div_ceil(8)];
    for (i, b) in bits.iter().enumerate() {
        out[i / 8] |= (*b as u8) << (i % 8);
    }
    out
}

/// One ROUTE payload: arbitrary bytes, or a RESET / PATCH with arbitrary
/// fields (a power-of-two `table_len` half the time; a PATCH body of
/// arbitrary bytes or a ratio bomb of negative deltas), perhaps with one
/// bit flipped.
fn payload(kind: u8, word: u32, bytes: &[u8], flip: u16) -> Vec<u8> {
    let mut wire = match kind % 4 {
        0 => bytes.to_vec(),
        1 => {
            let table_len = if word & 1 == 0 {
                1u32 << ((word >> 1) % 32)
            } else {
                word
            };
            let mut w = vec![0x00];
            w.extend_from_slice(&table_len.to_le_bytes());
            w.push(bytes.first().copied().unwrap_or(7));
            w
        }
        k => {
            let compressor = [0x00, 0x01, word as u8][(word >> 8) as usize % 3];
            let entry_bits = if word & 0x10 == 0 { 8 } else { word as u8 };
            let body = if k == 3 {
                // 258 n + 1 bytes of 0xFA: every slot present.
                bomb((word >> 12) as usize % 70_000, 0xFA)
            } else {
                bytes.to_vec()
            };
            let mut w = vec![0x01, 1, 1, compressor, entry_bits];
            w.extend_from_slice(&body);
            w
        }
    };
    if flip & 1 == 1 && !wire.is_empty() {
        let bit = flip as usize >> 1;
        let at = bit / 8 % wire.len();
        wire[at] ^= 1 << (bit % 8);
    }
    wire
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn arbitrary_route_bytes_never_panic_nor_overallocate(
        script in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), proptest::collection::vec(any::<u8>(), 0..400), any::<u16>(), 0u64..4),
            1..24,
        ),
    ) {
        let mut index = QrpIndex::new();
        // Conns 1 and 2 are leaves, 3 an ultrapeer that never registered.
        index.add_leaf(ConnId(1));
        index.add_leaf(ConnId(2));
        let mut sizes: BTreeMap<u64, usize> = BTreeMap::new();
        for (kind, word, bytes, flip, conn) in script {
            let conn = conn.max(1);
            let wire = payload(kind, word, &bytes, flip);
            let Ok(msg) = RouteMsg::parse(&wire) else {
                continue;
            };
            let (result, peak) = peak_of(|| index.apply(ConnId(conn), &msg));
            if let (Ok(()), RouteMsg::Reset { table_len, .. }) = (&result, &msg) {
                sizes.insert(conn, *table_len as usize);
            }
            let table = sizes.get(&conn).copied().unwrap_or(0);
            let inflate = if matches!(msg, RouteMsg::Patch { .. }) { table + 1024 } else { 0 };
            prop_assert!(
                peak <= inflate + table / 8 + OVERHEAD,
                "{peak} bytes allocated applying {} bytes to a {table}-slot table ({result:?})",
                wire.len()
            );
            let bitsets: usize = sizes.values().map(|t| t / 8).sum();
            prop_assert!(index.heap_bytes() as usize <= bitsets + OVERHEAD);
        }
        // Whatever it holds, a lookup over it is fine too.
        let mut sent = 0;
        index.route_last_hop(&[0x1234_5678_9ABC_DEF0, 7], ConnId(0), |_| sent += 1);
        prop_assert!(sent <= 2);
    }
}
