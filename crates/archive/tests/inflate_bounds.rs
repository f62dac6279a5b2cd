//! `inflate` on its own, fed arbitrary bytes and ratio bombs: it never
//! panics, never returns more than its ceiling, and never allocates more
//! than the ceiling plus its Huffman tables. A counting allocator measures
//! the last part; its counters are per thread, so concurrent tests do not
//! disturb each other.

use p2pmal_archive::deflate::{deflate, deflate_stored};
use p2pmal_archive::inflate::{inflate, inflate_into, InflateError};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// Decoding tables and code lengths: what inflate may hold beside its
/// output.
const TABLES: usize = 4096;

fn check(data: &[u8], max_out: usize) {
    let (result, peak) = peak_of(|| inflate(data, max_out));
    if let Ok(out) = &result {
        assert!(out.len() <= max_out);
    }
    assert!(
        peak <= max_out + TABLES,
        "{peak} bytes allocated under a {max_out}-byte ceiling ({result:?})"
    );
}

/// A fixed-Huffman block of `n` length-258, distance-1 matches behind one
/// literal: `258 n + 1` bytes out of about `n` bytes in.
fn bomb(n: usize) -> Vec<u8> {
    let mut bits: Vec<bool> = vec![true, true, false]; // BFINAL, BTYPE=01
    let mut code = |c: u32, len: u32| (0..len).rev().for_each(|i| bits.push(c >> i & 1 == 1));
    code(0x30, 8); // literal 0x00
    for _ in 0..n {
        code(0xC5, 8); // length symbol 285 = 258
        code(0, 5); // distance symbol 0 = 1
    }
    code(0, 7); // end of block
    let mut out = vec![0u8; bits.len().div_ceil(8)];
    for (i, b) in bits.iter().enumerate() {
        out[i / 8] |= (*b as u8) << (i % 8);
    }
    out
}

#[test]
fn ratio_bombs_stop_at_the_ceiling() {
    let bomb = bomb(4_000);
    assert_eq!(inflate(&bomb, 1 << 21).unwrap().len(), 258 * 4_000 + 1);
    for max_out in [0, 1, 1000, 65_537, 100_000, 1_000_000] {
        let (r, peak) = peak_of(|| inflate(&bomb, max_out));
        assert_eq!(r, Err(InflateError::OutputLimitExceeded));
        assert!(peak <= max_out + TABLES, "{peak} at ceiling {max_out}");
    }
    // Deflate's own bombs: a long run, compressed and stored.
    let zeros = vec![0u8; 300_000];
    for stream in [deflate(&zeros), deflate_stored(&zeros)] {
        check(&stream, 150_001);
        check(&stream, 300_000);
    }
}

#[test]
fn a_reused_buffer_grows_no_further_than_the_ceiling() {
    let bomb = bomb(1_000);
    let mut buf = Vec::with_capacity(10);
    let r = inflate_into(&bomb, 70_000, &mut buf);
    assert_eq!(r, Err(InflateError::OutputLimitExceeded));
    assert!(buf.capacity() <= 70_000, "capacity {}", buf.capacity());
    let mut big = Vec::with_capacity(1 << 20);
    let _ = inflate_into(&bomb, 70_000, &mut big);
    assert_eq!(big.capacity(), 1 << 20, "room it had is not given back");
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_nor_overallocate(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        max_out in 0usize..70_000,
    ) {
        check(&data, max_out);
    }

    /// Bombs with a byte or two of damage anywhere, under any ceiling.
    #[test]
    fn damaged_bombs_never_panic_nor_overallocate(
        n in 1usize..800,
        flips in proptest::collection::vec(any::<u32>(), 0..3),
        max_out in 0usize..300_000,
    ) {
        let mut data = bomb(n);
        for f in flips {
            let bit = f as usize % (data.len() * 8);
            data[bit / 8] ^= 1 << (bit % 8);
        }
        check(&data, max_out);
    }
}
