//! The counting global allocator of the workspace's allocation tests. A
//! test binary includes it with
//! `#[path = "<relative path to this file>"] mod counting_alloc;`, which
//! makes it that binary's global allocator. Every call forwards to
//! `System`; the counters only observe sizes. They are per thread, so
//! concurrent tests do not disturb each other.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::RangeInclusive;

/// What `f` allocated on this thread (see [`measure`]).
#[derive(Debug, Clone, Copy)]
pub struct Counts {
    /// Allocations; a `realloc` counts as one.
    pub allocs: usize,
    /// Their bytes; a `realloc` counts its new size.
    pub bytes: usize,
    /// Allocations whose size lies in the range [`measure_sized`] was
    /// given.
    pub sized: usize,
    /// The most bytes live at once beyond what was live when `f` began; a
    /// `realloc` counts as its change in size.
    pub peak: usize,
}

#[derive(Clone, Copy)]
struct State {
    allocs: usize,
    bytes: usize,
    sized: usize,
    sizes: (usize, usize),
    live: isize,
    peak: isize,
}

thread_local! {
    static STATE: Cell<State> = const {
        Cell::new(State {
            allocs: 0,
            bytes: 0,
            sized: 0,
            sizes: (0, usize::MAX),
            live: 0,
            peak: 0,
        })
    };
}

/// One allocation of `size` bytes (none when `size` is `None`) that moved
/// the live heap by `delta`.
fn track(size: Option<usize>, delta: isize) {
    let _ = STATE.try_with(|s| {
        let mut st = s.get();
        if let Some(size) = size {
            st.allocs += 1;
            st.bytes += size;
            if (st.sizes.0..=st.sizes.1).contains(&size) {
                st.sized += 1;
            }
        }
        st.live += delta;
        st.peak = st.peak.max(st.live);
        s.set(st);
    });
}

struct Counting;

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            track(Some(layout.size()), layout.size() as isize);
        }
        p
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            track(Some(layout.size()), layout.size() as isize);
        }
        p
    }
    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        track(None, -(layout.size() as isize));
    }
    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new);
        if !q.is_null() {
            track(Some(new), new as isize - layout.size() as isize);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// What `f` returns and what it allocated on this thread, counting in
/// [`Counts::sized`] the allocations whose size lies in `sizes`.
pub fn measure_sized<R>(sizes: RangeInclusive<usize>, f: impl FnOnce() -> R) -> (R, Counts) {
    let start = STATE.with(|s| {
        let st = s.get();
        s.set(State {
            allocs: 0,
            bytes: 0,
            sized: 0,
            sizes: sizes.into_inner(),
            live: st.live,
            peak: st.live,
        });
        st.live
    });
    let r = f();
    let st = STATE.with(Cell::get);
    let counts = Counts {
        allocs: st.allocs,
        bytes: st.bytes,
        sized: st.sized,
        peak: (st.peak - start) as usize,
    };
    (r, counts)
}

/// What `f` returns and what it allocated on this thread.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Counts) {
    measure_sized(0..=usize::MAX, f)
}

/// What `f` returns and the most heap it held at once beyond what was live
/// when it began, on this thread.
pub fn peak_of<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let (r, counts) = measure(f);
    (r, counts.peak)
}
