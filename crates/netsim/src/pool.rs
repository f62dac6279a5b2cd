//! Payload buffer recycling.
//!
//! Every `Ctx::send` used to allocate a fresh `Vec<u8>`, and every MSS
//! fragment another one — at paper scale that is tens of millions of
//! short-lived allocations whose lifetimes all end inside `on_data`. The
//! pool keeps freed buffers on a free list and hands them back out, and the
//! MSS fan-out path shares one buffer across all fragments instead of
//! copying each chunk. Multi-megabyte upload bodies never pass through the
//! pool: they travel as [`Payload::Deferred`] and are written once, into
//! the body buffer the lane lends the receiving app.

use std::ops::Deref;
use std::sync::Arc;

/// Buffers retained on the free list; beyond this, freed buffers drop.
const MAX_POOLED_BUFFERS: usize = 1024;
/// Buffers whose payload exceeds this are not retained, and retained
/// buffers are shrunk to at most this capacity (a truncated or bit-flipped
/// upload body arrives as a one-off buffer of several megabytes; hoarding
/// those would pin memory long after the transfer).
const MAX_POOLED_CAPACITY: usize = 256 * 1024;

/// Counters the simulator mirrors into `SimMetrics`.
#[derive(Debug, Default, Clone)]
pub(crate) struct PoolStats {
    /// Acquisitions served from the free list.
    pub hits: u64,
    /// Acquisitions that had to allocate.
    pub misses: u64,
    /// Total payload bytes whose buffers returned to the free list. This
    /// counts buffer *contents*, not capacity: contents are traffic, set
    /// by what the apps sent, while a buffer's capacity is the largest
    /// payload it has carried since it was allocated, which depends on
    /// the free list's pairing of payloads to buffers and on `Vec`'s
    /// growth policy rather than on the workload.
    pub recycled_bytes: u64,
    /// Peak free-list length.
    pub high_water: u64,
}

/// A free list of reusable byte buffers.
#[derive(Default)]
pub(crate) struct BufferPool {
    free: Vec<Vec<u8>>,
    pub stats: PoolStats,
}

impl BufferPool {
    /// Returns an empty buffer for the caller to fill, reusing a freed
    /// buffer when one is available.
    pub fn acquire(&mut self) -> Vec<u8> {
        let mut buf = match self.free.pop() {
            Some(b) => {
                self.stats.hits += 1;
                b
            }
            None => {
                self.stats.misses += 1;
                Vec::new()
            }
        };
        buf.clear();
        buf
    }

    /// Returns a buffer to the free list (or drops it if the list is full
    /// or the payload it carried is oversized).
    pub fn release(&mut self, mut buf: Vec<u8>) {
        if self.free.len() >= MAX_POOLED_BUFFERS || buf.len() > MAX_POOLED_CAPACITY {
            return;
        }
        self.stats.recycled_bytes += buf.len() as u64;
        if buf.capacity() > MAX_POOLED_CAPACITY {
            buf.shrink_to(MAX_POOLED_CAPACITY);
        }
        self.free.push(buf);
        let len = self.free.len() as u64;
        if len > self.stats.high_water {
            self.stats.high_water = len;
        }
    }

    /// Reclaims a delivered payload's storage where possible: owned
    /// buffers always return; a shared buffer returns when this was the
    /// last fragment referencing it. A deferred payload was never written
    /// and has no storage to reclaim.
    pub fn recycle(&mut self, payload: Payload) {
        match payload {
            Payload::Owned(buf) => self.release(buf),
            Payload::Shared { buf, .. } => {
                if let Ok(inner) = Arc::try_unwrap(buf) {
                    self.release(inner);
                }
            }
            Payload::Deferred { .. } => {}
        }
    }
}

/// Writes a payload's bytes on demand: appends them to the empty buffer it
/// is given. See [`crate::Ctx::send_deferred`].
pub(crate) type Fill = Box<dyn FnOnce(&mut Vec<u8>) + Send>;

/// Bytes in flight: a whole (pooled) buffer, a zero-copy window into a
/// buffer shared by every fragment of one MSS fan-out, or `len` bytes not
/// written yet.
pub(crate) enum Payload {
    Owned(Vec<u8>),
    Shared {
        buf: Arc<Vec<u8>>,
        start: usize,
        end: usize,
    },
    /// Written only where its bytes are needed — at delivery, for an MSS
    /// split, or when a corrupting fault hits it — and never when it is
    /// lost first.
    Deferred {
        len: usize,
        fill: Fill,
    },
}

impl Payload {
    pub fn len(&self) -> usize {
        match self {
            Payload::Owned(v) => v.len(),
            Payload::Shared { start, end, .. } => end - start,
            Payload::Deferred { len, .. } => *len,
        }
    }

    /// Bytes this payload holds in memory: its length once written, 0
    /// while deferred.
    pub fn held(&self) -> usize {
        match self {
            Payload::Deferred { .. } => 0,
            _ => self.len(),
        }
    }

    /// The payload's bytes in a buffer of their own: an owned buffer as it
    /// is, a shared window copied out, a deferred payload written.
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            Payload::Owned(v) => v,
            Payload::Shared { buf, start, end } => buf[start..end].to_vec(),
            Payload::Deferred { len, fill } => {
                let mut buf = Vec::new();
                write_deferred(&mut buf, len, fill);
                buf
            }
        }
    }
}

/// Runs `fill` into `buf`, emptied first. A buffer with room for `len`
/// bytes is written in place; a smaller one is grown to exactly `len`
/// bytes' capacity, so a buffer reused across deliveries grows only to the
/// largest payload written into it. Growing reallocates, and glibc remaps a
/// mapped block with its resident pages instead of faulting in a fresh
/// one. Panics when `fill` writes any other length: the sender charged the
/// link for `len`.
pub(crate) fn write_deferred(buf: &mut Vec<u8>, len: usize, fill: Fill) {
    buf.clear();
    buf.reserve_exact(len);
    fill(buf);
    assert_eq!(buf.len(), len, "a deferred payload wrote another length");
}

impl Deref for Payload {
    type Target = [u8];

    /// A deferred payload has no bytes to show; the engine writes it
    /// ([`Payload::into_vec`]) before it reads one.
    fn deref(&self) -> &[u8] {
        match self {
            Payload::Owned(v) => v,
            Payload::Shared { buf, start, end } => &buf[*start..*end],
            Payload::Deferred { .. } => {
                unreachable!("a deferred payload has no bytes until it is written")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_hands_out_empty_buffers_and_reuses() {
        let mut pool = BufferPool::default();
        let mut a = pool.acquire();
        assert!(a.is_empty());
        assert_eq!(pool.stats.misses, 1);
        a.extend_from_slice(b"hello");
        pool.release(a);
        assert_eq!(pool.stats.recycled_bytes, 5);
        let b = pool.acquire();
        assert!(b.is_empty() && b.capacity() >= 5, "recycled, cleared");
        assert_eq!(pool.stats.hits, 1);
    }

    #[test]
    fn oversized_payloads_are_not_retained() {
        let mut pool = BufferPool::default();
        pool.release(vec![0u8; MAX_POOLED_CAPACITY + 1]);
        assert_eq!(pool.free.len(), 0);
        assert_eq!(pool.stats.recycled_bytes, 0);
    }

    #[test]
    fn retained_buffers_are_shrunk_to_the_cap() {
        let mut pool = BufferPool::default();
        let mut big = Vec::with_capacity(MAX_POOLED_CAPACITY * 4);
        big.resize(10, 0u8);
        pool.release(big);
        assert_eq!(pool.free.len(), 1);
        assert!(pool.free[0].capacity() <= MAX_POOLED_CAPACITY);
        assert_eq!(pool.stats.recycled_bytes, 10);
    }

    #[test]
    fn shared_payload_recycles_on_last_fragment() {
        let mut pool = BufferPool::default();
        let buf = Arc::new(vec![0u8; 300]);
        let a = Payload::Shared {
            buf: buf.clone(),
            start: 0,
            end: 100,
        };
        let b = Payload::Shared {
            buf: buf.clone(),
            start: 100,
            end: 300,
        };
        drop(buf);
        assert_eq!(a.len(), 100);
        assert_eq!(&b[..4], &[0, 0, 0, 0]);
        pool.recycle(a);
        assert_eq!(pool.free.len(), 0, "still referenced by b");
        pool.recycle(b);
        assert_eq!(pool.free.len(), 1, "last fragment returns the buffer");
        assert_eq!(pool.stats.recycled_bytes, 300);
    }

    /// A deferred payload travels in the same 32 bytes as a buffer.
    #[test]
    fn payload_layout_is_pinned() {
        assert_eq!(std::mem::size_of::<Payload>(), 32);
    }

    #[test]
    fn deferred_payload_is_written_on_demand() {
        let p = Payload::Deferred {
            len: 3,
            fill: Box::new(|out: &mut Vec<u8>| out.extend_from_slice(b"abc")),
        };
        assert_eq!((p.len(), p.held()), (3, 0));
        assert_eq!(p.into_vec(), b"abc");
        let mut pool = BufferPool::default();
        pool.recycle(Payload::Deferred {
            len: 1,
            fill: Box::new(|_: &mut Vec<u8>| unreachable!("never written")),
        });
        assert_eq!(pool.free.len(), 0);
    }

    #[test]
    fn free_list_is_bounded() {
        let mut pool = BufferPool::default();
        for _ in 0..MAX_POOLED_BUFFERS + 50 {
            pool.release(vec![1, 2, 3]);
        }
        assert_eq!(pool.free.len(), MAX_POOLED_BUFFERS);
        assert_eq!(pool.stats.high_water, MAX_POOLED_BUFFERS as u64);
    }
}
