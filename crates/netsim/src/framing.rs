//! Stream reassembly for [`crate::App::on_data`] consumers.
//!
//! Chunk boundaries carry no meaning, so every protocol reader cuts frames
//! out of a byte stream. In practice a delivered chunk almost always *is* a
//! whole number of frames — one send is one chunk unless `SimConfig::mss`
//! or a truncating fault cut it — so the common case needs no buffer at
//! all: [`StreamBuf::feed`] hands frames out as slices of the chunk itself
//! and copies only a trailing partial frame. Frames that do straddle chunks
//! come out of the buffer, behind a cursor that compacts once per push
//! rather than once per frame.
//!
//! The protocol supplies the frame boundary as a `split` function: given
//! the unconsumed bytes it returns `Ok(Some((head, len)))` when a complete
//! frame of `len` bytes (`0 < len <= bytes.len()`) is at the front, with
//! whatever it decoded on the way as `head`; `Ok(None)` when more bytes are
//! needed; `Err` when the stream is beyond repair. The bytes of a failed
//! frame stay where they are, so the error repeats on every later call.

/// Buffered stream bytes plus the consumed-prefix cursor.
#[derive(Debug, Default)]
pub struct StreamBuf {
    buf: Vec<u8>,
    /// `buf[..pos]` has been handed out already; dropped at the next push.
    pos: usize,
}

impl StreamBuf {
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw stream bytes.
    pub fn push(&mut self, data: &[u8]) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(data);
    }

    /// Bytes buffered and not yet handed out.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next complete frame in the buffer, if any.
    pub fn next_frame<H, E>(
        &mut self,
        split: impl FnOnce(&[u8]) -> Result<Option<(H, usize)>, E>,
    ) -> Result<Option<(H, &[u8])>, E> {
        let Some((head, len)) = split(&self.buf[self.pos..])? else {
            return Ok(None);
        };
        let frame = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(Some((head, frame)))
    }

    /// Starts a pass over the stream extended by `chunk`. With nothing
    /// buffered the frames are slices of `chunk`; otherwise `chunk` joins
    /// the buffer first. Whatever the pass leaves unconsumed is buffered
    /// when the [`Feed`] drops, so no byte is ever lost.
    pub fn feed<'a>(&'a mut self, chunk: &'a [u8]) -> Feed<'a> {
        let rest = if self.buffered() == 0 {
            chunk
        } else {
            self.push(chunk);
            &[]
        };
        Feed {
            stream: self,
            rest,
            reassembled: 0,
        }
    }
}

/// One pass over a [`StreamBuf`] and a freshly delivered chunk; see
/// [`StreamBuf::feed`].
#[derive(Debug)]
pub struct Feed<'a> {
    stream: &'a mut StreamBuf,
    /// Unconsumed part of the chunk while frames come straight out of it.
    rest: &'a [u8],
    reassembled: u64,
}

impl Feed<'_> {
    /// The next complete frame, if any.
    pub fn next_frame<H, E>(
        &mut self,
        split: impl FnOnce(&[u8]) -> Result<Option<(H, usize)>, E>,
    ) -> Result<Option<(H, &[u8])>, E> {
        if self.rest.is_empty() {
            let frame = self.stream.next_frame(split)?;
            self.reassembled += u64::from(frame.is_some());
            return Ok(frame);
        }
        let Some((head, len)) = split(self.rest)? else {
            return Ok(None);
        };
        let (frame, rest) = self.rest.split_at(len);
        self.rest = rest;
        Ok(Some((head, frame)))
    }

    /// Frames this pass had to take from the buffer instead of the chunk.
    pub fn reassembled(&self) -> u64 {
        self.reassembled
    }
}

impl Drop for Feed<'_> {
    fn drop(&mut self) {
        if !self.rest.is_empty() {
            self.stream.push(self.rest);
        }
    }
}

/// Where the first `delim` of the stream `buf ++ chunk` ends, as an offset
/// into `chunk`, given that `buf` holds no complete one. A reader whose
/// stream changes meaning at a delimiter (an HTTP head, then a body) uses
/// it to send each part of the chunk to its own place instead of buffering
/// the chunk whole and cutting the front off afterwards.
pub fn find_across(buf: &[u8], chunk: &[u8], delim: &[u8]) -> Option<usize> {
    // Straddling the seam: all but the last `k` bytes end `buf`.
    (1..delim.len())
        .find(|&k| {
            let (before, after) = delim.split_at(delim.len() - k);
            buf.ends_with(before) && chunk.starts_with(after)
        })
        .or_else(|| {
            chunk
                .windows(delim.len())
                .position(|w| w == delim)
                .map(|i| i + delim.len())
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One length byte, then that many payload bytes; 0xFF is fatal.
    fn split(bytes: &[u8]) -> Result<Option<(u8, usize)>, &'static str> {
        match bytes.first() {
            None => Ok(None),
            Some(0xFF) => Err("poisoned"),
            Some(&n) => Ok((bytes.len() > n as usize).then_some((n, 1 + n as usize))),
        }
    }

    fn drain(feed: &mut Feed<'_>) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Some((n, frame)) = feed.next_frame(split).unwrap() {
            assert_eq!(frame.len(), 1 + n as usize);
            out.push(frame[1..].to_vec());
        }
        out
    }

    #[test]
    fn whole_frames_bypass_the_buffer_and_a_tail_is_kept() {
        let mut s = StreamBuf::new();
        let mut feed = s.feed(&[2, b'a', b'b', 0, 3, b'x']);
        assert_eq!(drain(&mut feed), vec![b"ab".to_vec(), vec![]]);
        assert_eq!(feed.reassembled(), 0);
        drop(feed);
        assert_eq!(s.buffered(), 2, "only the partial frame was copied");
        let mut feed = s.feed(&[b'y', b'z', 1, b'q']);
        assert_eq!(drain(&mut feed), vec![b"xyz".to_vec(), b"q".to_vec()]);
        assert_eq!(feed.reassembled(), 2, "both came out of the buffer");
        drop(feed);
        assert_eq!(s.buffered(), 0);
    }

    #[test]
    fn an_abandoned_pass_loses_nothing() {
        let mut s = StreamBuf::new();
        let mut feed = s.feed(&[1, b'a', 1, b'b', 1]);
        assert_eq!(feed.next_frame(split).unwrap().unwrap().1, [1, b'a']);
        drop(feed);
        assert_eq!(s.buffered(), 3);
        assert_eq!(s.next_frame(split).unwrap().unwrap().1, [1, b'b']);
        assert_eq!(s.next_frame(split), Ok(None));
        assert_eq!(s.buffered(), 1);
    }

    #[test]
    fn find_across_sees_a_delimiter_on_either_side_of_the_seam() {
        let stream = b"head\r\n\r\nbody\r\n\r\n";
        // Wherever the stream is cut, the first delimiter ends at byte 8.
        for cut in 0..8 {
            let (buf, chunk) = stream.split_at(cut);
            assert_eq!(find_across(buf, chunk, b"\r\n\r\n"), Some(8 - cut), "{cut}");
        }
        assert_eq!(find_across(b"head\r\n", b"\rbody", b"\r\n\r\n"), None);
        assert_eq!(find_across(b"", b"", b"\r\n\r\n"), None);
        assert_eq!(find_across(b"\r\n\r", b"", b"\r\n\r\n"), None);
    }

    #[test]
    fn a_fatal_frame_repeats_its_error() {
        let mut s = StreamBuf::new();
        let mut feed = s.feed(&[0, 0xFF, 7]);
        assert_eq!(feed.next_frame(split).unwrap().unwrap().0, 0);
        assert_eq!(feed.next_frame(split), Err("poisoned"));
        assert_eq!(feed.next_frame(split), Err("poisoned"));
        drop(feed);
        assert_eq!(s.next_frame(split), Err("poisoned"));
        assert_eq!(s.feed(&[1, 1]).next_frame(split), Err("poisoned"));
    }
}
