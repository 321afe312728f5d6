//! RFC 4571 framing: RTP/RTCP packets over connection-oriented transports.
//!
//! "Neither TCP nor RTP declares the length of an RTP packet. Therefore, RTP
//! framing \[RFC4571\] is used to split RTP packets within the TCP byte
//! stream." (draft §4.4). The frame is simply a 16-bit big-endian length
//! prefix followed by that many packet bytes.

use std::ops::Range;

use bytes::Bytes;

use crate::{Error, Result};

/// Maximum payload a single RFC 4571 frame can carry (16-bit length).
pub const MAX_FRAME_LEN: usize = u16::MAX as usize;

/// Prefix `packet` with its 2-byte length.
pub fn frame(packet: &[u8]) -> Result<Vec<u8>> {
    if packet.len() > MAX_FRAME_LEN {
        return Err(Error::FrameTooLarge {
            declared: packet.len(),
            max: MAX_FRAME_LEN,
        });
    }
    let mut out = Vec::with_capacity(2 + packet.len());
    out.extend_from_slice(&(packet.len() as u16).to_be_bytes());
    out.extend_from_slice(packet);
    Ok(out)
}

/// Append a framed `packet` to an existing buffer (avoids an allocation per
/// packet when batching writes).
pub fn frame_into(out: &mut Vec<u8>, packet: &[u8]) -> Result<()> {
    if packet.len() > MAX_FRAME_LEN {
        return Err(Error::FrameTooLarge {
            declared: packet.len(),
            max: MAX_FRAME_LEN,
        });
    }
    out.extend_from_slice(&(packet.len() as u16).to_be_bytes());
    out.extend_from_slice(packet);
    Ok(())
}

/// Incremental deframer: feed arbitrary byte chunks from a TCP stream, pop
/// complete packets as they become available — or take them as they are
/// found, with [`Deframer::feed`].
#[derive(Debug)]
pub struct Deframer {
    buf: Vec<u8>,
    /// Read cursor into `buf` (compacted opportunistically).
    pos: usize,
    /// Upper bound on accepted frame size (DoS guard; frames above this are
    /// rejected rather than buffered).
    max_frame: usize,
}

impl Default for Deframer {
    fn default() -> Self {
        Self::new(MAX_FRAME_LEN)
    }
}

impl Deframer {
    /// Create a deframer accepting frames up to `max_frame` bytes.
    pub fn new(max_frame: usize) -> Self {
        Deframer {
            buf: Vec::new(),
            pos: 0,
            max_frame: max_frame.min(MAX_FRAME_LEN),
        }
    }

    /// Feed bytes received from the stream.
    pub fn push(&mut self, chunk: &[u8]) {
        // Compact when the consumed prefix dominates the buffer.
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Where the next complete frame's packet lies in `buf`, consuming it.
    fn next_frame(&mut self) -> Result<Option<Range<usize>>> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 2 {
            return Ok(None);
        }
        let len = u16::from_be_bytes([avail[0], avail[1]]) as usize;
        if len > self.max_frame {
            return Err(Error::FrameTooLarge {
                declared: len,
                max: self.max_frame,
            });
        }
        if avail.len() < 2 + len {
            return Ok(None);
        }
        let start = self.pos + 2;
        self.pos = start + len;
        Ok(Some(start..start + len))
    }

    /// Pop the next complete frame, if any.
    ///
    /// Returns `Ok(Some(packet))` for a complete frame, `Ok(None)` if more
    /// bytes are needed, or an error if the declared frame length exceeds the
    /// configured maximum (the connection should then be torn down — the
    /// stream cannot be resynchronised).
    pub fn pop(&mut self) -> Result<Option<Vec<u8>>> {
        Ok(self.next_frame()?.map(|at| self.buf[at].to_vec()))
    }

    /// [`Deframer::pop`] into one shared buffer — the frame's only copy —
    /// which the caller can parse in place and slice by handle.
    pub fn pop_bytes(&mut self) -> Result<Option<Bytes>> {
        Ok(self
            .next_frame()?
            .map(|at| Bytes::copy_from_slice(&self.buf[at])))
    }

    /// Feed `chunk` and hand every packet it completes to `on_packet`, in
    /// stream order. The same packets as [`Deframer::push`] followed by
    /// [`Deframer::pop_bytes`] until `None`, without staging the chunk: the
    /// frames that lie whole in `chunk` are copied out of it once, together,
    /// into one buffer each packet is a slice of, and only a frame cut off
    /// by the end of the chunk waits in the buffer — which therefore never
    /// holds more than one frame, where `push` keeps room for the largest
    /// chunk it ever saw.
    ///
    /// An oversized frame is the error it is for `pop`, now and on every
    /// later call, and what follows it is dropped rather than buffered.
    pub fn feed(&mut self, mut chunk: &[u8], mut on_packet: impl FnMut(Bytes)) -> Result<()> {
        // What an earlier chunk left behind comes first: top it up with
        // exactly the bytes its frame still lacks.
        loop {
            while let Some(packet) = self.pop_bytes()? {
                on_packet(packet);
            }
            let held = &self.buf[self.pos..];
            let want = match held {
                [] => break,
                [hi, lo, ..] => 2 + u16::from_be_bytes([*hi, *lo]) as usize,
                [_] => 2,
            };
            let take = (want - held.len()).min(chunk.len());
            if take == 0 {
                return Ok(());
            }
            self.buf.extend_from_slice(&chunk[..take]);
            chunk = &chunk[take..];
        }
        self.buf.clear();
        self.pos = 0;
        // The run of whole frames at the front of the chunk.
        let mut whole = 0;
        while let [hi, lo, rest @ ..] = &chunk[whole..] {
            let len = u16::from_be_bytes([*hi, *lo]) as usize;
            if len > self.max_frame || rest.len() < len {
                break;
            }
            whole += 2 + len;
        }
        if whole > 0 {
            let frames = Bytes::copy_from_slice(&chunk[..whole]);
            let mut at = 0;
            while at < whole {
                let len = u16::from_be_bytes([frames[at], frames[at + 1]]) as usize;
                on_packet(frames.slice(at + 2..at + 2 + len));
                at += 2 + len;
            }
        }
        self.buf.extend_from_slice(&chunk[whole..]);
        // Incomplete (`None`) or oversized (the error).
        self.pop_bytes().map(|_| ())
    }

    /// Bytes buffered but not yet consumed.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_and_deframe() {
        let a = frame(b"hello").unwrap();
        let b = frame(b"world!!").unwrap();
        let mut d = Deframer::default();
        d.push(&a);
        d.push(&b);
        assert_eq!(d.pop().unwrap().unwrap(), b"hello");
        assert_eq!(d.pop().unwrap().unwrap(), b"world!!");
        assert_eq!(d.pop().unwrap(), None);
    }

    #[test]
    fn byte_at_a_time_delivery() {
        let wire = frame(&[9u8; 100]).unwrap();
        let mut d = Deframer::default();
        let mut popped = Vec::new();
        for byte in wire {
            d.push(&[byte]);
            while let Some(p) = d.pop().unwrap() {
                popped.push(p);
            }
        }
        assert_eq!(popped, vec![vec![9u8; 100]]);
    }

    #[test]
    fn split_across_arbitrary_chunks() {
        let mut wire = Vec::new();
        let packets: Vec<Vec<u8>> = (0..10).map(|i| vec![i as u8; i * 37 + 1]).collect();
        for p in &packets {
            frame_into(&mut wire, p).unwrap();
        }
        let mut d = Deframer::default();
        let mut got = Vec::new();
        for chunk in wire.chunks(13) {
            d.push(chunk);
            while let Some(p) = d.pop().unwrap() {
                got.push(p);
            }
        }
        assert_eq!(got, packets);
        assert_eq!(d.pending(), 0);
    }

    #[test]
    fn pop_bytes_yields_the_same_frames_as_pop() {
        let mut wire = Vec::new();
        let packets: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8; i * 301]).collect();
        for p in &packets {
            frame_into(&mut wire, p).unwrap();
        }
        let (mut owned, mut shared) = (Deframer::default(), Deframer::default());
        for chunk in wire.chunks(97) {
            owned.push(chunk);
            shared.push(chunk);
            loop {
                let (a, b) = (owned.pop().unwrap(), shared.pop_bytes().unwrap());
                assert_eq!(a.as_deref(), b.as_deref());
                if a.is_none() {
                    break;
                }
            }
        }
        assert_eq!((owned.pending(), shared.pending()), (0, 0));
        let mut small = Deframer::new(64);
        small.push(&1000u16.to_be_bytes());
        assert!(matches!(
            small.pop_bytes(),
            Err(Error::FrameTooLarge {
                declared: 1000,
                max: 64
            })
        ));
    }

    #[test]
    fn feed_yields_what_push_and_pop_do_and_buffers_one_frame_at_most() {
        let mut wire = Vec::new();
        let sizes = [0usize, 1, 700, 3, 0, 1400, 65_535, 2, 900];
        let packets: Vec<Vec<u8>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| vec![i as u8 + 1; n])
            .collect();
        for p in &packets {
            frame_into(&mut wire, p).unwrap();
        }
        // Every chunk size from a byte at a time to the whole stream at
        // once, so that a chunk ends inside a length prefix, inside a body,
        // on a frame boundary, and spans many frames.
        for step in [1, 2, 3, 5, 699, 703, 1403, 4096, 70_000, wire.len()] {
            let mut fed = Deframer::default();
            let mut got: Vec<Vec<u8>> = Vec::new();
            for chunk in wire.chunks(step) {
                fed.feed(chunk, |packet| got.push(packet.to_vec())).unwrap();
                assert!(fed.pending() < 2 + MAX_FRAME_LEN, "chunks of {step}");
            }
            assert_eq!(got, packets, "chunks of {step}");
            assert_eq!(fed.pending(), 0);
        }
        // Whole frames never touch the buffer.
        let mut fed = Deframer::default();
        fed.feed(&wire, |_| {}).unwrap();
        assert_eq!(fed.buf.capacity(), 0);
        // Frames already pushed the old way come out first.
        let mut mixed = Deframer::default();
        mixed.push(&wire[..1000]);
        let mut got = Vec::new();
        mixed
            .feed(&wire[1000..], |packet| got.push(packet.to_vec()))
            .unwrap();
        assert_eq!(got, packets);
    }

    #[test]
    fn feed_reports_an_oversized_frame_every_time_and_stops_buffering() {
        let mut wire = frame(b"fine").unwrap();
        wire.extend_from_slice(&1000u16.to_be_bytes());
        wire.extend_from_slice(&[7; 50]);
        for step in [1, 3, 7, wire.len()] {
            let mut d = Deframer::new(64);
            let mut got = Vec::new();
            let mut failed = 0;
            for chunk in wire.chunks(step) {
                match d.feed(chunk, |packet| got.push(packet.to_vec())) {
                    Ok(()) => assert_eq!(failed, 0, "an error is final"),
                    Err(Error::FrameTooLarge {
                        declared: 1000,
                        max: 64,
                    }) => failed += 1,
                    Err(other) => panic!("{other:?}"),
                }
            }
            assert_eq!(got, vec![b"fine".to_vec()], "chunks of {step}");
            assert!(failed >= 1, "chunks of {step}");
            let held = d.pending();
            for _ in 0..100 {
                assert!(d.feed(&[9; 1000], |_| panic!("nothing follows")).is_err());
            }
            assert_eq!(d.pending(), held, "what follows is dropped");
        }
    }

    #[test]
    fn zero_length_frame_ok() {
        let wire = frame(b"").unwrap();
        let mut d = Deframer::default();
        d.push(&wire);
        assert_eq!(d.pop().unwrap().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn oversize_frame_rejected_by_sender() {
        let big = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(matches!(frame(&big), Err(Error::FrameTooLarge { .. })));
    }

    #[test]
    fn oversize_frame_rejected_by_receiver() {
        let mut d = Deframer::new(64);
        d.push(&1000u16.to_be_bytes());
        assert!(matches!(
            d.pop(),
            Err(Error::FrameTooLarge {
                declared: 1000,
                max: 64
            })
        ));
    }

    #[test]
    fn compaction_does_not_lose_data() {
        let mut d = Deframer::default();
        let pkt = vec![7u8; 1000];
        for _ in 0..50 {
            d.push(&frame(&pkt).unwrap());
        }
        let mut n = 0;
        while let Some(p) = d.pop().unwrap() {
            assert_eq!(p, pkt);
            n += 1;
        }
        assert_eq!(n, 50);
    }
}
