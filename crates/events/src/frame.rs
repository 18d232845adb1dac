//! Length-prefixed, checksummed framing for records travelling over
//! block streams.
//!
//! VMPI streams deliver *blocks* whose boundaries depend on the writer's
//! flush pattern, not on record boundaries. Any record-oriented protocol
//! layered on top (reduction partial sets going up the TBON, serve-plane
//! requests and responses) therefore length-prefixes each record with
//! [`frame`] and reassembles per source with [`FrameBuf`]. One framing
//! implementation, shared by every stream protocol in the workspace.
//!
//! # Wire format
//!
//! `[len: u32 LE][checksum(payload): u32 LE][payload]`
//!
//! The checksum ([`checksum`]) turns byte corruption into a typed
//! [`FrameError::Corrupt`] instead of a downstream decode failure (or,
//! worse, a silently wrong record). It is word-parallel so that checking
//! a frame costs about as much as copying it: the sender stamps every
//! frame once and the receiver verifies every frame once. A length
//! field above [`MAX_FRAME_LEN`] is rejected as [`FrameError::Oversize`]
//! *before* the reassembly buffer would try to accumulate it, so a
//! corrupted length cannot make the reader buffer gigabytes waiting for
//! a frame that will never complete. Both errors poison the [`FrameBuf`]: framing has no
//! resynchronization marker, so after a corrupt header every later byte
//! offset is suspect and the stream must be torn down (the transport
//! layer underneath already retries/reorders, so a poisoned buffer means
//! real corruption, not loss).

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Hard upper bound on a single frame payload. Big enough for any merged
/// partial set or snapshot response this workspace produces (full blocks
/// are ~1 MiB; snapshots of paper-scale runs are far smaller), small
/// enough to reject corrupt lengths immediately.
pub const MAX_FRAME_LEN: usize = 1 << 28;

const HDR: usize = 8;

/// Typed framing failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The length field exceeds [`MAX_FRAME_LEN`] — a corrupt or hostile
    /// header.
    Oversize { len: u64, max: usize },
    /// The payload failed its checksum.
    Corrupt { expected: u32, found: u32 },
    /// A payload handed to [`try_frame`] is too large to ever be read
    /// back (it would exceed [`MAX_FRAME_LEN`] on the wire).
    TooLarge { len: usize, max: usize },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversize { len, max } => {
                write!(f, "frame length {len} exceeds maximum {max}")
            }
            FrameError::Corrupt { expected, found } => {
                write!(
                    f,
                    "frame checksum mismatch: expected {expected:#010x}, found {found:#010x}"
                )
            }
            FrameError::TooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds maximum {max}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Multiplier of the lane steps. Odd, so `(lane ^ word) * LANE_MUL` is a
/// bijection of the lane for a fixed word and of the word for a fixed
/// lane.
const LANE_MUL: u32 = 0x9E37_79B1;
/// Distinct starting values of the eight lanes.
const LANE_SEED: [u32; 8] = [
    0x243F_6A88,
    0x85A3_08D3,
    0x1319_8A2E,
    0x0370_7344,
    0xA409_3822,
    0x299F_31D0,
    0x082E_FA98,
    0xEC4E_6C89,
];
/// Multiplier of the byte-wise tail steps (odd, as above).
const TAIL_MUL: u32 = 0x0100_0193;

/// The frame integrity check: a 32-bit, word-parallel multiply-xor sum.
///
/// Eight independent lanes each absorb every eighth little-endian `u32`
/// word of the payload, so the lanes run in parallel and the check keeps
/// pace with memory. The lanes are combined by xor of distinct
/// rotations, the payload length is mixed in, the bytes past the last
/// whole 32-byte block are folded in one at a time, and a final
/// avalanche spreads every bit over the result.
///
/// Every step is a bijection of the running state and of the word or
/// byte it absorbs, so a change to any one lane word or tail byte (in
/// particular every single-bit flip and every single-byte overwrite)
/// always changes the checksum. Broader corruption goes unnoticed with
/// odds of about 2^-32. This is an integrity check against garbled or
/// hostile bytes, not an authenticity one.
pub fn checksum(payload: &[u8]) -> u32 {
    let (blocks, tail) = payload.as_chunks::<32>();
    let mut lanes = LANE_SEED;
    for block in blocks {
        let (words, _) = block.as_chunks::<4>();
        for (lane, word) in lanes.iter_mut().zip(words) {
            *lane = (*lane ^ u32::from_le_bytes(*word)).wrapping_mul(LANE_MUL);
        }
    }
    // Frames never exceed MAX_FRAME_LEN, so the length fits in a u32.
    let mut h = payload.len() as u32;
    for (i, lane) in lanes.iter().enumerate() {
        h ^= lane.rotate_left(4 * i as u32);
    }
    for &b in tail {
        h = (h ^ b as u32).wrapping_mul(TAIL_MUL);
    }
    // Avalanche (MurmurHash3's 32-bit finalizer, a bijection).
    h ^= h >> 16;
    h = h.wrapping_mul(0x85EB_CA6B);
    h ^= h >> 13;
    h = h.wrapping_mul(0xC2B2_AE35);
    h ^ (h >> 16)
}

/// A frame built in place: the header is reserved up front, the payload
/// is appended after it (through [`BufMut`]), and [`FrameBuilder::finish`]
/// patches in the length and checksum. A caller that encodes a record
/// straight into the builder frames it without a second copy.
#[derive(Debug)]
pub struct FrameBuilder {
    buf: Vec<u8>,
}

impl FrameBuilder {
    /// An empty frame with room for `payload` bytes of payload.
    pub fn with_capacity(payload: usize) -> FrameBuilder {
        let mut buf = Vec::with_capacity(HDR + payload);
        buf.resize(HDR, 0);
        FrameBuilder { buf }
    }

    /// The payload appended so far.
    pub fn payload(&self) -> &[u8] {
        self.buf.get(HDR..).unwrap_or_default()
    }

    /// Stamps the header and returns the complete wire frame.
    ///
    /// Returns [`FrameError::TooLarge`] when the payload exceeds
    /// [`MAX_FRAME_LEN`].
    pub fn finish(mut self) -> Result<Bytes, FrameError> {
        let len = self.payload().len();
        if len > MAX_FRAME_LEN {
            return Err(FrameError::TooLarge {
                len,
                max: MAX_FRAME_LEN,
            });
        }
        let check = checksum(self.payload());
        // `with_capacity` reserved the header, so both ranges exist.
        self.buf[..4].copy_from_slice(&(len as u32).to_le_bytes());
        self.buf[4..HDR].copy_from_slice(&check.to_le_bytes());
        Ok(Bytes::from(self.buf))
    }
}

impl BufMut for FrameBuilder {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

/// Length-prefixes and checksums a payload for transport over a byte
/// stream whose block boundaries the encoding cannot rely on.
///
/// Returns [`FrameError::TooLarge`] when the payload exceeds
/// [`MAX_FRAME_LEN`] — a frame that big could never be read back. Use
/// this variant whenever the payload size is data-driven (merged partial
/// sets, snapshot responses).
pub fn try_frame(payload: &[u8]) -> Result<Bytes, FrameError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge {
            len: payload.len(),
            max: MAX_FRAME_LEN,
        });
    }
    let mut out = FrameBuilder::with_capacity(payload.len());
    out.put_slice(payload);
    out.finish()
}

/// Infallible framing for payloads whose size the caller bounds itself.
///
/// Panics if the payload exceeds [`MAX_FRAME_LEN`] — producing an
/// unreadable frame is a programming error, not a runtime condition.
/// Prefer [`try_frame`] wherever the payload size is data-driven.
pub fn frame(payload: &[u8]) -> Bytes {
    match try_frame(payload) {
        Ok(b) => b,
        Err(e) => panic!("{e}"), // PANIC-OK: documented contract — caller bounds the size
    }
}

/// Per-source reassembly buffer for [`frame`]d records.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: BytesMut,
    poisoned: Option<FrameError>,
}

impl FrameBuf {
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Appends one received stream block.
    pub fn push(&mut self, chunk: &[u8]) {
        self.buf.put_slice(chunk);
    }

    /// Pops the next complete frame payload.
    ///
    /// * `Ok(Some(payload))` — a complete, checksum-verified frame;
    /// * `Ok(None)` — no complete frame buffered yet;
    /// * `Err(_)` — corrupt header or payload. The error is sticky:
    ///   every later call returns it again, because a framing stream has
    ///   no resync point after a bad header.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, FrameError> {
        if let Some(e) = self.poisoned {
            return Err(e);
        }
        let Some((len_bytes, rest)) = self.buf.split_first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*len_bytes) as usize;
        if len > MAX_FRAME_LEN {
            return Err(self.poison(FrameError::Oversize {
                len: len as u64,
                max: MAX_FRAME_LEN,
            }));
        }
        let Some((ck_bytes, body)) = rest.split_first_chunk::<4>() else {
            return Ok(None);
        };
        let expected = u32::from_le_bytes(*ck_bytes);
        let Some(payload) = body.get(..len) else {
            return Ok(None);
        };
        let found = checksum(payload);
        if found != expected {
            return Err(self.poison(FrameError::Corrupt { expected, found }));
        }
        let mut record = self.buf.split_to(HDR + len).freeze();
        record.advance(HDR);
        Ok(Some(record))
    }

    fn poison(&mut self, e: FrameError) -> FrameError {
        self.poisoned = Some(e);
        e
    }

    /// Bytes buffered but not yet forming a complete frame.
    pub fn residual(&self) -> usize {
        self.buf.len()
    }

    /// The sticky error, if the buffer has seen one.
    pub fn poisoned(&self) -> Option<FrameError> {
        self.poisoned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_under_ragged_chunking() {
        let records: Vec<Vec<u8>> = (0..6usize)
            .map(|i| (0..i * 7 + 1).map(|b| (b * 31 + i) as u8).collect())
            .collect();
        let mut wire = BytesMut::new();
        for r in &records {
            wire.put_slice(&frame(r));
        }
        for chunk_len in [1, 3, 13, 64, wire.len()] {
            let mut fb = FrameBuf::new();
            let mut got: Vec<Bytes> = Vec::new();
            for chunk in wire.chunks(chunk_len) {
                fb.push(chunk);
                while let Some(payload) = fb.next_frame().unwrap() {
                    got.push(payload);
                }
            }
            assert_eq!(got.len(), records.len(), "chunk_len={chunk_len}");
            for (g, r) in got.iter().zip(&records) {
                assert_eq!(&g[..], &r[..]);
            }
            assert_eq!(fb.residual(), 0);
        }
    }

    #[test]
    fn empty_payload_frames_cleanly() {
        let f = frame(&[]);
        assert_eq!(f.len(), 8);
        let mut fb = FrameBuf::new();
        fb.push(&f);
        assert_eq!(fb.next_frame().unwrap().unwrap().len(), 0);
        assert!(fb.next_frame().unwrap().is_none());
    }

    #[test]
    fn payload_corruption_is_typed_and_sticky() {
        let mut wire = BytesMut::new();
        wire.put_slice(&frame(b"hello frame"));
        let last = wire.len() - 1;
        wire[last] ^= 0x40;
        let mut fb = FrameBuf::new();
        fb.push(&wire);
        let err = fb.next_frame().unwrap_err();
        assert!(matches!(err, FrameError::Corrupt { .. }));
        // Sticky: pushing a good frame afterwards cannot resurrect it.
        fb.push(&frame(b"good"));
        assert_eq!(fb.next_frame().unwrap_err(), err);
        assert_eq!(fb.poisoned(), Some(err));
    }

    #[test]
    fn oversize_length_is_rejected_before_buffering() {
        let mut wire = BytesMut::new();
        wire.put_u32_le(u32::MAX);
        wire.put_u32_le(0);
        let mut fb = FrameBuf::new();
        fb.push(&wire);
        assert!(matches!(
            fb.next_frame(),
            Err(FrameError::Oversize { len, .. }) if len == u32::MAX as u64
        ));
    }
}
