//! The frame checksum: golden vectors pin the function (every peer is
//! built from this workspace, but a silent change of the function would
//! still break mixed builds and recorded wire captures), and exhaustive
//! mutation sweeps check that every single-bit flip and every byte
//! inversion of a framed payload is refused as `FrameError::Corrupt`.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

use bytes::BufMut;
use opmr_events::{checksum, frame, FrameBuf, FrameBuilder, FrameError};

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 131 + 7) as u8).collect()
}

#[test]
fn golden_vectors() {
    let cases: [(Vec<u8>, u32); 7] = [
        (Vec::new(), 0x8564_b36b),
        (b"a".to_vec(), 0xfc54_2821),
        (b"hello frame".to_vec(), 0x7d23_6d40),
        ((0u8..32).collect(), 0x8ccf_4020),
        ((0u8..33).collect(), 0x397c_c5a9),
        (pattern(1000), 0x7f14_ebf8),
        (vec![0u8; 65536], 0x9666_89b8),
    ];
    for (input, want) in &cases {
        assert_eq!(
            checksum(input),
            *want,
            "checksum of {} bytes changed",
            input.len()
        );
    }
}

#[test]
fn header_carries_length_and_checksum() {
    let payload = pattern(77);
    let wire = frame(&payload);
    assert_eq!(&wire[..4], &77u32.to_le_bytes());
    assert_eq!(&wire[4..8], &checksum(&payload).to_le_bytes());
    assert_eq!(&wire[8..], &payload[..]);
}

#[test]
fn builder_frames_exactly_like_frame() {
    for len in [0usize, 1, 31, 32, 33, 4096] {
        let payload = pattern(len);
        let mut b = FrameBuilder::with_capacity(0);
        b.put_slice(&payload);
        assert_eq!(b.payload(), &payload[..]);
        assert_eq!(b.finish().unwrap(), frame(&payload));
    }
}

/// Applies `mutate` to payload byte `pos` of a framed `payload` and
/// asserts the reassembly buffer refuses it as corrupt, and stays
/// poisoned.
fn assert_refused(payload: &[u8], pos: usize, mutate: u8) {
    let mut wire = frame(payload).to_vec();
    wire[8 + pos] ^= mutate;
    let mut fb = FrameBuf::new();
    fb.push(&wire);
    match fb.next_frame() {
        Err(e @ FrameError::Corrupt { expected, found }) => {
            assert_ne!(expected, found);
            assert_eq!(fb.poisoned(), Some(e));
        }
        other => panic!(
            "len {} pos {pos} xor {mutate:#04x}: expected Corrupt, got {other:?}",
            payload.len()
        ),
    }
}

#[test]
fn every_bit_flip_and_byte_inversion_is_refused_for_short_payloads() {
    for len in 0..=70usize {
        let payload = pattern(len);
        for pos in 0..len {
            for bit in 0..8 {
                assert_refused(&payload, pos, 1 << bit);
            }
            assert_refused(&payload, pos, 0xFF);
        }
    }
}

#[test]
fn sampled_mutations_are_refused_on_a_64_kib_payload() {
    let payload = pattern(64 * 1024);
    // Every position of the first and last two blocks (lane and tail
    // edges), then a stride that visits every lane and byte offset.
    let edges = (0..64).chain(payload.len() - 64..payload.len());
    let stride = (0..payload.len()).step_by(997);
    for pos in edges.chain(stride) {
        for bit in 0..8 {
            assert_refused(&payload, pos, 1 << bit);
        }
        assert_refused(&payload, pos, 0xFF);
    }
}

#[test]
fn lanes_are_order_sensitive() {
    // Swapping two words that land in different lanes, or two whole
    // 32-byte blocks, must change the checksum.
    let payload = pattern(256);
    let mut words = payload.clone();
    words.swap(0, 4);
    words.swap(1, 5);
    words.swap(2, 6);
    words.swap(3, 7);
    assert_ne!(checksum(&words), checksum(&payload));
    let mut blocks = payload.clone();
    let (a, b) = blocks.split_at_mut(32);
    a.swap_with_slice(&mut b[..32]);
    assert_ne!(checksum(&blocks), checksum(&payload));
}
