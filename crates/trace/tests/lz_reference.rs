//! The library's LZ codec against the one it replaced (`support/lz.rs`):
//!
//! * decoding any stream — valid ones from the v3 LZ fixture and from
//!   random inputs, then the same streams with control bytes,
//!   back-reference offsets and lengths, or the declared length mutated,
//!   bytes flipped, ranges spliced in or out, or the tail cut — returns
//!   the reference's bytes or the reference's error text, never panics,
//!   and never sizes its buffer past the cap;
//! * one encoder reused across frames writes, frame by frame, what the
//!   reference's fresh table writes (or the raw fallback when that is not
//!   smaller).

#[path = "support/lz.rs"]
mod reference;

use proptest::prelude::*;
use simprof_trace::codec::{self, Codec, CODEC_LZ, CODEC_RAW};
use simprof_trace::MAX_FRAME_LEN;

/// A small deterministic generator for the mutations (xorshift64*).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// The LZ-coded frame payloads of the v3 LZ fixture.
fn fixture_streams() -> Vec<Vec<u8>> {
    let bytes = std::fs::read(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/v3_lz.sptrc"))
        .expect("the v3 LZ fixture is readable");
    // [magic 8] then `[kind][codec][len u32][stored][crc u32]` frames up to
    // the 12-byte trailer.
    let (mut at, mut streams) = (8, Vec::new());
    while at + 12 < bytes.len() {
        let len = u32::from_le_bytes(bytes[at + 2..at + 6].try_into().unwrap()) as usize;
        if bytes[at + 1] == CODEC_LZ {
            streams.push(bytes[at + 6..at + 6 + len].to_vec());
        }
        at += 6 + len + 4;
    }
    assert!(streams.len() >= 4, "the fixture's chunk frames are LZ-coded");
    streams
}

/// Compressible input: runs and repeats over a small alphabet, with some
/// noise, up to a few KB.
fn random_input(rng: &mut Rng) -> Vec<u8> {
    let len = rng.below(4_000);
    let alphabet = 1 + rng.below(40);
    let mut v = Vec::with_capacity(len);
    while v.len() < len {
        match rng.below(4) {
            0 if !v.is_empty() => {
                let back = 1 + rng.below(v.len().min(300));
                for _ in 0..rng.below(80) {
                    v.push(v[v.len() - back]);
                }
            }
            1 => v.extend(std::iter::repeat_n(b'0' + rng.below(alphabet) as u8, rng.below(40))),
            _ => v.push(b' ' + rng.below(alphabet) as u8),
        }
    }
    v.truncate(len);
    v
}

/// Byte positions of `stream`'s control bytes and match items, walking it
/// as a decoder would (stops where the stream stops making sense).
fn item_positions(stream: &[u8]) -> (Vec<usize>, Vec<usize>) {
    let (mut ctrls, mut matches) = (Vec::new(), Vec::new());
    let raw_len = stream.get(..4).map_or(0, |b| u32::from_le_bytes(b.try_into().unwrap()));
    let (mut at, mut produced) = (4, 0u64);
    while produced < u64::from(raw_len) && at < stream.len() {
        let ctrl = stream[at];
        ctrls.push(at);
        at += 1;
        for bit in 0..8 {
            if produced >= u64::from(raw_len) || at >= stream.len() {
                break;
            }
            if ctrl >> bit & 1 == 0 {
                at += 1;
                produced += 1;
            } else {
                matches.push(at);
                produced += u64::from(stream.get(at + 2).copied().unwrap_or(0)) + 4;
                at += 3;
            }
        }
    }
    (ctrls, matches)
}

/// `stream` with one to four mutations applied.
fn mutate(stream: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut s = stream.to_vec();
    for _ in 0..1 + rng.below(4) {
        let (ctrls, matches) = item_positions(&s);
        match rng.below(8) {
            0 if !ctrls.is_empty() => {
                let at = ctrls[rng.below(ctrls.len())];
                s[at] ^= 1 + rng.below(255) as u8;
            }
            1 if !matches.is_empty() => {
                let at = matches[rng.below(matches.len())];
                let off = match rng.below(4) {
                    0 => 0,
                    1 => 1 + rng.below(16),
                    2 => at.saturating_sub(4) + rng.below(8),
                    _ => rng.below(1 << 16),
                } as u16;
                if let Some(item) = s.get_mut(at..at + 2) {
                    item.copy_from_slice(&off.to_le_bytes());
                }
            }
            2 if !matches.is_empty() => {
                let at = matches[rng.below(matches.len())];
                if let Some(b) = s.get_mut(at + 2) {
                    *b = rng.below(256) as u8;
                }
            }
            3 if s.len() >= 4 => {
                let raw = u32::from_le_bytes(s[..4].try_into().unwrap());
                let declared = match rng.below(6) {
                    0 => raw.wrapping_add(1 + rng.below(300) as u32),
                    1 => raw.saturating_sub(1 + rng.below(300) as u32),
                    2 => rng.next() as u32,
                    3 => MAX_FRAME_LEN as u32 + rng.below(2) as u32,
                    4 => 0,
                    _ => rng.below(1 << 20) as u32,
                };
                s[..4].copy_from_slice(&declared.to_le_bytes());
            }
            4 if !s.is_empty() => {
                // A multi-byte flip.
                for _ in 0..1 + rng.below(8) {
                    let at = rng.below(s.len());
                    s[at] ^= 1 + rng.below(255) as u8;
                }
            }
            5 if !s.is_empty() => {
                // Splice a range out.
                let at = rng.below(s.len());
                let n = 1 + rng.below((s.len() - at).min(64));
                s.drain(at..at + n);
            }
            6 => {
                // Splice in random bytes, or a copy of a range.
                let at = rng.below(s.len() + 1);
                let ins: Vec<u8> = if rng.below(2) == 0 || s.is_empty() {
                    (0..1 + rng.below(32)).map(|_| rng.next() as u8).collect()
                } else {
                    let from = rng.below(s.len());
                    s[from..(from + 1 + rng.below(64)).min(s.len())].to_vec()
                };
                s.splice(at..at, ins);
            }
            _ => s.truncate(rng.below(s.len() + 1)),
        }
    }
    s
}

/// Decodes `stream` with the library (into the reused `out`) and with the
/// reference, and asserts the same outcome and a capped buffer.
fn assert_same_decode(stream: &[u8], out: &mut Vec<u8>) {
    let expect = reference::lz_decompress(stream, MAX_FRAME_LEN);
    let got = codec::decode(CODEC_LZ, stream, MAX_FRAME_LEN, out).map(<[u8]>::to_vec);
    assert_eq!(
        got,
        expect,
        "stream of {} bytes: {:02x?}",
        stream.len(),
        &stream[..stream.len().min(48)]
    );
    assert!(out.capacity() <= MAX_FRAME_LEN, "buffer grew to {} bytes", out.capacity());
}

#[test]
fn fixture_streams_decode_as_the_reference_does() {
    let mut out = Vec::new();
    for stream in fixture_streams() {
        assert_same_decode(&stream, &mut out);
        assert!(reference::lz_decompress(&stream, MAX_FRAME_LEN).is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_streams_decode_as_the_reference_does(seed in any::<u64>()) {
        let mut rng = Rng(seed | 1);
        let fixtures = fixture_streams();
        let base = if rng.below(3) == 0 {
            fixtures[rng.below(fixtures.len())].clone()
        } else {
            reference::lz_compress(&random_input(&mut rng))
        };
        // One buffer for the whole case: its old contents must not leak.
        let mut out = Vec::new();
        assert_same_decode(&base, &mut out);
        for _ in 0..24 {
            assert_same_decode(&mutate(&base, &mut rng), &mut out);
        }
    }

    #[test]
    fn a_reused_encoder_matches_the_reference_frame_by_frame(seed in any::<u64>()) {
        let mut rng = Rng(seed | 1);
        let mut encoder = codec::Encoder::new(Codec::Lz);
        let mut stored = Vec::new();
        for _ in 0..1 + rng.below(6) {
            let frame = random_input(&mut rng);
            let packed = reference::lz_compress(&frame);
            let (expect_id, expect) = if packed.len() < frame.len() {
                (CODEC_LZ, packed)
            } else {
                (CODEC_RAW, frame.clone())
            };
            stored.clear();
            prop_assert_eq!(encoder.encode(&frame, &mut stored), expect_id);
            prop_assert_eq!(&stored, &expect);
        }
    }
}
