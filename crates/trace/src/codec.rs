//! Per-frame payload codecs for the v3 `.sptrc` layout (DESIGN.md §17.3).
//!
//! A v3 frame carries a one-byte codec id between the frame kind and the
//! length field; the length counts *stored* (post-codec) bytes. Two codecs
//! exist:
//!
//! * [`CODEC_RAW`] — the payload verbatim. Also the per-frame fallback:
//!   when compression fails to shrink a payload the writer stores it raw,
//!   so a pathological (incompressible) chunk never grows the file.
//! * [`CODEC_LZ`] — an in-crate LZSS variant (no external dependencies):
//!   a 4-byte raw-length prefix followed by groups of one control byte
//!   and eight items. A `0` flag bit is one literal byte; a `1` flag bit
//!   is a back-reference `[offset: u16 LE][length-4: u8]` into the
//!   already-decompressed output (offset `1..=65535`, length `4..=259`).
//!   Matches are found greedily through a 4-byte-prefix hash table, so
//!   compression is a pure function of the input bytes — the determinism
//!   contract (same units ⇒ same file bytes) extends to compressed
//!   shards.
//!
//! Decompression is bounds-checked end to end: the raw-length prefix is
//! validated against the caller's cap *before* any allocation, every
//! back-reference must land inside the bytes already produced, and the
//! stream must reconstruct exactly the promised length. Corrupt input is
//! an error, never a panic or an over-allocation.

use std::borrow::Cow;

/// Codec id for uncompressed payloads (and the compression fallback).
pub const CODEC_RAW: u8 = 0;

/// Codec id for the in-crate LZSS codec.
pub const CODEC_LZ: u8 = 1;

/// Shortest match worth encoding: a match costs 3 bytes + 1/8th of a
/// control byte, so 4 literal bytes is the break-even point.
const MIN_MATCH: usize = 4;

/// Longest encodable match (`MIN_MATCH + u8::MAX`).
const MAX_MATCH: usize = 259;

/// Furthest back-reference (`u16::MAX`); offset 0 is invalid.
const MAX_OFFSET: usize = 65_535;

const HASH_BITS: u32 = 15;

/// Human-readable codec name, or `None` for an unknown id.
pub fn codec_name(id: u8) -> Option<&'static str> {
    match id {
        CODEC_RAW => Some("raw"),
        CODEC_LZ => Some("lz"),
        _ => None,
    }
}

/// The codec a v3 writer is asked to apply to its frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Codec {
    /// Store every payload verbatim (codec byte [`CODEC_RAW`]).
    #[default]
    Raw,
    /// LZSS-compress each payload, falling back to raw per frame when the
    /// compressed form is not strictly smaller.
    Lz,
}

impl Codec {
    /// Parses a user-facing codec name (`raw` / `lz`).
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "raw" => Ok(Self::Raw),
            "lz" => Ok(Self::Lz),
            other => Err(format!("unknown trace codec `{other}` (expected `raw` or `lz`)")),
        }
    }

    /// The user-facing name (`raw` / `lz`).
    pub fn name(self) -> &'static str {
        match self {
            Self::Raw => "raw",
            Self::Lz => "lz",
        }
    }
}

/// Appends `payload` encoded under `codec` to `out` and returns the codec
/// id actually used. LZ falls back to raw per frame when compression does
/// not strictly shrink the payload, so the stored form is never larger
/// than the raw form. Writing into the caller's buffer (the writer's frame
/// scratch) keeps raw frames copy-free beyond that one append.
pub fn encode(codec: Codec, payload: &[u8], out: &mut Vec<u8>) -> u8 {
    if codec == Codec::Lz {
        let start = out.len();
        lz_compress(payload, out);
        if out.len() - start < payload.len() {
            return CODEC_LZ;
        }
        out.truncate(start);
    }
    out.extend_from_slice(payload);
    CODEC_RAW
}

/// Decodes stored frame bytes back to the payload. A raw frame is handed
/// back as the bytes it was stored in (no copy). `max_len` caps the
/// decoded size (readers pass [`MAX_FRAME_LEN`](crate::MAX_FRAME_LEN)): a
/// corrupt or hostile length is rejected before allocation.
pub fn decode(codec_id: u8, stored: &[u8], max_len: usize) -> Result<Cow<'_, [u8]>, String> {
    match codec_id {
        CODEC_RAW => {
            if stored.len() > max_len {
                return Err(format!(
                    "raw payload of {} bytes exceeds the {max_len}-byte cap",
                    stored.len()
                ));
            }
            Ok(Cow::Borrowed(stored))
        }
        CODEC_LZ => lz_decompress(stored, max_len).map(Cow::Owned),
        other => Err(format!("unknown frame codec id {other}")),
    }
}

fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Greedy LZSS compression, appended to `out`. Deterministic: the bytes
/// appended depend only on `input`.
fn lz_compress(input: &[u8], out: &mut Vec<u8>) {
    out.reserve(input.len() / 2 + 16);
    out.extend_from_slice(&(input.len() as u32).to_le_bytes());

    // Candidate positions for each 4-byte prefix hash. usize::MAX = empty.
    let mut table = vec![usize::MAX; 1 << HASH_BITS];
    let mut i = 0usize;
    // One control byte governs the next 8 items; patch it in place once
    // its flags are known.
    let mut ctrl_at = usize::MAX;
    let mut ctrl_bit = 8u8;

    while i < input.len() {
        if ctrl_bit == 8 {
            ctrl_at = out.len();
            out.push(0);
            ctrl_bit = 0;
        }
        let mut match_len = 0usize;
        let mut match_off = 0usize;
        if i + MIN_MATCH <= input.len() {
            let h = hash4(&input[i..]);
            let cand = table[h];
            table[h] = i;
            if cand != usize::MAX && i - cand <= MAX_OFFSET {
                let limit = (input.len() - i).min(MAX_MATCH);
                let mut len = 0usize;
                while len < limit && input[cand + len] == input[i + len] {
                    len += 1;
                }
                if len >= MIN_MATCH {
                    match_len = len;
                    match_off = i - cand;
                }
            }
        }
        if match_len > 0 {
            out[ctrl_at] |= 1 << ctrl_bit;
            out.extend_from_slice(&(match_off as u16).to_le_bytes());
            out.push((match_len - MIN_MATCH) as u8);
            // Seed the hash table through the matched region so later
            // matches can reference into it.
            let end = i + match_len;
            i += 1;
            while i < end {
                if i + MIN_MATCH <= input.len() {
                    table[hash4(&input[i..])] = i;
                }
                i += 1;
            }
        } else {
            out.push(input[i]);
            i += 1;
        }
        ctrl_bit += 1;
    }
}

/// Bounds-checked LZSS decompression; inverse of [`lz_compress`].
fn lz_decompress(stored: &[u8], max_len: usize) -> Result<Vec<u8>, String> {
    if stored.len() < 4 {
        return Err(format!("compressed payload too short ({} bytes)", stored.len()));
    }
    let raw_len = u32::from_le_bytes([stored[0], stored[1], stored[2], stored[3]]) as usize;
    if raw_len > max_len {
        return Err(format!(
            "compressed payload declares {raw_len} bytes, over the {max_len}-byte cap"
        ));
    }
    let mut out = Vec::with_capacity(raw_len);
    let mut at = 4usize;
    while out.len() < raw_len {
        let Some(&ctrl) = stored.get(at) else {
            return Err(format!(
                "compressed payload truncated at byte {at} ({} of {raw_len} bytes decoded)",
                out.len()
            ));
        };
        at += 1;
        for bit in 0..8 {
            if out.len() >= raw_len {
                break;
            }
            if ctrl & (1 << bit) == 0 {
                let Some(&b) = stored.get(at) else {
                    return Err(format!("compressed payload truncated in a literal at byte {at}"));
                };
                out.push(b);
                at += 1;
            } else {
                let Some(item) = stored.get(at..at + 3) else {
                    return Err(format!("compressed payload truncated in a match at byte {at}"));
                };
                let off = u16::from_le_bytes([item[0], item[1]]) as usize;
                let len = item[2] as usize + MIN_MATCH;
                at += 3;
                if off == 0 || off > out.len() {
                    return Err(format!(
                        "corrupt back-reference (offset {off} with only {} bytes decoded)",
                        out.len()
                    ));
                }
                if out.len() + len > raw_len {
                    return Err(format!(
                        "corrupt match (length {len} overruns the declared {raw_len}-byte payload)"
                    ));
                }
                // A match overlapping its own output (off < len) repeats
                // the last `off` bytes RLE-style: copy the source in
                // chunks that double as the copied run grows, each chunk
                // lying wholly inside the bytes already produced.
                let start = out.len() - off;
                let mut copied = 0;
                while copied < len {
                    let n = (len - copied).min(off + copied);
                    out.extend_from_within(start..start + n);
                    copied += n;
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lz(input: &[u8]) -> Vec<u8> {
        let mut packed = Vec::new();
        lz_compress(input, &mut packed);
        packed
    }

    fn roundtrip(input: &[u8]) -> Vec<u8> {
        let packed = lz(input);
        lz_decompress(&packed, input.len().max(1)).expect("roundtrip decodes")
    }

    #[test]
    fn empty_and_tiny_inputs_roundtrip() {
        assert_eq!(roundtrip(b""), b"");
        assert_eq!(roundtrip(b"a"), b"a");
        assert_eq!(roundtrip(b"abc"), b"abc");
    }

    #[test]
    fn repetitive_json_compresses_and_roundtrips() {
        let mut input = String::from("[");
        for i in 0..200 {
            input.push_str(&format!(
                "{{\"id\":{i},\"histogram\":[[0,4],[7,2]],\"snapshots\":6,\"truncated\":false}},"
            ));
        }
        input.push(']');
        let bytes = input.as_bytes();
        let packed = lz(bytes);
        assert!(
            packed.len() < bytes.len() / 2,
            "repetitive JSON should at least halve: {} -> {}",
            bytes.len(),
            packed.len()
        );
        assert_eq!(roundtrip(bytes), bytes);
    }

    #[test]
    fn overlapping_matches_replicate_rle_style() {
        let input = vec![b'x'; 10_000];
        let packed = lz(&input);
        assert!(packed.len() < 200, "pure run should collapse: {}", packed.len());
        assert_eq!(roundtrip(&input), input);
    }

    #[test]
    fn incompressible_input_falls_back_to_raw_in_encode() {
        // A pseudo-random byte stream with no 4-byte repeats to speak of.
        let mut x = 0x1234_5678_9abc_def0u64;
        let input: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let mut stored = b"head".to_vec();
        let id = encode(Codec::Lz, &input, &mut stored);
        assert_eq!(id, CODEC_RAW, "noise must not be stored compressed");
        assert_eq!(&stored[..4], b"head", "encode appends after what is there");
        assert_eq!(stored[4..], input[..]);
        // The LZ stream itself still roundtrips even when unprofitable.
        assert_eq!(roundtrip(&input), input);
    }

    #[test]
    fn compression_is_deterministic() {
        let input: Vec<u8> = (0..50_000u32).flat_map(|i| (i % 251).to_le_bytes()).collect();
        assert_eq!(lz(&input), lz(&input));
    }

    #[test]
    fn declared_length_over_cap_is_rejected_before_allocation() {
        let mut stored = (u32::MAX).to_le_bytes().to_vec();
        stored.push(0);
        let err = lz_decompress(&stored, 1024).unwrap_err();
        assert!(err.contains("over the"), "{err}");
    }

    #[test]
    fn corrupt_back_reference_is_an_error_not_a_panic() {
        // raw_len 8, one control byte with a match flag, offset 500 into
        // an empty output.
        let mut stored = 8u32.to_le_bytes().to_vec();
        stored.push(0b0000_0001);
        stored.extend_from_slice(&500u16.to_le_bytes());
        stored.push(0);
        let err = lz_decompress(&stored, 1024).unwrap_err();
        assert!(err.contains("back-reference"), "{err}");
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let input = b"the quick brown fox jumps over the quick brown fox";
        let packed = lz(input);
        for cut in [4, 5, packed.len() - 1] {
            let err = lz_decompress(&packed[..cut], 1024).unwrap_err();
            assert!(err.contains("truncated"), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn match_overrunning_declared_length_is_an_error() {
        // "abcd" then a match of length 4+200 against a 6-byte declared
        // total: the match overruns.
        let mut stored = 6u32.to_le_bytes().to_vec();
        stored.push(0b0001_0000);
        stored.extend_from_slice(b"abcd");
        stored.extend_from_slice(&4u16.to_le_bytes());
        stored.push(200);
        let err = lz_decompress(&stored, 1024).unwrap_err();
        assert!(err.contains("overruns"), "{err}");
    }

    #[test]
    fn unknown_codec_id_is_rejected() {
        let err = decode(9, b"abc", 1024).unwrap_err();
        assert!(err.contains("unknown frame codec"), "{err}");
        assert_eq!(codec_name(9), None);
        assert_eq!(codec_name(CODEC_LZ), Some("lz"));
    }

    #[test]
    fn codec_parse_and_name_roundtrip() {
        assert_eq!(Codec::parse("raw").unwrap(), Codec::Raw);
        assert_eq!(Codec::parse("lz").unwrap(), Codec::Lz);
        assert_eq!(Codec::parse("lz").unwrap().name(), "lz");
        assert!(Codec::parse("zstd").is_err());
    }
}
