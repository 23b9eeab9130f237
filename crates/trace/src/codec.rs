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
//! an error, never a panic or an over-allocation. The decoder's bounds
//! argument is on `lz_decompress`.

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

/// Encodes frame payloads under one [`Codec`], keeping the LZ match table
/// from frame to frame: a writer holds one and allocates the table once
/// (on its first LZ frame), not once per frame.
///
/// Table entries are `u32` positions offset by a per-frame `base`: an entry
/// below the current frame's base was stored by an earlier frame and reads
/// as empty, so starting a frame costs one addition rather than a 128 KiB
/// clear. The stored bytes are exactly those of a fresh table per frame.
/// Payloads are at most [`MAX_FRAME_LEN`](crate::MAX_FRAME_LEN) (the
/// writer checks), far below the 4 GiB that `u32` positions and the LZ
/// length prefix hold.
#[derive(Debug)]
pub struct Encoder {
    codec: Codec,
    table: Vec<u32>,
    /// Offset of the current frame's position 0 in `table`'s entries;
    /// entries below it are stale. Starts at 1 so a zeroed table is empty.
    base: u32,
}

impl Encoder {
    /// An encoder applying `codec`.
    pub fn new(codec: Codec) -> Self {
        Self { codec, table: Vec::new(), base: 1 }
    }

    /// The codec this encoder applies.
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// Appends `payload` encoded under the encoder's codec to `out` and
    /// returns the codec id actually used. LZ falls back to raw per frame
    /// when compression does not strictly shrink the payload, so the stored
    /// form is never larger than the raw form. Writing into the caller's
    /// buffer (the writer's frame scratch) keeps raw frames copy-free
    /// beyond that one append.
    pub fn encode(&mut self, payload: &[u8], out: &mut Vec<u8>) -> u8 {
        if self.codec == Codec::Lz {
            let start = out.len();
            self.lz_compress(payload, out);
            if out.len() - start < payload.len() {
                return CODEC_LZ;
            }
            out.truncate(start);
        }
        out.extend_from_slice(payload);
        CODEC_RAW
    }

    /// Greedy LZSS compression of `input`, appended to `out`.
    /// Deterministic: the bytes appended depend only on `input`.
    fn lz_compress(&mut self, input: &[u8], out: &mut Vec<u8>) {
        out.reserve(input.len() / 2 + 16);
        out.extend_from_slice(&(input.len() as u32).to_le_bytes());

        // Start a frame: make every entry stale. Positions are `u32`
        // (payloads are capped far below 4 GiB); when this frame's would
        // not fit above `base`, clear the table and start over at 1.
        if self.table.is_empty() || input.len() >= (u32::MAX - self.base) as usize {
            self.table.clear();
            self.table.resize(1 << HASH_BITS, 0);
            self.base = 1;
        }
        let base = self.base;
        self.base += input.len() as u32;
        let table = &mut self.table[..];
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
                let entry = table[h];
                table[h] = base + i as u32;
                // An entry below `base` is an earlier frame's: empty.
                if entry >= base && i - (entry - base) as usize <= MAX_OFFSET {
                    let cand = (entry - base) as usize;
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
                        table[hash4(&input[i..])] = base + i as u32;
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
}

/// Decodes stored frame bytes back to the payload: a raw frame is the
/// stored bytes themselves (no copy), an LZ frame is inflated into `out`
/// (resized to the payload; a reader passes the same buffer for every
/// frame).
/// `max_len` caps the decoded size (readers pass
/// [`MAX_FRAME_LEN`](crate::MAX_FRAME_LEN)): a corrupt or hostile length
/// is rejected before allocation.
pub fn decode<'a>(
    codec_id: u8,
    stored: &'a [u8],
    max_len: usize,
    out: &'a mut Vec<u8>,
) -> Result<&'a [u8], String> {
    match codec_id {
        CODEC_RAW => {
            if stored.len() > max_len {
                return Err(format!(
                    "raw payload of {} bytes exceeds the {max_len}-byte cap",
                    stored.len()
                ));
            }
            Ok(stored)
        }
        CODEC_LZ => {
            lz_decompress(stored, max_len, out)?;
            Ok(out)
        }
        other => Err(format!("unknown frame codec id {other}")),
    }
}

fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Bounds-checked LZSS decompression of `stored` into `out`; inverse of
/// [`Encoder::encode`]'s LZ stream. `out` holds exactly the payload on
/// success, and unspecified bytes on error.
///
/// Bounds argument. The declared `raw_len` is checked against `max_len`
/// first. `out` is then sized once, to `room`: `raw_len`, or less when
/// `stored` is too short to ever produce that much (`reachable`), so the
/// decoder never allocates past `max_len` nor zeroes memory a truncated
/// stream cannot reach. Indices are then checked once per item, not once
/// per byte:
/// * `o`, the bytes produced, only grows: a literal run is cut at
///   `raw_len`, a match past it is an error, and each item adds at most
///   87 bytes per stored byte it consumes, so `o <= room` after every item
///   and every exact write `out[o..o + n]` is in bounds;
/// * a literal run is one checked `stored.get(at..at + n)`, so `at` never
///   passes `stored.len()`;
/// * a match needs `1 <= off <= o` and `o + len <= raw_len`, so its source
///   `out[o - off..]` starts inside the produced bytes ([`copy_match`]).
///
/// Short copies move whole 8- or 16-byte blocks where both buffers have
/// room past the item. The bytes a block writes past the item's end are
/// overwritten by the items after it before anything reads them: a match
/// reads only below `o`, and every byte below `raw_len` is written by its
/// own item last. That is also why `out`'s old contents need no clearing.
///
/// Errors (truncation, bad offsets, overruns) are reported at the first
/// item that fails. `tests/lz_reference.rs` holds bytes and error text to
/// the byte-at-a-time reference decoder in `tests/support/lz.rs`.
fn lz_decompress(stored: &[u8], max_len: usize, out: &mut Vec<u8>) -> Result<(), String> {
    if stored.len() < 4 {
        return Err(format!("compressed payload too short ({} bytes)", stored.len()));
    }
    let raw_len = u32::from_le_bytes([stored[0], stored[1], stored[2], stored[3]]) as usize;
    if raw_len > max_len {
        return Err(format!(
            "compressed payload declares {raw_len} bytes, over the {max_len}-byte cap"
        ));
    }
    // A stored byte yields at most `MAX_MATCH / 3 < 87` payload bytes (a
    // match item is three bytes), so no stream of this length gets past
    // `reachable`: sizing `out` beyond it would only zero memory no item
    // writes, for a declared length that is bound to fail.
    let reachable = (stored.len() - 4).saturating_mul(87);
    let room = raw_len.min(reachable);
    out.reserve_exact(room.saturating_sub(out.len()));
    out.resize(room, 0);
    let out = &mut out[..];
    let mut o = 0usize;
    let mut at = 4usize;
    while o < raw_len {
        let Some(&ctrl) = stored.get(at) else {
            return Err(format!(
                "compressed payload truncated at byte {at} ({o} of {raw_len} bytes decoded)"
            ));
        };
        at += 1;
        // Bit 8 marks the group's end: each step copies the literals up to
        // the next set bit, then decodes the match that bit flags, if any.
        let mut flags = u32::from(ctrl) | 0x100;
        loop {
            let run = (flags.trailing_zeros() as usize).min(raw_len - o);
            if at + 8 <= stored.len() && o + 8 <= room {
                out[o..o + 8].copy_from_slice(&stored[at..at + 8]);
            } else {
                let Some(lits) = stored.get(at..at + run) else {
                    return Err(format!(
                        "compressed payload truncated in a literal at byte {}",
                        stored.len()
                    ));
                };
                out[o..o + run].copy_from_slice(lits);
            }
            (o, at, flags) = (o + run, at + run, flags >> run);
            if flags == 1 || o == raw_len {
                break;
            }
            let Some(item) = stored.get(at..at + 3) else {
                return Err(format!("compressed payload truncated in a match at byte {at}"));
            };
            let off = u16::from_le_bytes([item[0], item[1]]) as usize;
            let len = item[2] as usize + MIN_MATCH;
            if off == 0 || off > o {
                return Err(format!(
                    "corrupt back-reference (offset {off} with only {o} bytes decoded)"
                ));
            }
            if o + len > raw_len {
                return Err(format!(
                    "corrupt match (length {len} overruns the declared {raw_len}-byte payload)"
                ));
            }
            copy_match(out, o, off, len);
            (o, at, flags) = (o + len, at + 3, flags >> 1);
        }
    }
    Ok(())
}

/// Room the decoder's block copies may write past an item's end.
const SLACK: usize = 32;

/// Copies the match of `len` bytes at distance `off` (`1 <= off <= o`,
/// `o + len <= out.len()`) to `out[o..]`. With `off >= 16` and room for
/// [`SLACK`] more bytes, 16-byte blocks: each reads at least 16 bytes
/// behind what it writes, so only bytes already final. Otherwise a match
/// overlapping its own output (`off < len`) repeats the last `off` bytes
/// RLE-style, in chunks that double and never read past what is written.
#[inline(always)]
fn copy_match(out: &mut [u8], o: usize, off: usize, len: usize) {
    let start = o - off;
    if off >= 16 && o + len + SLACK <= out.len() {
        let mut step = 0;
        loop {
            let block: [u8; 16] = out[start + step..][..16].try_into().expect("16 bytes");
            out[o + step..][..16].copy_from_slice(&block);
            step += 16;
            if step >= len {
                return;
            }
        }
    }
    let mut copied = 0;
    while copied < len {
        let n = (len - copied).min(off + copied);
        out.copy_within(start..start + n, o + copied);
        copied += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lz(input: &[u8]) -> Vec<u8> {
        let mut packed = Vec::new();
        Encoder::new(Codec::Lz).lz_compress(input, &mut packed);
        packed
    }

    fn inflate(stored: &[u8], max_len: usize) -> Result<Vec<u8>, String> {
        let mut out = Vec::new();
        lz_decompress(stored, max_len, &mut out).map(|()| out)
    }

    fn roundtrip(input: &[u8]) -> Vec<u8> {
        inflate(&lz(input), input.len().max(1)).expect("roundtrip decodes")
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
        let id = Encoder::new(Codec::Lz).encode(&input, &mut stored);
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
    fn a_reused_encoder_writes_what_a_fresh_one_does() {
        // Frames that share content with the frame before: a stale entry
        // read as a candidate would turn into a (wrong) back-reference.
        let frames: Vec<Vec<u8>> = (0..6u32)
            .map(|f| (0..3_000u32).flat_map(|i| ((i * (f + 1)) % 97).to_le_bytes()).collect())
            .collect();
        let mut enc = Encoder::new(Codec::Lz);
        for frame in &frames {
            let mut reused = Vec::new();
            enc.lz_compress(frame, &mut reused);
            assert_eq!(reused, lz(frame));
        }
        // A frame that would not fit above the base restarts the table.
        enc.base = u32::MAX - 100;
        let mut reused = Vec::new();
        enc.lz_compress(&frames[0], &mut reused);
        assert_eq!(reused, lz(&frames[0]));
        assert_eq!(enc.base, 1 + frames[0].len() as u32);
    }

    #[test]
    fn decoding_reuses_and_resizes_the_buffer() {
        let (long, short) = (vec![b'a'; 5_000], b"abcabcabcabc".to_vec());
        let mut out = Vec::new();
        assert_eq!(decode(CODEC_LZ, &lz(&long), 8_000, &mut out).unwrap(), &long[..]);
        assert_eq!(decode(CODEC_LZ, &lz(&short), 8_000, &mut out).unwrap(), &short[..]);
        assert_eq!(decode(CODEC_RAW, b"raw", 8_000, &mut out).unwrap(), b"raw");
    }

    #[test]
    fn declared_length_over_cap_is_rejected_before_allocation() {
        let mut stored = (u32::MAX).to_le_bytes().to_vec();
        stored.push(0);
        let err = inflate(&stored, 1024).unwrap_err();
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
        let err = inflate(&stored, 1024).unwrap_err();
        assert!(err.contains("back-reference"), "{err}");
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let input = b"the quick brown fox jumps over the quick brown fox";
        let packed = lz(input);
        for cut in [4, 5, packed.len() - 1] {
            let err = inflate(&packed[..cut], 1024).unwrap_err();
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
        let err = inflate(&stored, 1024).unwrap_err();
        assert!(err.contains("overruns"), "{err}");
    }

    #[test]
    fn unknown_codec_id_is_rejected() {
        let err = decode(9, b"abc", 1024, &mut Vec::new()).unwrap_err();
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
