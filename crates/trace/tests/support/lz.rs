//! The LZ codec as first written: a fresh hash table per frame on the
//! encode side and one checked push per output byte on the decode side.
//! `lz_reference.rs` holds the library's codec to these, byte for byte and
//! error for error. The stream format is described in the library's
//! `codec` module.

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 259;
const MAX_OFFSET: usize = 65_535;
const HASH_BITS: u32 = 15;

fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Greedy LZSS compression of `input`: the raw-length prefix and the item
/// stream, whether or not it is smaller than `input`.
pub fn lz_compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    out.extend_from_slice(&(input.len() as u32).to_le_bytes());
    let mut table = vec![usize::MAX; 1 << HASH_BITS];
    let mut i = 0usize;
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
    out
}

/// Bounds-checked LZSS decompression, one byte at a time.
pub fn lz_decompress(stored: &[u8], max_len: usize) -> Result<Vec<u8>, String> {
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
