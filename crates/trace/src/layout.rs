//! The layout table: the one place the three `.sptrc` layouts differ.
//!
//! Every layout frames `[kind] [codec?] [length: u32 LE] [payload] [CRC32?]`
//! behind an 8-byte magic, so a layout is fully described by its magic and
//! by which of the two optional frame fields it carries. Readers and
//! salvage sniff the layout from the magic and ask it for frame geometry;
//! nothing else in the crate branches on a version number.

use crate::codec::CODEC_RAW;

/// One on-disk layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Layout {
    /// The magic's version suffix, which the footer's `version` repeats.
    pub version: u32,
    /// Opens the file and closes its 12-byte trailer.
    pub magic: &'static [u8; 8],
    /// Frames end in a CRC32 over everything before it in the frame.
    pub has_crc: bool,
    /// Frames carry a codec byte between the kind and the length.
    pub has_codec: bool,
}

/// Every layout this build reads, oldest first.
const LAYOUTS: [Layout; 3] = [
    Layout { version: 1, magic: b"SPTRC\0v1", has_crc: false, has_codec: false },
    Layout { version: 2, magic: b"SPTRC\0v2", has_crc: true, has_codec: false },
    Layout { version: 3, magic: b"SPTRC\0v3", has_crc: true, has_codec: true },
];

/// The layout the writer produces: the newest.
pub(crate) const CURRENT: Layout = LAYOUTS[LAYOUTS.len() - 1];

/// The bytes every magic starts with.
const PREFIX: &[u8] = b"SPTRC\0";

impl Layout {
    /// The layout whose magic `head` is exactly.
    pub fn sniff(head: &[u8]) -> Option<Self> {
        LAYOUTS.into_iter().find(|l| head == l.magic)
    }

    /// Frame bytes before the payload: kind, optional codec, length.
    pub fn head_len(self) -> usize {
        5 + usize::from(self.has_codec)
    }

    /// Frame bytes after the payload: the CRC32, when the layout has one.
    pub fn crc_len(self) -> usize {
        if self.has_crc {
            4
        } else {
            0
        }
    }

    /// Splits a frame head of [`head_len`](Self::head_len) bytes into
    /// `(kind, codec id, stored length)`. Frames without a codec byte are
    /// raw.
    pub fn parse_head(self, head: &[u8]) -> (u8, u8, usize) {
        let codec = if self.has_codec { head[1] } else { CODEC_RAW };
        let n = head.len();
        let len = u32::from_le_bytes([head[n - 4], head[n - 3], head[n - 2], head[n - 1]]);
        (head[0], codec, len as usize)
    }
}

/// True when `head` — a file cut inside its magic — is a prefix of some
/// layout's magic: such a file holds nothing, but it is still a trace.
pub(crate) fn is_cut_magic(head: &[u8]) -> bool {
    head.len() < 8 && LAYOUTS.iter().any(|l| l.magic.starts_with(head))
}

/// True when a file whose first (up to 8) bytes are `head` claims to be a
/// chunked trace: it opens with the prefix every magic shares — whatever
/// the version — or is a non-empty cut of that prefix.
pub(crate) fn claims(head: &[u8]) -> bool {
    let n = head.len().min(PREFIX.len());
    n > 0 && head[..n] == PREFIX[..n]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sniff_matches_only_whole_magics() {
        assert_eq!(Layout::sniff(b"SPTRC\0v1").map(|l| l.version), Some(1));
        assert_eq!(Layout::sniff(b"SPTRC\0v3"), Some(CURRENT));
        assert_eq!(Layout::sniff(b"SPTRC\0v9"), None);
        assert_eq!(Layout::sniff(b"SPTRC\0v"), None);
    }

    #[test]
    fn claims_any_version_and_any_cut_of_the_prefix() {
        for head in [&b"SPTRC\0v9"[..], b"SPTRC\0v2", b"SPTRC", b"S"] {
            assert!(claims(head), "{head:?}");
        }
        for head in [&b""[..], b"{\"version\"", b"SPTRX\0v3"] {
            assert!(!claims(head), "{head:?}");
        }
        assert!(is_cut_magic(b"SPTRC\0v") && is_cut_magic(b""));
        assert!(!is_cut_magic(b"SPTRC\0x") && !is_cut_magic(b"SPTRC\0v3"));
    }
}
