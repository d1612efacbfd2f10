//! A stable little-endian byte codec — the serializing twin of
//! [`crate::hash::StableHasher`].
//!
//! The incremental artifact cache persists analysis results across
//! processes, so its encodings must not depend on `std` layout or on the
//! host: every integer is written little-endian, `usize` widens to `u64`,
//! and sequences carry explicit lengths. Each abstract domain that
//! implements a `digest_into` walk pairs it with an `encode_into` /
//! `decode_from` walk over these two types, and `decode(encode(x)) == x`
//! holds exactly.
//!
//! Decoding reads untrusted bytes: every read is bounds-checked and
//! returns `None` on exhaustion, and [`Reader::length`] caps lengths so a
//! corrupted file cannot request a huge allocation.

/// An append-only byte sink.
///
/// # Example
///
/// ```
/// use wcet_isa::codec::{Reader, Writer};
///
/// let mut w = Writer::new();
/// w.u32(0x1000);
/// w.str("main");
/// let bytes = w.into_bytes();
/// let mut r = Reader::new(&bytes);
/// assert_eq!(r.u32(), Some(0x1000));
/// assert_eq!(r.str().as_deref(), Some("main"));
/// assert!(r.done());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Writer {
        Writer {
            buf: Vec::with_capacity(256),
        }
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a boolean as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a `usize`, widened to `u64` so 32- and 64-bit hosts agree.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a `u64` as an LEB128 varint: seven bits per byte, high
    /// bit set on every byte but the last — one byte below 128.
    pub fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.u8((v & 0x7f) as u8 | 0x80);
            v >>= 7;
        }
        self.u8(v as u8);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }

    /// The bytes written so far.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, yielding its bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// A bounds-checked cursor over untrusted bytes.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// The next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.bytes.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(slice)
    }

    /// One byte.
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    /// A boolean written by [`Writer::bool`]; any other byte is `None`.
    pub fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// A `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    /// A `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// A `usize` written by [`Writer::usize`].
    pub fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    /// A `u64` written by [`Writer::varint`]; `None` for an encoding that
    /// runs out or overflows 64 bits.
    pub fn varint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let bits = u64::from(byte & 0x7f);
            if bits << shift >> shift != bits {
                return None;
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return Some(v);
            }
        }
        None
    }

    /// A sequence length, sanity-capped so a corrupted file cannot
    /// request a huge allocation.
    pub fn length(&mut self) -> Option<usize> {
        let n = self.usize()?;
        (n <= self.bytes.len().max(1 << 20)).then_some(n)
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<String> {
        let n = self.length()?;
        String::from_utf8(self.take(n)?.to_vec()).ok()
    }

    /// True once every byte has been consumed.
    #[must_use]
    pub fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.bool(true);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.usize(42);
        w.str("ctx");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.bool(), Some(true));
        assert_eq!(r.u32(), Some(0xdead_beef));
        assert_eq!(r.u64(), Some(u64::MAX - 1));
        assert_eq!(r.usize(), Some(42));
        assert_eq!(r.str().as_deref(), Some("ctx"));
        assert!(r.done());
        assert_eq!(r.u8(), None, "exhausted readers yield nothing");
    }

    #[test]
    fn malformed_input_reads_as_none() {
        let mut r = Reader::new(&[2]);
        assert_eq!(r.bool(), None, "only 0 and 1 are booleans");
        let mut w = Writer::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        assert_eq!(
            Reader::new(&bytes).length(),
            None,
            "absurd lengths rejected"
        );
        assert_eq!(Reader::new(&bytes[..3]).u32(), None);
        assert_eq!(Reader::new(&[0x80]).varint(), None, "unterminated varint");
        assert_eq!(Reader::new(&[0xff; 10]).varint(), None, "over 64 bits");
    }

    #[test]
    fn varints_round_trip_and_stay_short() {
        for v in [0, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut w = Writer::new();
            w.varint(v);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(r.varint(), Some(v));
            assert!(r.done());
            assert_eq!(bytes.len() == 1, v < 128, "{v}: {} byte(s)", bytes.len());
        }
    }
}
