//! XDR: eXternal Data Representation (RFC 1014), the serialization
//! layer of SunRPC.
//!
//! Everything is big-endian and padded to 4-byte units, exactly as the
//! standard library's `xdr_*` routines produce. In the VRPC structure
//! (paper Figure 6) the stream layer has been folded into this layer:
//! the encoder writes into a buffer that the transport transmits without
//! further copying.

/// XDR encoding errors never occur (encoding is total); decoding errors:
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XdrError {
    /// Ran off the end of the input.
    Short {
        /// Bytes needed by the failing read.
        needed: usize,
        /// Bytes remaining.
        have: usize,
    },
    /// A decoded discriminant or length was invalid.
    Invalid(&'static str),
}

impl std::fmt::Display for XdrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XdrError::Short { needed, have } => {
                write!(f, "xdr input too short: needed {needed} bytes, have {have}")
            }
            XdrError::Invalid(what) => write!(f, "invalid xdr value: {what}"),
        }
    }
}

impl std::error::Error for XdrError {}

/// Serializer producing XDR bytes.
///
/// ```
/// use shrimp_sunrpc::{XdrEncoder, XdrDecoder};
/// let mut enc = XdrEncoder::new();
/// enc.put_u32(7);
/// enc.put_string("hi");
/// let mut dec = XdrDecoder::new(enc.as_bytes());
/// assert_eq!(dec.get_u32().unwrap(), 7);
/// assert_eq!(dec.get_string().unwrap(), "hi");
/// ```
#[derive(Debug, Default, Clone)]
pub struct XdrEncoder {
    buf: Vec<u8>,
}

impl XdrEncoder {
    /// Empty encoder.
    pub fn new() -> XdrEncoder {
        XdrEncoder::default()
    }

    /// The encoded bytes so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consume into the encoded byte vector.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Encoded length so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append an unsigned 32-bit integer.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a signed 32-bit integer.
    pub fn put_i32(&mut self, v: i32) {
        self.put_u32(v as u32);
    }

    /// Append an unsigned 64-bit integer (XDR hyper).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a boolean (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u32(v as u32);
    }

    /// Append a double (IEEE 754, big-endian).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append fixed-length opaque data (padded to 4 bytes).
    pub fn put_opaque_fixed(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
        let pad = (4 - data.len() % 4) % 4;
        self.buf.extend(std::iter::repeat_n(0u8, pad));
    }

    /// Append variable-length opaque data (length-prefixed, padded).
    pub fn put_opaque(&mut self, data: &[u8]) {
        self.put_u32(data.len() as u32);
        self.put_opaque_fixed(data);
    }

    /// Append a string (UTF-8 bytes as opaque).
    pub fn put_string(&mut self, s: &str) {
        self.put_opaque(s.as_bytes());
    }

    /// Append already-encoded XDR bytes verbatim (results after a reply
    /// header, for instance).
    ///
    /// # Panics
    ///
    /// Panics unless `bytes` is a whole number of XDR units (4 bytes).
    pub fn append_encoded(&mut self, bytes: &[u8]) {
        assert!(bytes.len().is_multiple_of(4), "XDR data is 4-byte aligned");
        self.buf.extend_from_slice(bytes);
    }

    /// Append an array with a length prefix, encoding each element.
    pub fn put_array<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.put_u32(items.len() as u32);
        for item in items {
            f(self, item);
        }
    }
}

/// Deserializer consuming XDR bytes.
#[derive(Debug, Clone)]
pub struct XdrDecoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> XdrDecoder<'a> {
    /// Decode from a byte slice.
    pub fn new(buf: &'a [u8]) -> XdrDecoder<'a> {
        XdrDecoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], XdrError> {
        if self.remaining() < n {
            return Err(XdrError::Short {
                needed: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read an unsigned 32-bit integer.
    ///
    /// # Errors
    ///
    /// [`XdrError::Short`] if fewer than 4 bytes remain.
    pub fn get_u32(&mut self) -> Result<u32, XdrError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a signed 32-bit integer.
    ///
    /// # Errors
    ///
    /// As [`XdrDecoder::get_u32`].
    pub fn get_i32(&mut self) -> Result<i32, XdrError> {
        Ok(self.get_u32()? as i32)
    }

    /// Read an unsigned 64-bit integer.
    ///
    /// # Errors
    ///
    /// [`XdrError::Short`] if fewer than 8 bytes remain.
    pub fn get_u64(&mut self) -> Result<u64, XdrError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes(b.try_into().expect("8 bytes")))
    }

    /// Read a boolean.
    ///
    /// # Errors
    ///
    /// [`XdrError::Invalid`] unless the value is 0 or 1.
    pub fn get_bool(&mut self) -> Result<bool, XdrError> {
        match self.get_u32()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(XdrError::Invalid("bool")),
        }
    }

    /// Read a double.
    ///
    /// # Errors
    ///
    /// [`XdrError::Short`] if fewer than 8 bytes remain.
    pub fn get_f64(&mut self) -> Result<f64, XdrError> {
        let b = self.take(8)?;
        Ok(f64::from_be_bytes(b.try_into().expect("8 bytes")))
    }

    /// Read `len` bytes of fixed opaque data (skipping padding).
    ///
    /// # Errors
    ///
    /// [`XdrError::Short`] on truncated input.
    pub fn get_opaque_fixed(&mut self, len: usize) -> Result<&'a [u8], XdrError> {
        let data = self.take(len)?;
        let pad = (4 - len % 4) % 4;
        self.take(pad)?;
        Ok(data)
    }

    /// Read variable-length opaque data.
    ///
    /// # Errors
    ///
    /// [`XdrError::Short`] on truncated input.
    pub fn get_opaque(&mut self) -> Result<&'a [u8], XdrError> {
        let len = self.get_u32()? as usize;
        self.get_opaque_fixed(len)
    }

    /// Read a string.
    ///
    /// # Errors
    ///
    /// [`XdrError::Invalid`] if the bytes are not UTF-8.
    pub fn get_string(&mut self) -> Result<&'a str, XdrError> {
        let b = self.get_opaque()?;
        std::str::from_utf8(b).map_err(|_| XdrError::Invalid("utf-8 string"))
    }

    /// Read a length-prefixed array, decoding each element.
    ///
    /// # Errors
    ///
    /// Propagates element decoding errors.
    pub fn get_array<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, XdrError>,
    ) -> Result<Vec<T>, XdrError> {
        let n = self.get_u32()? as usize;
        // Guard against absurd lengths from corrupt input.
        if n > self.remaining() {
            return Err(XdrError::Invalid("array length"));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Where a variable-length item of `len` bytes ends: its length word,
    /// the bytes, padding to a unit.
    fn item_end(len: usize) -> usize {
        4 + len.div_ceil(4) * 4
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary input with its length word steered small enough to
        /// be satisfiable: each decoder either fails or consumes exactly
        /// its item, and never reads past the input.
        #[test]
        fn arbitrary_input_never_panics(
            len in 0u32..64,
            steer in any::<bool>(),
            b in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut b = b;
            if steer && b.len() >= 4 {
                b[..4].copy_from_slice(&len.to_be_bytes());
            }
            let n = b.get(..4).map(|w| u32::from_be_bytes(w.try_into().unwrap()) as usize);

            let mut d = XdrDecoder::new(&b);
            if let Ok(data) = d.get_opaque() {
                let n = n.unwrap();
                prop_assert_eq!(data, &b[4..4 + n]);
                prop_assert_eq!(d.position(), item_end(n));
            }
            prop_assert!(d.position() <= b.len());

            let mut d = XdrDecoder::new(&b);
            if let Ok(text) = d.get_string() {
                prop_assert_eq!(text.as_bytes(), &b[4..4 + n.unwrap()]);
            }
            prop_assert!(d.position() <= b.len());

            let mut d = XdrDecoder::new(&b);
            if let Ok(words) = d.get_array(|d| d.get_u32()) {
                prop_assert_eq!(words.len(), n.unwrap());
                prop_assert_eq!(d.position(), 4 + 4 * words.len());
            }
            prop_assert!(d.position() <= b.len());
        }

        #[test]
        fn items_round_trip(
            data in proptest::collection::vec(any::<u8>(), 0..64),
            text in proptest::collection::vec(any::<char>(), 0..16),
            words in proptest::collection::vec(any::<u32>(), 0..16),
        ) {
            let text: String = text.into_iter().collect();
            let mut e = XdrEncoder::new();
            e.put_opaque(&data);
            e.put_string(&text);
            e.put_array(&words, |e, w| e.put_u32(*w));
            let mut d = XdrDecoder::new(e.as_bytes());
            prop_assert_eq!(d.get_opaque(), Ok(&data[..]));
            prop_assert_eq!(d.get_string(), Ok(text.as_str()));
            prop_assert_eq!(d.get_array(|d| d.get_u32()), Ok(words));
            prop_assert_eq!(d.remaining(), 0);
        }
    }

    #[test]
    fn primitives_round_trip_big_endian() {
        let mut e = XdrEncoder::new();
        e.put_u32(0x0102_0304);
        e.put_i32(-5);
        e.put_u64(0x1122_3344_5566_7788);
        e.put_bool(true);
        e.put_f64(-2.5);
        assert_eq!(&e.as_bytes()[..4], &[1, 2, 3, 4]); // big-endian
        let mut d = XdrDecoder::new(e.as_bytes());
        assert_eq!(d.get_u32().unwrap(), 0x0102_0304);
        assert_eq!(d.get_i32().unwrap(), -5);
        assert_eq!(d.get_u64().unwrap(), 0x1122_3344_5566_7788);
        assert!(d.get_bool().unwrap());
        assert_eq!(d.get_f64().unwrap(), -2.5);
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn opaque_is_padded_to_four_bytes() {
        let mut e = XdrEncoder::new();
        e.put_opaque(b"abcde");
        assert_eq!(e.len(), 4 + 8); // length + 5 data + 3 pad
        let mut d = XdrDecoder::new(e.as_bytes());
        assert_eq!(d.get_opaque().unwrap(), b"abcde");
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn strings_and_arrays_round_trip() {
        let mut e = XdrEncoder::new();
        e.put_string("SHRIMP");
        e.put_array(&[10u32, 20, 30], |e, v| e.put_u32(*v));
        let mut d = XdrDecoder::new(e.as_bytes());
        assert_eq!(d.get_string().unwrap(), "SHRIMP");
        assert_eq!(d.get_array(|d| d.get_u32()).unwrap(), vec![10, 20, 30]);
    }

    #[test]
    fn short_input_is_an_error() {
        let mut d = XdrDecoder::new(&[0, 0]);
        assert_eq!(
            d.get_u32().unwrap_err(),
            XdrError::Short { needed: 4, have: 2 }
        );
    }

    #[test]
    fn invalid_bool_and_array_length_rejected() {
        let mut e = XdrEncoder::new();
        e.put_u32(7);
        let mut d = XdrDecoder::new(e.as_bytes());
        assert_eq!(d.get_bool().unwrap_err(), XdrError::Invalid("bool"));

        let mut e = XdrEncoder::new();
        e.put_u32(u32::MAX);
        let mut d = XdrDecoder::new(e.as_bytes());
        assert_eq!(
            d.get_array(|d| d.get_u32()).unwrap_err(),
            XdrError::Invalid("array length")
        );
    }

    #[test]
    fn zero_length_opaque() {
        let mut e = XdrEncoder::new();
        e.put_opaque(b"");
        assert_eq!(e.len(), 4);
        let mut d = XdrDecoder::new(e.as_bytes());
        assert_eq!(d.get_opaque().unwrap(), b"");
    }
}
