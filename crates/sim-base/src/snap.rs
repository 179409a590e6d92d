//! Versioned binary codec for deterministic checkpoint/restore.
//!
//! The simulator snapshots **dynamic state only** (gem5-style): structure —
//! cores, caches, networks, the Rc wiring between them — is rebuilt by
//! re-running the constructors with the same specification, and the dynamic
//! state recorded here is then loaded into the reconstructed machine. A
//! [`Fingerprint`] over the canonical encoding of that specification guards
//! against loading a snapshot into a different machine.
//!
//! The format is deliberately hand-rolled (the workspace carries no
//! external dependencies) and append-only little-endian:
//!
//! * integers are fixed-width little-endian;
//! * `f64` round-trips through [`f64::to_bits`] so restored state is
//!   bit-identical (NaN payloads and `-0.0` included);
//! * every component section starts with a [`SnapWriter::mark`] — a 32-bit
//!   FNV hash of a label — so a misaligned reader fails loudly at the next
//!   section boundary instead of silently decoding garbage.

use std::fmt;

/// First bytes of every snapshot ("GLSN").
pub const SNAP_MAGIC: u32 = 0x474C_534E;
/// Bump on any incompatible change to the encoded layout.
/// v2: per-core `Breakdown` gained an `idle` field (open-loop arrivals).
/// v3: one GLock driver for every GLock lock — a statically mapped lock
/// now saves its tenure paths and fail-back controller even without a
/// fault plan, and its scripts use the merged GLock driver's phase tags.
pub const SNAP_VERSION: u32 = 3;

/// Why a snapshot could not be written or read back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapError {
    /// The reader ran off the end of the buffer.
    Truncated { at: usize },
    /// The buffer does not start with [`SNAP_MAGIC`].
    BadMagic { found: u32 },
    /// The snapshot was written by an incompatible codec version.
    VersionMismatch { found: u32, expected: u32 },
    /// The snapshot belongs to a different machine specification.
    FingerprintMismatch { found: u64, expected: u64 },
    /// A section marker did not match: writer and reader disagree on
    /// layout (usually a save/load pair out of sync).
    MarkMismatch { label: &'static str },
    /// An enum tag was out of range for `what`.
    BadTag { what: &'static str, tag: u64 },
    /// A component cannot be snapshotted (e.g. an exotic workload without
    /// save support).
    Unsupported { what: &'static str },
    /// Structurally invalid content (negative lengths, shape mismatches).
    Corrupt { what: &'static str },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated { at } => write!(f, "snapshot truncated at byte {at}"),
            SnapError::BadMagic { found } => {
                write!(f, "not a snapshot (magic {found:#010x}, expected {SNAP_MAGIC:#010x})")
            }
            SnapError::VersionMismatch { found, expected } => {
                write!(f, "snapshot version {found} incompatible with codec version {expected}")
            }
            SnapError::FingerprintMismatch { found, expected } => write!(
                f,
                "snapshot fingerprint {found:#018x} does not match this \
                 configuration's fingerprint {expected:#018x}"
            ),
            SnapError::MarkMismatch { label } => {
                write!(f, "section marker mismatch at {label:?}")
            }
            SnapError::BadTag { what, tag } => write!(f, "invalid tag {tag} for {what}"),
            SnapError::Unsupported { what } => write!(f, "{what} does not support snapshotting"),
            SnapError::Corrupt { what } => write!(f, "corrupt snapshot section: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a over a label, used for section markers.
fn fnv32(label: &str) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for b in label.bytes() {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Append-only snapshot encoder.
#[derive(Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    pub fn new() -> Self {
        SnapWriter::default()
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Begin a named section. The matching [`SnapReader::expect`] verifies
    /// writer and reader walk the same layout.
    pub fn mark(&mut self, label: &str) {
        self.u32(fnv32(label));
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Bit-exact f64 (NaN payloads and signed zeros survive).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.bool(false),
            Some(x) => {
                self.bool(true);
                self.u64(x);
            }
        }
    }

    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.buf.extend_from_slice(b);
    }

    pub fn u64_slice(&mut self, xs: &[u64]) {
        self.usize(xs.len());
        for &x in xs {
            self.u64(x);
        }
    }

    /// Length-prefixed sequence via a per-item closure.
    pub fn seq<T>(&mut self, xs: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.usize(xs.len());
        for x in xs {
            f(self, x);
        }
    }
}

/// Snapshot decoder over a byte buffer.
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated { at: self.pos });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Verify the next section marker; see [`SnapWriter::mark`].
    pub fn expect(&mut self, label: &'static str) -> Result<(), SnapError> {
        if self.u32()? != fnv32(label) {
            return Err(SnapError::MarkMismatch { label });
        }
        Ok(())
    }

    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(SnapError::BadTag { what: "bool", tag: u64::from(tag) }),
        }
    }

    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn i64(&mut self) -> Result<i64, SnapError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::Corrupt { what: "length" })
    }

    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn opt_u64(&mut self) -> Result<Option<u64>, SnapError> {
        Ok(if self.bool()? { Some(self.u64()?) } else { None })
    }

    pub fn str(&mut self) -> Result<String, SnapError> {
        let n = self.usize()?;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| SnapError::Corrupt { what: "utf-8 string" })
    }

    pub fn bytes(&mut self) -> Result<Vec<u8>, SnapError> {
        let n = self.usize()?;
        Ok(self.take(n)?.to_vec())
    }

    pub fn u64_vec(&mut self) -> Result<Vec<u64>, SnapError> {
        let n = self.usize()?;
        (0..n).map(|_| self.u64()).collect()
    }

    /// Length-prefixed sequence via a per-item closure.
    pub fn seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, SnapError>,
    ) -> Result<Vec<T>, SnapError> {
        let n = self.usize()?;
        (0..n).map(|_| f(self)).collect()
    }

    /// Fixed-length sequence (the count comes from the reconstructed
    /// structure, not the buffer): call `f` exactly `n` times.
    pub fn each(
        &mut self,
        n: usize,
        mut f: impl FnMut(&mut Self, usize) -> Result<(), SnapError>,
    ) -> Result<(), SnapError> {
        for i in 0..n {
            f(self, i)?;
        }
        Ok(())
    }
}

/// FNV-1a 64-bit accumulator for configuration fingerprints. Feed it the
/// canonical encoding of everything that shapes the machine; the digest
/// gates [`SnapError::FingerprintMismatch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xCBF2_9CE4_8422_2325)
    }
}

impl Fingerprint {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn mix_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn mix_u64(&mut self, v: u64) {
        self.mix_bytes(&v.to_le_bytes());
    }

    pub fn mix_str(&mut self, s: &str) {
        self.mix_u64(s.len() as u64);
        self.mix_bytes(s.as_bytes());
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut w = SnapWriter::new();
        w.mark("test");
        w.u8(7);
        w.bool(true);
        w.u16(65_000);
        w.u32(123_456);
        w.u64(u64::MAX - 3);
        w.i64(-42);
        w.usize(99);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.opt_u64(None);
        w.opt_u64(Some(5));
        w.str("héllo");
        w.u64_slice(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        r.expect("test").unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 65_000);
        assert_eq!(r.u32().unwrap(), 123_456);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.usize().unwrap(), 99);
        let z = r.f64().unwrap();
        assert_eq!(z.to_bits(), (-0.0f64).to_bits(), "signed zero preserved");
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.opt_u64().unwrap(), Some(5));
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.u64_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = SnapWriter::new();
        w.u64(1);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..4]);
        assert!(matches!(r.u64(), Err(SnapError::Truncated { .. })));
    }

    #[test]
    fn marks_catch_misalignment() {
        let mut w = SnapWriter::new();
        w.mark("cores");
        w.u64(3);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.expect("noc"), Err(SnapError::MarkMismatch { label: "noc" }));
    }

    #[test]
    fn bad_bool_is_a_tag_error() {
        let mut r = SnapReader::new(&[9]);
        assert!(matches!(r.bool(), Err(SnapError::BadTag { what: "bool", .. })));
    }

    #[test]
    fn seq_round_trips() {
        let mut w = SnapWriter::new();
        w.seq(&[10u64, 20, 30], |w, &x| w.u64(x));
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.seq(|r| r.u64()).unwrap(), vec![10, 20, 30]);
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let mut a = Fingerprint::new();
        a.mix_u64(1);
        a.mix_u64(2);
        let mut b = Fingerprint::new();
        b.mix_u64(2);
        b.mix_u64(1);
        assert_ne!(a.value(), b.value());
        let mut c = Fingerprint::new();
        c.mix_u64(1);
        c.mix_u64(2);
        assert_eq!(a.value(), c.value());
    }

    #[test]
    fn string_fingerprints_are_prefix_safe() {
        let mut a = Fingerprint::new();
        a.mix_str("ab");
        a.mix_str("c");
        let mut b = Fingerprint::new();
        b.mix_str("a");
        b.mix_str("bc");
        assert_ne!(a.value(), b.value());
    }
}
