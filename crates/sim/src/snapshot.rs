//! Versioned whole-machine snapshots.
//!
//! A [`Snapshot`] is the byte image produced by
//! [`crate::Simulation::checkpoint`]: a fixed header (magic, codec
//! version, configuration fingerprint, cycle) followed by the dynamic
//! state of every subsystem in a fixed walk order. Structure is **not**
//! stored — [`crate::Simulation::resume`] rebuilds the machine from the
//! same specification and then loads this state into it, gem5-style. The
//! fingerprint in the header is the guard that the specification really is
//! the same: it digests the architectural config, the lock mapping, the
//! simulation options and the codec version, so a snapshot taken on one
//! machine shape refuses to load into another with
//! [`SnapError::FingerprintMismatch`] instead of silently decoding
//! garbage.
//!
//! Snapshots are taken at cycle boundaries only, which is why no scratch
//! buffer, half-delivered message or mid-tick cursor ever needs encoding:
//! everything transient within a cycle has settled when the boundary is
//! reached.

use glocks_sim_base::snap::{SnapError, SnapReader, SNAP_MAGIC, SNAP_VERSION};
use glocks_sim_base::Cycle;

/// Byte offset where the body (post-header) starts: magic + version +
/// fingerprint + cycle.
pub const HEADER_BYTES: usize = 4 + 4 + 8 + 8;

/// A validated checkpoint image.
///
/// Invariant: `bytes` always starts with a well-formed header whose magic
/// and version match this build, so the accessors never fail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    bytes: Vec<u8>,
}

impl Snapshot {
    /// Adopt a buffer produced by [`crate::Simulation::checkpoint`] in
    /// this process (header already well-formed by construction), without
    /// the spare capacity the writer's doubling left behind.
    pub(crate) fn from_trusted(mut bytes: Vec<u8>) -> Self {
        debug_assert!(Self::parse_header(&bytes).is_ok());
        bytes.shrink_to_fit();
        Snapshot { bytes }
    }

    /// Validate and adopt bytes read back from disk. Only the header is
    /// checked here — fingerprint and body verification happen when the
    /// snapshot is loaded into a reconstructed machine.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, SnapError> {
        Self::parse_header(&bytes)?;
        Ok(Snapshot { bytes })
    }

    fn parse_header(bytes: &[u8]) -> Result<(u64, Cycle), SnapError> {
        let mut r = SnapReader::new(bytes);
        let magic = r.u32()?;
        if magic != SNAP_MAGIC {
            return Err(SnapError::BadMagic { found: magic });
        }
        let version = r.u32()?;
        if version != SNAP_VERSION {
            return Err(SnapError::VersionMismatch { found: version, expected: SNAP_VERSION });
        }
        let fingerprint = r.u64()?;
        let cycle = r.u64()?;
        Ok((fingerprint, cycle))
    }

    /// The configuration fingerprint this snapshot was taken under.
    pub fn fingerprint(&self) -> u64 {
        Self::parse_header(&self.bytes).expect("validated at construction").0
    }

    /// The cycle boundary the machine state sits at.
    pub fn cycle(&self) -> Cycle {
        Self::parse_header(&self.bytes).expect("validated at construction").1
    }

    /// The full image, header included (what goes to disk).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    pub fn is_empty(&self) -> bool {
        false // a valid snapshot always carries at least its header
    }

    /// Reader positioned at the body (past the header).
    pub(crate) fn body(&self) -> SnapReader<'_> {
        SnapReader::new(&self.bytes[HEADER_BYTES..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glocks_sim_base::snap::SnapWriter;

    fn header(magic: u32, version: u32, fp: u64, cycle: u64) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u32(magic);
        w.u32(version);
        w.u64(fp);
        w.u64(cycle);
        w.into_bytes()
    }

    #[test]
    fn header_round_trips() {
        let s = Snapshot::from_bytes(header(SNAP_MAGIC, SNAP_VERSION, 0xABCD, 42)).unwrap();
        assert_eq!(s.fingerprint(), 0xABCD);
        assert_eq!(s.cycle(), 42);
        assert_eq!(s.len(), HEADER_BYTES);
        assert!(!s.is_empty());
    }

    #[test]
    fn trusted_images_hold_no_spare_capacity() {
        let mut bytes = header(SNAP_MAGIC, SNAP_VERSION, 0, 7);
        bytes.reserve(4096);
        let s = Snapshot::from_trusted(bytes);
        assert_eq!(s.bytes.capacity(), HEADER_BYTES);
    }

    #[test]
    fn bad_magic_rejected() {
        let e = Snapshot::from_bytes(header(0xDEAD_BEEF, SNAP_VERSION, 0, 0)).unwrap_err();
        assert_eq!(e, SnapError::BadMagic { found: 0xDEAD_BEEF });
    }

    #[test]
    fn older_and_newer_versions_rejected() {
        for version in [SNAP_VERSION - 1, SNAP_VERSION + 1] {
            let e = Snapshot::from_bytes(header(SNAP_MAGIC, version, 0, 0)).unwrap_err();
            assert_eq!(e, SnapError::VersionMismatch { found: version, expected: SNAP_VERSION });
        }
    }

    #[test]
    fn truncated_header_rejected() {
        let mut b = header(SNAP_MAGIC, SNAP_VERSION, 0, 0);
        b.truncate(10);
        assert!(matches!(
            Snapshot::from_bytes(b),
            Err(SnapError::Truncated { .. })
        ));
    }
}
