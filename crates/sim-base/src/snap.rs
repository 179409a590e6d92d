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
//!
//! # One declaration per type
//!
//! A snapshotted type implements [`Snap`]: `save` writes its dynamic state
//! and `load` reads it back *in place*, into the instance the rebuilt
//! machine constructed. Both halves come from one [`snap!`](crate::snap!)
//! declaration that lists the fields in encoding order, so they cannot
//! drift apart:
//!
//! ```
//! use glocks_sim_base::snap::{Snap, SnapReader, SnapWriter};
//! use glocks_sim_base::snap;
//!
//! struct Port {
//!     width: u32, // structure, rebuilt by the constructor
//!     sent: u64,
//!     last: Option<u64>,
//! }
//! snap!(Port mark "port" { sent, last; skip width });
//!
//! let mut w = SnapWriter::new();
//! Port { width: 8, sent: 3, last: Some(9) }.save(&mut w);
//! let bytes = w.into_bytes();
//! let mut rebuilt = Port { width: 8, sent: 0, last: None };
//! rebuilt.load(&mut SnapReader::new(&bytes)).unwrap();
//! assert_eq!((rebuilt.sent, rebuilt.last), (3, Some(9)));
//! ```
//!
//! Declarations are exhaustive: `save` and `load` destructure the struct
//! without `..`, and enum variants are matched and rebuilt with struct
//! literals, so a field or variant added without a codec entry — or an
//! explicit `skip` entry for structure — fails to compile instead of
//! silently dropping out of checkpoints:
//!
//! ```compile_fail
//! use glocks_sim_base::snap;
//! struct Port { width: u32, sent: u64, last: Option<u64> }
//! snap!(Port { sent; skip width }); // `last` is neither saved nor skipped
//! ```
//!
//! ```compile_fail
//! use glocks_sim_base::snap;
//! enum Mode { Idle, Busy(u64), Dead }
//! snap!(enum Mode { 0 => Idle, 1 => Busy(cycles) }); // `Dead` has no tag
//! ```
//!
//! The declaration forms:
//!
//! * `snap!(Name { fields })` — a *value*: every field is saved in its own
//!   type's layout, and the type also implements [`Decode`] (built fresh
//!   with a struct literal), so it can sit inside a `Vec`, an `Option` or
//!   an enum variant.
//! * `snap!(Name { fields; skip structure })` — a *component*: the `skip`
//!   fields are structure the constructor rebuilds, and it loads in place
//!   only. A declaration with a codec (`as`, below) is a component too.
//! * `snap!(shared Name { .. })` — a component whose state sits in
//!   `Cell`/`RefCell` fields behind an `Rc`: it also implements
//!   [`SnapShared`], which loads through `&self`.
//! * `snap!(enum Name { tag => Variant, tag => Variant(a, b), tag =>
//!   Variant { x, y } })` — a `u8` tag, then the variant's fields.
//! * `snap!(Name(a, b))` — a tuple struct value.
//!
//! A section may open with a mark: `snap!(Name mark "label" { .. })`. A
//! field written in a layout other than its type's own names a codec
//! module after `as`: [`fixed`] (a sequence whose length the rebuilt
//! machine fixes), [`each`] (a sequence in step with one already written),
//! [`present`] (an optional part of the machine) or [`wide`] (a thread id
//! widened to 64 bits). Hand-written `impl Snap` blocks, both halves side
//! by side, are kept for irregular encodings only: a sorted or compact
//! layout, or a load that validates what it reads against the rebuilt
//! machine.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::hash::Hash;
use std::rc::Rc;

/// First bytes of every snapshot ("GLSN").
pub const SNAP_MAGIC: u32 = 0x474C_534E;
/// Bump on any incompatible change to the encoded layout.
/// v2: per-core `Breakdown` gained an `idle` field (open-loop arrivals).
/// v3: one GLock driver for every GLock lock — a statically mapped lock
/// now saves its tenure paths and fail-back controller even without a
/// fault plan, and its scripts use the merged GLock driver's phase tags.
/// v4: L1 and directory event counts are fixed fields instead of (key,
/// value) pairs, and the NoC's traffic record lost its latency summary.
pub const SNAP_VERSION: u32 = 4;

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

    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
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

    pub fn str(&mut self) -> Result<String, SnapError> {
        let n = self.usize()?;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| SnapError::Corrupt { what: "utf-8 string" })
    }
}

/// A type's dynamic state: `save` writes it, `load` reads it back in place
/// into an instance of the same structure. See the module docs for the
/// [`snap!`](crate::snap!) declaration that generates both halves.
pub trait Snap {
    fn save(&self, w: &mut SnapWriter);
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

/// A [`Snap`] value that needs no rebuilt instance to load into: it can be
/// decoded fresh, as the elements of a `Vec`, `VecDeque`, map or `Option`
/// and the fields of an enum variant are.
pub trait Decode: Snap + Sized {
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

/// State shared through `Rc` between a component and the scripts it
/// manufactured: its `Cell`/`RefCell` fields load through `&self`.
pub trait SnapShared: Snap {
    fn load_shared(&self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

/// Scalars whose [`SnapWriter`]/[`SnapReader`] methods share their name.
macro_rules! snap_scalar {
    ($($t:ident)*) => {$(
        impl Snap for $t {
            fn save(&self, w: &mut SnapWriter) {
                w.$t(*self);
            }
            fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
                *self = r.$t()?;
                Ok(())
            }
        }
        impl Decode for $t {
            fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                r.$t()
            }
        }
    )*};
}

snap_scalar!(u8 u16 u32 u64 i64 usize bool f64);

/// Low word first.
impl Snap for u128 {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(*self as u64);
        w.u64((*self >> 64) as u64);
    }
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = Self::decode(r)?;
        Ok(())
    }
}

impl Decode for u128 {
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let lo = u128::from(r.u64()?);
        Ok(lo | u128::from(r.u64()?) << 64)
    }
}

impl Snap for () {
    fn save(&self, _w: &mut SnapWriter) {}
    fn load(&mut self, _r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        Ok(())
    }
}

impl Decode for () {
    fn decode(_r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(())
    }
}

impl Snap for String {
    fn save(&self, w: &mut SnapWriter) {
        w.str(self);
    }
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = r.str()?;
        Ok(())
    }
}

impl Decode for String {
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.str()
    }
}

/// Implements [`Snap`] by replacing `self` with a decoded value.
macro_rules! load_by_decode {
    () => {
        fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
            *self = Decode::decode(r)?;
            Ok(())
        }
    };
}

/// A presence flag, then the value.
impl<T: Decode> Snap for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.save(w);
        }
    }
    load_by_decode!();
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(if r.bool()? { Some(T::decode(r)?) } else { None })
    }
}

/// Length-prefixed items of a sequence that grows and shrinks at run time.
fn save_items<'a, T: Snap + 'a>(w: &mut SnapWriter, len: usize, items: impl Iterator<Item = &'a T>) {
    w.usize(len);
    for x in items {
        x.save(w);
    }
}

fn decode_items<T: Decode, C: FromIterator<T>>(r: &mut SnapReader<'_>) -> Result<C, SnapError> {
    let n = r.usize()?;
    (0..n).map(|_| T::decode(r)).collect()
}

impl<T: Decode> Snap for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        save_items(w, self.len(), self.iter());
    }
    load_by_decode!();
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        decode_items(r)
    }
}

impl<T: Decode> Snap for VecDeque<T> {
    fn save(&self, w: &mut SnapWriter) {
        save_items(w, self.len(), self.iter());
    }
    load_by_decode!();
}

impl<T: Decode> Decode for VecDeque<T> {
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        decode_items(r)
    }
}

/// Entries in key order.
impl<K: Decode + Ord, V: Decode> Snap for BTreeMap<K, V> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for (k, v) in self {
            k.save(w);
            v.save(w);
        }
    }
    load_by_decode!();
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        decode_items(r)
    }
}

/// Entries sorted by key, so the bytes do not depend on hash order.
impl<K: Decode + Ord + Hash, V: Decode> Snap for HashMap<K, V> {
    fn save(&self, w: &mut SnapWriter) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.usize(entries.len());
        for (k, v) in entries {
            k.save(w);
            v.save(w);
        }
    }
    load_by_decode!();
}

impl<K: Decode + Ord + Hash, V: Decode> Decode for HashMap<K, V> {
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        decode_items(r)
    }
}

impl<A: Decode, B: Decode> Snap for (A, B) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
    }
    load_by_decode!();
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let a = A::decode(r)?;
        Ok((a, B::decode(r)?))
    }
}

/// No length: the array type fixes it. Loads in place.
impl<T: Snap, const N: usize> Snap for [T; N] {
    fn save(&self, w: &mut SnapWriter) {
        for x in self {
            x.save(w);
        }
    }
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.iter_mut().try_for_each(|x| x.load(r))
    }
}

impl<T: Decode + Copy> Snap for Cell<T> {
    fn save(&self, w: &mut SnapWriter) {
        self.get().save(w);
    }
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.get_mut().load(r)
    }
}

impl<T: Decode + Copy> SnapShared for Cell<T> {
    fn load_shared(&self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.set(T::decode(r)?);
        Ok(())
    }
}

impl<T: Snap> Snap for RefCell<T> {
    fn save(&self, w: &mut SnapWriter) {
        self.borrow().save(w);
    }
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.get_mut().load(r)
    }
}

impl<T: Snap> SnapShared for RefCell<T> {
    fn load_shared(&self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.borrow_mut().load(r)
    }
}

impl<T: SnapShared> Snap for Rc<T> {
    fn save(&self, w: &mut SnapWriter) {
        (**self).save(w);
    }
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        (**self).load_shared(r)
    }
}

impl<T: SnapShared> SnapShared for Rc<T> {
    fn load_shared(&self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        (**self).load_shared(r)
    }
}

/// Codec for a sequence whose length the rebuilt machine already fixes
/// (one entry per core, per router, per bucket): the length is written,
/// a snapshot of another length is refused, and the items load in place.
pub mod fixed {
    use super::{Snap, SnapError, SnapReader, SnapShared, SnapWriter};

    pub fn save<T: Snap>(v: &[T], w: &mut SnapWriter) {
        super::save_items(w, v.len(), v.iter());
    }

    fn check(n: usize, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        if r.usize()? != n {
            return Err(SnapError::Corrupt { what: "length differs from the rebuilt machine" });
        }
        Ok(())
    }

    pub fn load<T: Snap>(v: &mut [T], r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        check(v.len(), r)?;
        v.iter_mut().try_for_each(|x| x.load(r))
    }

    pub fn load_shared<T: SnapShared>(v: &[T], r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        check(v.len(), r)?;
        v.iter().try_for_each(|x| x.load_shared(r))
    }
}

/// Codec for a sequence that runs in step with another one already written
/// (one queue per tile, a second register per core): no length, items
/// loaded in place.
pub mod each {
    use super::{Snap, SnapError, SnapReader, SnapShared, SnapWriter};

    pub fn save<T: Snap>(v: &[T], w: &mut SnapWriter) {
        v.iter().for_each(|x| x.save(w));
    }

    pub fn load<T: Snap>(v: &mut [T], r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        v.iter_mut().try_for_each(|x| x.load(r))
    }

    pub fn load_shared<T: SnapShared>(v: &[T], r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        v.iter().try_for_each(|x| x.load_shared(r))
    }
}

/// Codec for an optional part of the machine (a fault injector, the
/// checker): the presence flag must match the rebuilt machine's, and the
/// part loads in place.
pub mod present {
    use super::{Snap, SnapError, SnapReader, SnapWriter};

    pub fn save<T: Snap>(v: &Option<T>, w: &mut SnapWriter) {
        w.bool(v.is_some());
        if let Some(x) = v {
            x.save(w);
        }
    }

    pub fn load<T: Snap>(v: &mut Option<T>, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        match (r.bool()?, v) {
            (true, Some(x)) => x.load(r),
            (false, None) => Ok(()),
            _ => Err(SnapError::Corrupt { what: "presence differs from the rebuilt machine" }),
        }
    }
}

/// Codec for an optional thread id written as a 64-bit value (the lock
/// holders' layout).
pub mod wide {
    use super::{Decode, Snap, SnapError, SnapReader, SnapWriter};
    use crate::ThreadId;

    pub fn save(v: &Option<ThreadId>, w: &mut SnapWriter) {
        v.map(|t| u64::from(t.0)).save(w);
    }

    pub fn load(v: &mut Option<ThreadId>, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *v = Option::<u64>::decode(r)?
            .map(|t| u16::try_from(t).map(ThreadId))
            .transpose()
            .map_err(|_| SnapError::Corrupt { what: "thread id" })?;
        Ok(())
    }
}

/// Generates [`Snap`] (and [`Decode`] or [`SnapShared`], by form) for one
/// type from the list of its fields or variants; see the module docs.
#[macro_export]
macro_rules! snap {
    (enum $name:ident {
        $($tag:literal => $var:ident $(($($tf:ident),* $(,)?))? $({$($sf:ident),* $(,)?})?),* $(,)?
    }) => {
        impl $crate::snap::Snap for $name {
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                match self {
                    $(Self::$var $(($($tf),*))? $({$($sf),*})? => {
                        w.u8($tag);
                        $($($crate::snap::Snap::save($tf, w);)*)?
                        $($($crate::snap::Snap::save($sf, w);)*)?
                    })*
                }
            }
            fn load(
                &mut self,
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<(), $crate::snap::SnapError> {
                *self = <Self as $crate::snap::Decode>::decode(r)?;
                Ok(())
            }
        }
        impl $crate::snap::Decode for $name {
            fn decode(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<Self, $crate::snap::SnapError> {
                Ok(match r.u8()? {
                    $($tag => Self::$var
                        $(($({ let $tf = $crate::snap::Decode::decode(r)?; $tf }),*))?
                        $({$($sf: $crate::snap::Decode::decode(r)?),*})?,)*
                    tag => {
                        return Err($crate::snap::SnapError::BadTag {
                            what: concat!(module_path!(), "::", stringify!($name)),
                            tag: u64::from(tag),
                        })
                    }
                })
            }
        }
    };
    (shared $name:ident $(mark $label:literal)? {
        $($field:ident $(as $codec:ident)?),* $(,)?
        $(; skip $($skip:ident),* $(,)?)?
    }) => {
        #[allow(unused_variables)] // a type with no dynamic state writes nothing
        impl $crate::snap::Snap for $name {
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                let Self { $($field,)* $($($skip: _,)*)? } = self;
                $(w.mark($label);)?
                $($crate::__snap_field!(save $field, w $(, $codec)?);)*
            }
            fn load(
                &mut self,
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<(), $crate::snap::SnapError> {
                $crate::snap::SnapShared::load_shared(self, r)
            }
        }
        #[allow(unused_variables)]
        impl $crate::snap::SnapShared for $name {
            fn load_shared(
                &self,
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<(), $crate::snap::SnapError> {
                let Self { $($field,)* $($($skip: _,)*)? } = self;
                $(r.expect($label)?;)?
                $($crate::__snap_field!(load_shared $field, r $(, $codec)?);)*
                Ok(())
            }
        }
    };
    ($name:ident $(<$($g:ident),*>)? $(mark $label:literal)? { $($field:ident),* $(,)? }) => {
        $crate::snap!(@snap $name $(<$($g),*>)? [$($label)?] [$($field),*] []);
        impl<$($($g: $crate::snap::Decode),*)?> $crate::snap::Decode for $name $(<$($g),*>)? {
            fn decode(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<Self, $crate::snap::SnapError> {
                $(r.expect($label)?;)?
                Ok(Self { $($field: $crate::snap::Decode::decode(r)?,)* })
            }
        }
    };
    ($name:ident $(<$($g:ident),*>)? $(mark $label:literal)? {
        $($field:ident $(as $codec:ident)?),* $(,)?
        $(; skip $($skip:ident),* $(,)?)?
    }) => {
        $crate::snap!(@snap $name $(<$($g),*>)? [$($label)?]
            [$($field $(as $codec)?),*] [$($($skip),*)?]);
    };
    ($name:ident ($($f:ident),* $(,)?)) => {
        impl $crate::snap::Snap for $name {
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                let Self($($f),*) = self;
                $($crate::snap::Snap::save($f, w);)*
            }
            fn load(
                &mut self,
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<(), $crate::snap::SnapError> {
                let Self($($f),*) = self;
                $($crate::snap::Snap::load($f, r)?;)*
                Ok(())
            }
        }
        impl $crate::snap::Decode for $name {
            fn decode(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<Self, $crate::snap::SnapError> {
                Ok(Self($({ let $f = $crate::snap::Decode::decode(r)?; $f }),*))
            }
        }
    };
    (@snap $name:ident $(<$($g:ident),*>)? [$($label:literal)?]
        [$($field:ident $(as $codec:ident)?),*] [$($skip:ident),*]) => {
        #[allow(unused_variables)] // a type with no dynamic state writes nothing
        impl<$($($g: $crate::snap::Decode),*)?> $crate::snap::Snap for $name $(<$($g),*>)? {
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                let Self { $($field,)* $($skip: _,)* } = self;
                $(w.mark($label);)?
                $($crate::__snap_field!(save $field, w $(, $codec)?);)*
            }
            fn load(
                &mut self,
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<(), $crate::snap::SnapError> {
                let Self { $($field,)* $($skip: _,)* } = self;
                $(r.expect($label)?;)?
                $($crate::__snap_field!(load $field, r $(, $codec)?);)*
                Ok(())
            }
        }
    };
}

/// One field's half of a [`snap!`](crate::snap!) declaration: the field
/// type's own codec, or the codec module named after `as`.
#[doc(hidden)]
#[macro_export]
macro_rules! __snap_field {
    (save $f:ident, $w:ident) => { $crate::snap::Snap::save($f, $w) };
    (save $f:ident, $w:ident, $codec:ident) => { $crate::snap::$codec::save($f, $w) };
    (load $f:ident, $r:ident) => { $crate::snap::Snap::load($f, $r)? };
    (load $f:ident, $r:ident, $codec:ident) => { $crate::snap::$codec::load($f, $r)? };
    (load_shared $f:ident, $r:ident) => { $crate::snap::SnapShared::load_shared($f, $r)? };
    (load_shared $f:ident, $r:ident, $codec:ident) => {
        $crate::snap::$codec::load_shared($f, $r)?
    };
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
        None::<u64>.save(&mut w);
        Some(5u64).save(&mut w);
        w.str("héllo");
        vec![1u64, 2, 3].save(&mut w);
        (u128::MAX - 1).save(&mut w);
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
        assert_eq!(Option::<u64>::decode(&mut r).unwrap(), None);
        assert_eq!(Option::<u64>::decode(&mut r).unwrap(), Some(5));
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(Vec::<u64>::decode(&mut r).unwrap(), vec![1, 2, 3]);
        assert_eq!(u128::decode(&mut r).unwrap(), u128::MAX - 1);
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
        let deque: VecDeque<(u16, bool)> = [(1, true), (2, false)].into();
        let mut w = SnapWriter::new();
        deque.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(VecDeque::<(u16, bool)>::decode(&mut r).unwrap(), deque);
        assert_eq!(r.remaining(), 0);
    }

    /// A hash map saves in key order, so equal maps give equal bytes
    /// whatever their insertion history.
    #[test]
    fn hash_maps_save_sorted_by_key() {
        let encode = |keys: &[u64]| {
            let map: HashMap<u64, u64> = keys.iter().map(|&k| (k, k * 10)).collect();
            let mut w = SnapWriter::new();
            map.save(&mut w);
            w.into_bytes()
        };
        let bytes = encode(&[3, 1, 2]);
        assert_eq!(bytes, encode(&[2, 3, 1]));
        let map = HashMap::<u64, u64>::decode(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(map.len(), 3);
        assert_eq!(map[&2], 20);
    }

    #[derive(Debug, PartialEq)]
    enum Shape {
        Dot,
        Line(u64),
        Box { w: u16, h: u16 },
    }
    crate::snap!(enum Shape { 0 => Dot, 1 => Line(len), 2 => Box { w, h } });

    struct Canvas {
        width: u32,
        shapes: Vec<Shape>,
        cursor: [u8; 2],
        faults: Option<u64>,
    }
    crate::snap!(Canvas mark "canvas" { shapes, cursor, faults as present; skip width });

    fn canvas(faults: Option<u64>) -> Canvas {
        Canvas { width: 4, shapes: Vec::new(), cursor: [0; 2], faults }
    }

    #[test]
    fn declarations_round_trip_in_place() {
        let mut c = canvas(Some(0));
        c.shapes = vec![Shape::Dot, Shape::Line(9), Shape::Box { w: 2, h: 3 }];
        c.cursor = [5, 6];
        c.faults = Some(7);
        let mut w = SnapWriter::new();
        c.save(&mut w);
        let bytes = w.into_bytes();
        let mut rebuilt = canvas(Some(0));
        rebuilt.load(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(rebuilt.shapes, c.shapes);
        assert_eq!((rebuilt.width, rebuilt.cursor, rebuilt.faults), (4, [5, 6], Some(7)));
    }

    #[test]
    fn declarations_refuse_bad_tags_and_shapes() {
        let mut w = SnapWriter::new();
        w.u8(3);
        let err = Shape::decode(&mut SnapReader::new(&w.into_bytes())).unwrap_err();
        assert!(matches!(err, SnapError::BadTag { tag: 3, .. }), "{err}");

        let mut w = SnapWriter::new();
        canvas(None).save(&mut w);
        let bytes = w.into_bytes();
        let err = canvas(Some(0)).load(&mut SnapReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, SnapError::Corrupt { .. }), "presence: {err}");

        let v: Vec<u64> = vec![1, 2, 3];
        let mut w = SnapWriter::new();
        fixed::save(&v, &mut w);
        let bytes = w.into_bytes();
        let err = fixed::load(&mut [0u64; 2], &mut SnapReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, SnapError::Corrupt { .. }), "length: {err}");

        let err = canvas(None).load(&mut SnapReader::new(&[0; 4])).unwrap_err();
        assert_eq!(err, SnapError::MarkMismatch { label: "canvas" });
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
