//! Strongly-typed identifiers for the simulated machine.
//!
//! Every index that crosses a module boundary gets its own newtype so that a
//! core id cannot silently be used where a tile id was meant. All ids are
//! `Copy` and order like their underlying integers.

use std::fmt;

/// A simulated clock cycle count (the simulator is single-clock-domain).
pub type Cycle = u64;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $inner:ty) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub $inner);
        crate::snap!($name(raw));

        impl $name {
            /// The raw index as a `usize`, for vector indexing.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<usize> for $name {
            #[inline]
            fn from(v: usize) -> Self {
                $name(v as $inner)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }
    };
}

id_type!(
    /// A processor core. In this reproduction there is one core per tile and
    /// one thread per core, but the types stay distinct.
    CoreId,
    u16
);
id_type!(
    /// A tile of the tiled CMP (core + L1 + L2 slice + router).
    TileId,
    u16
);
id_type!(
    /// A software thread of the workload under simulation.
    ThreadId,
    u16
);
id_type!(
    /// A lock named by the workload. Whether it is backed by a software
    /// algorithm or by a hardware GLock is decided by the lock mapping.
    LockId,
    u16
);

/// A byte address in the simulated flat physical address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);
crate::snap!(Addr(raw));

/// A cache-line address: `Addr >> log2(line_size)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);
crate::snap!(LineAddr(raw));

impl Addr {
    /// The cache line containing this address.
    #[inline]
    pub fn line(self, line_bytes: u64) -> LineAddr {
        debug_assert!(line_bytes.is_power_of_two());
        LineAddr(self.0 / line_bytes)
    }

    /// The address of the 8-byte word containing this address (the
    /// functional store is word-granular).
    #[inline]
    pub fn word(self) -> Addr {
        Addr(self.0 & !7)
    }
}

impl LineAddr {
    /// First byte address of the line.
    #[inline]
    pub fn base(self, line_bytes: u64) -> Addr {
        Addr(self.0 * line_bytes)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#x})", self.0)
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Line({:#x})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_math_round_trips() {
        let a = Addr(0x1234);
        let l = a.line(64);
        assert_eq!(l, LineAddr(0x1234 / 64));
        assert!(l.base(64).0 <= a.0);
        assert!(a.0 < l.base(64).0 + 64);
    }

    #[test]
    fn word_alignment() {
        assert_eq!(Addr(15).word(), Addr(8));
        assert_eq!(Addr(8).word(), Addr(8));
        assert_eq!(Addr(7).word(), Addr(0));
    }

    #[test]
    fn ids_are_ordered_and_indexable() {
        let a = CoreId(3);
        let b = CoreId(7);
        assert!(a < b);
        assert_eq!(b.index(), 7);
        assert_eq!(CoreId::from(9usize), CoreId(9));
    }

    #[test]
    fn display_is_bare_number() {
        assert_eq!(format!("{}", TileId(12)), "12");
        assert_eq!(format!("{:?}", TileId(12)), "TileId(12)");
    }
}
