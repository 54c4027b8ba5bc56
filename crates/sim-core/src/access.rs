//! Individual memory accesses as seen by the cache hierarchy.

use std::fmt;

use crate::Address;

/// Whether an access reads or writes the referenced line.
///
/// The schemes in this workspace are allocate-on-write, so reads and writes
/// follow the same lookup/replacement path; writes additionally mark the
/// line dirty, which feeds the write-back accounting in
/// [`CacheStats`](crate::CacheStats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AccessKind {
    /// A load (or instruction fetch).
    #[default]
    Read,
    /// A store.
    Write,
}

impl AccessKind {
    /// [`AccessKind::Write`] for a store, [`AccessKind::Read`] otherwise.
    #[inline]
    pub fn from_write(write: bool) -> Self {
        if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        }
    }

    /// Returns `true` for [`AccessKind::Write`].
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => f.write_str("read"),
            AccessKind::Write => f.write_str("write"),
        }
    }
}

/// One memory access in a trace.
///
/// `inst_gap` is the number of instructions retired since the previous
/// memory access; it is what converts raw miss counts into the paper's
/// MPKI/CPI metrics (misses and cycles *per instruction*).
///
/// # Examples
///
/// ```
/// use stem_sim_core::{Access, AccessKind, Address};
///
/// let a = Access::read(Address::new(0x40)).with_inst_gap(7);
/// assert_eq!(a.kind, AccessKind::Read);
/// assert_eq!(a.inst_gap, 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Access {
    /// The byte address referenced.
    pub addr: Address,
    /// Read or write.
    pub kind: AccessKind,
    /// Instructions retired since the previous access (at least 1 so that
    /// instruction counts advance).
    pub inst_gap: u32,
}

impl Access {
    /// Creates a read access with an instruction gap of 1.
    #[inline]
    pub fn read(addr: Address) -> Self {
        Access {
            addr,
            kind: AccessKind::Read,
            inst_gap: 1,
        }
    }

    /// Creates a write access with an instruction gap of 1.
    #[inline]
    pub fn write(addr: Address) -> Self {
        Access {
            addr,
            kind: AccessKind::Write,
            inst_gap: 1,
        }
    }

    /// Sets the instruction gap, returning the modified access.
    #[inline]
    pub fn with_inst_gap(mut self, gap: u32) -> Self {
        self.inst_gap = gap.max(1);
        self
    }
}

impl From<Address> for Access {
    /// A bare address converts to a read with unit instruction gap.
    fn from(addr: Address) -> Self {
        Access::read(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        assert!(!Access::read(Address::new(0)).kind.is_write());
        assert!(Access::write(Address::new(0)).kind.is_write());
    }

    #[test]
    fn inst_gap_is_at_least_one() {
        assert_eq!(Access::read(Address::new(0)).with_inst_gap(0).inst_gap, 1);
        assert_eq!(Access::read(Address::new(0)).with_inst_gap(9).inst_gap, 9);
    }

    #[test]
    fn from_address_is_read() {
        let a: Access = Address::new(0x80).into();
        assert_eq!(a.kind, AccessKind::Read);
        assert_eq!(a.inst_gap, 1);
    }

    #[test]
    fn kind_display() {
        assert_eq!(AccessKind::Read.to_string(), "read");
        assert_eq!(AccessKind::Write.to_string(), "write");
    }
}
