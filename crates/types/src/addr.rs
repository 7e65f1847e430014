//! Virtual addresses and cache-line addresses.

use std::fmt;

/// Size of a cache line in bytes. Fixed at 64 B, matching ChampSim and the
/// paper's configuration ("one entry \[can\] represent eight \[32-bit\]
/// instructions" — two entries per 64 B line).
pub const CACHE_LINE_SIZE: u64 = 64;

const LINE_SHIFT: u32 = CACHE_LINE_SIZE.trailing_zeros();

/// A virtual byte address.
///
/// `Addr` is a transparent newtype over `u64` ([C-NEWTYPE]) that statically
/// distinguishes byte addresses from [`LineAddr`]s (line numbers) and from
/// plain counters.
///
/// # Examples
///
/// ```
/// use swip_types::{Addr, CACHE_LINE_SIZE};
///
/// let a = Addr::new(0x1044);
/// assert_eq!(a.line().base(), Addr::new(0x1040));
/// assert_eq!(a.line_offset(), 0x4);
/// assert_eq!(a.offset(-4), Addr::new(0x1040));
/// ```
///
/// [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw byte address.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// The zero address. Useful as a sentinel start-of-simulation value.
    pub const ZERO: Addr = Addr(0);

    /// Returns the raw byte address.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the cache line this address falls in.
    pub const fn line(self) -> LineAddr {
        LineAddr(self.0 >> LINE_SHIFT)
    }

    /// Returns the byte offset of this address within its cache line.
    pub const fn line_offset(self) -> u64 {
        self.0 & (CACHE_LINE_SIZE - 1)
    }

    /// Returns this address displaced by a signed byte delta.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the displacement under- or overflows.
    pub fn offset(self, delta: i64) -> Addr {
        Addr(self.0.wrapping_add_signed(delta))
    }

    /// Returns the address `bytes` past this one.
    pub const fn add(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }

    /// Byte distance from `earlier` to `self`, or `None` if `earlier > self`.
    pub fn distance_from(self, earlier: Addr) -> Option<u64> {
        self.0.checked_sub(earlier.0)
    }

    /// True if `self` and `other` share a cache line.
    pub const fn same_line(self, other: Addr) -> bool {
        (self.0 >> LINE_SHIFT) == (other.0 >> LINE_SHIFT)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#x})", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

impl From<Addr> for u64 {
    fn from(a: Addr) -> Self {
        a.0
    }
}

/// A cache-line address: a byte address shifted right by `log2(line size)`.
///
/// Distinguishing line numbers from byte addresses at the type level prevents
/// the classic simulator bug of indexing a cache with an unshifted address.
///
/// # Examples
///
/// ```
/// use swip_types::{Addr, LineAddr};
///
/// let l = Addr::new(0x1040).line();
/// assert_eq!(l, Addr::new(0x107f).line());
/// assert_eq!(l.base(), Addr::new(0x1040));
/// assert_eq!(l.next(), Addr::new(0x1080).line());
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a raw line *number* (already shifted).
    pub const fn from_line_number(n: u64) -> Self {
        LineAddr(n)
    }

    /// Returns the raw line number.
    pub const fn number(self) -> u64 {
        self.0
    }

    /// Returns the byte address of the first byte of this line.
    pub const fn base(self) -> Addr {
        Addr(self.0 << LINE_SHIFT)
    }

    /// Returns the immediately following line.
    pub const fn next(self) -> LineAddr {
        LineAddr(self.0 + 1)
    }

    /// Returns the line `n` lines after this one.
    pub const fn step(self, n: u64) -> LineAddr {
        LineAddr(self.0 + n)
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LineAddr({:#x})", self.0 << LINE_SHIFT)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0 << LINE_SHIFT)
    }
}

impl From<Addr> for LineAddr {
    fn from(a: Addr) -> Self {
        a.line()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_boundaries() {
        assert_eq!(Addr::new(0).line(), Addr::new(63).line());
        assert_ne!(Addr::new(63).line(), Addr::new(64).line());
        assert_eq!(Addr::new(64).line().base(), Addr::new(64));
    }

    #[test]
    fn line_offset_within_range() {
        for raw in [0u64, 1, 63, 64, 65, 0xfff, 0x1000] {
            assert!(Addr::new(raw).line_offset() < CACHE_LINE_SIZE);
        }
    }

    #[test]
    fn offset_round_trips() {
        let a = Addr::new(0x4000);
        assert_eq!(a.offset(16).offset(-16), a);
        assert_eq!(a.add(4), Addr::new(0x4004));
    }

    #[test]
    fn distance_from_ordering() {
        let lo = Addr::new(0x100);
        let hi = Addr::new(0x180);
        assert_eq!(hi.distance_from(lo), Some(0x80));
        assert_eq!(lo.distance_from(hi), None);
        assert_eq!(lo.distance_from(lo), Some(0));
    }

    #[test]
    fn same_line_is_symmetric() {
        let a = Addr::new(0x1000);
        let b = Addr::new(0x103f);
        assert!(a.same_line(b) && b.same_line(a));
        assert!(!a.same_line(Addr::new(0x1040)));
    }

    #[test]
    fn next_line_is_adjacent() {
        let l = Addr::new(0x80).line();
        assert_eq!(l.next().base(), Addr::new(0xc0));
        assert_eq!(l.step(2).base(), Addr::new(0x100));
    }

    #[test]
    fn debug_is_nonempty_and_hex() {
        assert_eq!(format!("{:?}", Addr::new(0x40)), "Addr(0x40)");
        assert_eq!(format!("{}", Addr::new(0x40).line()), "0x40");
        assert_eq!(format!("{:x}", Addr::new(255)), "ff");
    }
}
