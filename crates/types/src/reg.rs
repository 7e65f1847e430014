//! Architectural register identifiers.

use std::fmt;
use std::num::NonZeroU8;

/// An architectural register identifier.
///
/// The simulated ISA exposes [`Reg::COUNT`] integer registers (matching the
/// CVP-1 trace format's flat register space). Register `0` is *not* special;
/// dependence tracking treats all registers alike.
///
/// # Examples
///
/// ```
/// use swip_types::Reg;
///
/// let r = Reg::new(3);
/// assert_eq!(r.index(), 3);
/// ```
///
/// The index is stored plus one in a `NonZeroU8`, so the zero byte is a
/// niche and `Option<Reg>` (an instruction's operand slot) is one byte.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(NonZeroU8);

const _: () = assert!(std::mem::size_of::<Option<Reg>>() == 1);

impl Reg {
    /// Number of architectural registers in the simulated ISA.
    pub const COUNT: usize = 64;

    /// Creates a register identifier.
    ///
    /// # Panics
    ///
    /// Panics if `index >= Reg::COUNT`.
    pub fn new(index: u8) -> Self {
        assert!(
            (index as usize) < Self::COUNT,
            "register index {index} out of range (< {})",
            Self::COUNT
        );
        Reg(NonZeroU8::MIN.saturating_add(index))
    }

    /// Returns the register index as a `usize` suitable for table lookup.
    pub const fn index(self) -> usize {
        self.0.get() as usize - 1
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.index())
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        for i in 0..Reg::COUNT as u8 {
            assert_eq!(Reg::new(i).index(), i as usize);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let _ = Reg::new(Reg::COUNT as u8);
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", Reg::new(7)), "r7");
        assert_eq!(format!("{}", Reg::new(0)), "r0");
    }

    #[test]
    fn order_follows_the_index() {
        assert!(Reg::new(0) < Reg::new(1) && Reg::new(62) < Reg::new(63));
    }
}
