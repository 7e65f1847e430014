//! The return address stack.

use swip_types::Addr;

/// A fixed-capacity circular return-address stack.
///
/// Calls push their return address; returns pop it. When the stack
/// overflows, the oldest entry is silently overwritten (standard hardware
/// behavior — deep recursion wraps). The stack is cheaply cloneable so the
/// branch unit can reset the speculative stack to the architectural one
/// after a redirect, alongside the GHR.
///
/// # Examples
///
/// ```
/// use swip_types::Addr;
/// use swip_branch::Ras;
///
/// let mut ras = Ras::new(16);
/// ras.push(Addr::new(0x104));
/// assert_eq!(ras.pop(), Some(Addr::new(0x104)));
/// assert_eq!(ras.pop(), None);
/// ```
#[derive(Clone, Debug)]
pub struct Ras {
    entries: Vec<Addr>,
    top: usize,
    len: usize,
}

impl Ras {
    /// Creates a RAS with room for `capacity` return addresses.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ras capacity must be nonzero");
        Ras {
            entries: vec![Addr::ZERO; capacity],
            top: 0,
            len: 0,
        }
    }

    /// Maximum number of live entries.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Current number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no live entries remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pushes a return address, overwriting the oldest entry when full.
    pub fn push(&mut self, ret: Addr) {
        self.top = (self.top + 1) % self.entries.len();
        self.entries[self.top] = ret;
        self.len = (self.len + 1).min(self.entries.len());
    }

    /// Pops the most recent return address, or `None` when empty.
    pub fn pop(&mut self) -> Option<Addr> {
        if self.len == 0 {
            return None;
        }
        let ret = self.entries[self.top];
        self.top = (self.top + self.entries.len() - 1) % self.entries.len();
        self.len -= 1;
        Some(ret)
    }

    /// The address a return would pop, without popping it.
    pub fn peek(&self) -> Option<Addr> {
        (self.len > 0).then(|| self.entries[self.top])
    }

    /// Discards all entries.
    pub fn clear(&mut self) {
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut ras = Ras::new(8);
        ras.push(Addr::new(1));
        ras.push(Addr::new(2));
        ras.push(Addr::new(3));
        assert_eq!(ras.pop(), Some(Addr::new(3)));
        assert_eq!(ras.pop(), Some(Addr::new(2)));
        assert_eq!(ras.pop(), Some(Addr::new(1)));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn overflow_drops_oldest() {
        let mut ras = Ras::new(2);
        ras.push(Addr::new(1));
        ras.push(Addr::new(2));
        ras.push(Addr::new(3)); // overwrites 1
        assert_eq!(ras.len(), 2);
        assert_eq!(ras.pop(), Some(Addr::new(3)));
        assert_eq!(ras.pop(), Some(Addr::new(2)));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn peek_is_nondestructive() {
        let mut ras = Ras::new(4);
        ras.push(Addr::new(9));
        assert_eq!(ras.peek(), Some(Addr::new(9)));
        assert_eq!(ras.len(), 1);
        assert_eq!(ras.pop(), Some(Addr::new(9)));
        assert_eq!(ras.peek(), None);
    }

    #[test]
    fn clear_empties() {
        let mut ras = Ras::new(4);
        ras.push(Addr::new(1));
        ras.clear();
        assert!(ras.is_empty());
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn checkpoint_restore_via_clone() {
        let mut ras = Ras::new(4);
        ras.push(Addr::new(1));
        ras.push(Addr::new(2));
        let ckpt = ras.clone();
        ras.pop();
        ras.push(Addr::new(99));
        let mut restored = ckpt;
        assert_eq!(restored.pop(), Some(Addr::new(2)));
        assert_eq!(restored.pop(), Some(Addr::new(1)));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        let _ = Ras::new(0);
    }
}
