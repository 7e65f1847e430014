//! The in-memory trace container.

use std::fmt;
use std::io::{Read, Write};
use std::slice;
use std::sync::Arc;

use swip_types::Instruction;

use crate::codec;
use crate::codec::DecodeError;
use crate::summary::TraceSummary;

/// A named sequence of dynamic instructions.
///
/// A `Trace` plays the role of a CVP-1 trace file: a recorded dynamic
/// instruction stream that the simulator replays. Traces are immutable once
/// built (use [`crate::TraceBuilder`] or [`Trace::from_instructions`]), so
/// the instructions sit in shared storage: a clone, or a copy under
/// another name ([`Trace::renamed`]), copies no record. The AsmDB rewriting
/// pipeline produces *new* traces rather than mutating, and shares its
/// input's storage when it inserts nothing.
///
/// # Examples
///
/// ```
/// use swip_types::{Addr, Instruction};
/// use swip_trace::Trace;
///
/// let t = Trace::from_instructions("t", vec![Instruction::alu(Addr::new(0))]);
/// assert_eq!(t.name(), "t");
/// assert!(!t.is_empty());
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Trace {
    name: String,
    // The built `Vec` is wrapped as it is: converting it to an
    // `Arc<[Instruction]>` would copy every record once.
    instrs: Arc<Vec<Instruction>>,
}

impl Trace {
    /// Creates a trace from a vector of instructions.
    pub fn from_instructions(name: impl Into<String>, instrs: Vec<Instruction>) -> Self {
        Trace {
            name: name.into(),
            instrs: Arc::new(instrs),
        }
    }

    /// The same instructions under the name `name`. The two traces share
    /// their storage, so no record is copied.
    ///
    /// # Examples
    ///
    /// ```
    /// use swip_types::{Addr, Instruction};
    /// use swip_trace::Trace;
    ///
    /// let t = Trace::from_instructions("t", vec![Instruction::alu(Addr::new(0))]);
    /// let u = t.renamed("u");
    /// assert_eq!(u.name(), "u");
    /// assert_eq!(u.instructions().as_ptr(), t.instructions().as_ptr());
    /// ```
    pub fn renamed(&self, name: impl Into<String>) -> Trace {
        Trace {
            name: name.into(),
            instrs: Arc::clone(&self.instrs),
        }
    }

    /// The trace's workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True if the trace contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The instructions as a slice.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instrs
    }

    /// Iterates over the instructions.
    pub fn iter(&self) -> slice::Iter<'_, Instruction> {
        self.instrs.iter()
    }

    /// Computes mix/footprint statistics for this trace.
    pub fn summary(&self) -> TraceSummary {
        TraceSummary::of(self)
    }

    /// Serializes the trace to a writer in the `SWIP` binary format.
    ///
    /// # Errors
    ///
    /// Returns any I/O error raised by `w`.
    pub fn write_to<W: Write>(&self, w: W) -> std::io::Result<()> {
        codec::encode(self, w)
    }

    /// Deserializes a trace previously written with [`Trace::write_to`].
    ///
    /// Readers can pass `&mut reader` thanks to the blanket `Read` impl for
    /// mutable references.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on malformed input or I/O failure.
    pub fn read_from<R: Read>(r: R) -> Result<Trace, DecodeError> {
        codec::decode(r)
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} instructions)", self.name, self.instrs.len())
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Instruction;
    type IntoIter = slice::Iter<'a, Instruction>;

    fn into_iter(self) -> Self::IntoIter {
        self.instrs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swip_types::Addr;

    fn sample() -> Trace {
        Trace::from_instructions(
            "sample",
            vec![
                Instruction::alu(Addr::new(0x0)),
                Instruction::load(Addr::new(0x4), Addr::new(0x9000)),
                Instruction::cond_branch(Addr::new(0x8), Addr::new(0x0), true),
            ],
        )
    }

    #[test]
    fn accessors() {
        let t = sample();
        assert_eq!(t.name(), "sample");
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.instructions()[1].pc, Addr::new(0x4));
    }

    #[test]
    fn iteration_orders_match() {
        let t = sample();
        let by_ref: Vec<_> = (&t).into_iter().cloned().collect();
        let by_iter: Vec<_> = t.iter().cloned().collect();
        assert_eq!(by_ref, by_iter);
        assert_eq!(by_ref, t.instructions());
    }

    #[test]
    fn clones_and_renames_share_storage() {
        let t = sample();
        let c = t.clone();
        assert_eq!(c.instructions().as_ptr(), t.instructions().as_ptr());
        assert_eq!(c, t);

        let r = t.renamed("other");
        assert_eq!(r.instructions().as_ptr(), t.instructions().as_ptr());
        assert_eq!(r.len(), t.len());
        assert_eq!(r.name(), "other");
        assert_eq!(t.name(), "sample", "the original keeps its name");
    }

    #[test]
    fn display_nonempty() {
        assert_eq!(format!("{}", sample()), "sample (3 instructions)");
    }
}
