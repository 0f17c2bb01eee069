//! Executable programs: an instruction sequence plus initial data.

use crate::{Inst, Reg};
use std::fmt;
use std::iter;
use std::sync::Arc;

/// A contiguous block of initial memory contents.
///
/// The bytes are reference-counted: workload images run to multiple
/// MiB and every (scheme × experiment) job starts from the same one,
/// so cloning a program — which the bench runner does per job — shares
/// the image instead of copying it. The functional memory keeps the
/// sharing end-to-end ([`SparseMem::write_bytes_shared`] installs the
/// same `Arc` as a copy-on-write extent).
///
/// [`SparseMem::write_bytes_shared`]: ../gm_mem/struct.SparseMem.html
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataSegment {
    /// Byte address of the first byte.
    pub base: u64,
    /// The bytes to place there before execution.
    pub bytes: Arc<[u8]>,
}

impl DataSegment {
    /// A segment of `words.len()` little-endian u64 words starting at
    /// `base`.
    pub fn words(base: u64, words: &[u64]) -> Self {
        Self::from_fn(base, words.len(), |i| words[i])
    }

    /// A segment of `count` little-endian u64 words starting at `base`,
    /// word `i` being `word(i)`: called once per index, in ascending
    /// order, so generators may draw from an RNG.
    pub fn from_fn(base: u64, count: usize, mut word: impl FnMut(usize) -> u64) -> Self {
        Self::sparse(base, count, (0..count).map(|i| (i, word(i))))
    }

    /// A zero segment of `count` u64 words at `base` with each listed
    /// `(index, value)` word set, in iteration order. The image is
    /// allocated once and written in place.
    pub fn sparse(base: u64, count: usize, words: impl IntoIterator<Item = (usize, u64)>) -> Self {
        let mut bytes: Arc<[u8]> = iter::repeat(0).take(count * 8).collect();
        let buf = Arc::get_mut(&mut bytes).expect("a fresh image is unshared");
        for (i, w) in words {
            buf[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
        }
        Self { base, bytes }
    }

    /// Exclusive end address of the segment.
    pub fn end(&self) -> u64 {
        self.base + self.bytes.len() as u64
    }
}

/// A self-contained executable program for the simulated machine: the
/// instruction stream, initial data segments, and initial register values.
///
/// Workload generators in `gm-workloads` produce these; the machine in
/// `ghostminion` runs them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Program {
    /// The instruction stream; instruction `i` lives at pc `i`.
    pub insts: Vec<Inst>,
    /// Initial memory image.
    pub data: Vec<DataSegment>,
    /// Initial architectural register values, applied before execution.
    pub init_regs: Vec<(Reg, u64)>,
    /// Human-readable name (workload identifier in reports).
    pub name: String,
}

impl Program {
    /// Creates an empty program with the given report name.
    pub fn named(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Returns `true` if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Fetches the instruction at `pc`, or `None` past the end.
    pub fn fetch(&self, pc: u64) -> Option<Inst> {
        self.insts.get(pc as usize).copied()
    }

    /// Validates static well-formedness: all direct control-flow targets
    /// must be in range. Returns the offending instruction index on error.
    pub fn validate(&self) -> Result<(), usize> {
        for (i, inst) in self.insts.iter().enumerate() {
            if let Some(t) = inst.direct_target() {
                if t as usize >= self.insts.len() {
                    return Err(i);
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "; program {} ({} insts)", self.name, self.insts.len())?;
        for (i, inst) in self.insts.iter().enumerate() {
            writeln!(f, "{i:5}: {inst}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Op, Reg};

    #[test]
    fn data_segment_words_little_endian() {
        let seg = DataSegment::words(0x100, &[0x0102_0304_0506_0708]);
        assert_eq!(seg.bytes[0], 0x08);
        assert_eq!(seg.bytes[7], 0x01);
        assert_eq!(seg.end(), 0x108);
    }

    #[test]
    fn from_fn_matches_words() {
        let words = [7, u64::MAX, 0, 0x0102_0304_0506_0708];
        let seg = DataSegment::from_fn(0x40, words.len(), |i| words[i]);
        assert_eq!(seg, DataSegment::words(0x40, &words));
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(*seg.bytes, *bytes);
    }

    #[test]
    fn from_fn_calls_word_once_per_index_in_order() {
        let mut calls = Vec::new();
        let seg = DataSegment::from_fn(0, 5, |i| {
            calls.push(i);
            i as u64 * 10
        });
        assert_eq!(calls, [0, 1, 2, 3, 4]);
        assert_eq!(seg, DataSegment::words(0, &[0, 10, 20, 30, 40]));
    }

    #[test]
    fn sparse_words_land_at_their_offsets_over_zeros() {
        let seg = DataSegment::sparse(0x1000, 6, [(4, 0xAB), (1, u64::MAX), (4, 0x0C0D)]);
        assert_eq!(seg.end(), 0x1000 + 48);
        // A repeated index keeps its last value: words apply in order.
        assert_eq!(
            seg,
            DataSegment::words(0x1000, &[0, u64::MAX, 0, 0, 0x0C0D, 0])
        );
        let nonzero: Vec<usize> = (0..48).filter(|&b| seg.bytes[b] != 0).collect();
        assert_eq!(nonzero, [8, 9, 10, 11, 12, 13, 14, 15, 32, 33]);
    }

    #[test]
    fn zero_length_segments_are_empty() {
        for seg in [
            DataSegment::from_fn(0x80, 0, |_| unreachable!("no words to draw")),
            DataSegment::sparse(0x80, 0, []),
            DataSegment::words(0x80, &[]),
        ] {
            assert!(seg.bytes.is_empty());
            assert_eq!(seg.end(), 0x80);
        }
    }

    #[test]
    fn fetch_in_and_out_of_range() {
        let mut p = Program::named("t");
        p.insts.push(Inst::nop());
        assert_eq!(p.fetch(0), Some(Inst::nop()));
        assert_eq!(p.fetch(1), None);
        assert_eq!(p.len(), 1);
        assert!(!p.is_empty());
    }

    #[test]
    fn validate_catches_wild_branch() {
        let mut p = Program::named("t");
        p.insts
            .push(Inst::new(Op::Beq, Reg::ZERO, Reg::ZERO, Reg::ZERO, 99));
        assert_eq!(p.validate(), Err(0));
        p.insts[0].imm = 0;
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn display_lists_instructions() {
        let mut p = Program::named("demo");
        p.insts.push(Inst::nop());
        let s = p.to_string();
        assert!(s.contains("demo"));
        assert!(s.contains("nop"));
    }
}
