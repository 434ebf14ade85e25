//! General-purpose registers and the even/odd register-file banks.
//!
//! The DPU register file holds [`NUM_GP_REGS`] 32-bit registers per tasklet.
//! Physically the file is split into an *even* bank (`r0, r2, …`) and an
//! *odd* bank (`r1, r3, …`); each bank has a single read port, so an
//! instruction whose source operands fall into the same bank suffers a
//! structural hazard (see the paper, §II-A).

use std::fmt;

/// Number of general-purpose registers available to each tasklet.
pub const NUM_GP_REGS: u8 = 24;

/// A general-purpose register identifier (`r0` … `r23`).
///
/// # Example
///
/// ```
/// use pim_isa::{Reg, RegBank};
///
/// let r5 = Reg::r(5);
/// assert_eq!(r5.index(), 5);
/// assert_eq!(r5.bank(), RegBank::Odd);
/// assert_eq!(r5.to_string(), "r5");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// Creates the register with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_GP_REGS` (24).
    #[must_use]
    pub fn r(index: u8) -> Self {
        assert!(index < NUM_GP_REGS, "register index {index} out of range (0..{NUM_GP_REGS})");
        Reg(index)
    }

    /// Fallible constructor; returns `None` if `index` is out of range.
    #[must_use]
    pub fn try_r(index: u8) -> Option<Self> {
        (index < NUM_GP_REGS).then_some(Reg(index))
    }

    /// The register's index within the file (0..24).
    #[must_use]
    pub fn index(self) -> u8 {
        self.0
    }

    /// Which physical register-file bank this register lives in.
    #[must_use]
    pub fn bank(self) -> RegBank {
        if self.0.is_multiple_of(2) {
            RegBank::Even
        } else {
            RegBank::Odd
        }
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// The physical bank a register belongs to.
///
/// The baseline DPU can read at most one register from each bank per cycle;
/// two same-bank sources cost an extra issue-slot (the `Idle(RF)` component
/// of the paper's Figure 6). The `R` ILP extension (unified register file
/// with doubled read bandwidth) removes the hazard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegBank {
    /// Registers with an even index: `r0, r2, …, r22`.
    Even,
    /// Registers with an odd index: `r1, r3, …, r23`.
    Odd,
}

impl fmt::Display for RegBank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegBank::Even => write!(f, "even"),
            RegBank::Odd => write!(f, "odd"),
        }
    }
}

/// Counts the extra register-file read cycles an instruction with the given
/// source registers incurs on the split even/odd register file.
///
/// Each bank can serve one read per cycle; every same-bank source beyond the
/// first adds one structural-hazard cycle.
///
/// # Example
///
/// ```
/// use pim_isa::reg::{rf_conflict_cycles, Reg};
///
/// // r0 and r2 are both in the even bank: one extra cycle.
/// assert_eq!(rf_conflict_cycles(&[Reg::r(0), Reg::r(2)]), 1);
/// // r0 and r1 are in different banks: no hazard.
/// assert_eq!(rf_conflict_cycles(&[Reg::r(0), Reg::r(1)]), 0);
/// // Three even sources: two extra cycles.
/// assert_eq!(rf_conflict_cycles(&[Reg::r(0), Reg::r(2), Reg::r(4)]), 2);
/// ```
#[must_use]
pub fn rf_conflict_cycles(srcs: &[Reg]) -> u32 {
    let even = srcs.iter().filter(|r| r.bank() == RegBank::Even).count() as u32;
    let odd = srcs.len() as u32 - even;
    even.saturating_sub(1) + odd.saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_banks_alternate() {
        for i in 0..NUM_GP_REGS {
            let expected = if i % 2 == 0 { RegBank::Even } else { RegBank::Odd };
            assert_eq!(Reg::r(i).bank(), expected, "r{i}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reg_out_of_range_panics() {
        let _ = Reg::r(24);
    }

    #[test]
    fn try_r_bounds() {
        assert_eq!(Reg::try_r(23), Some(Reg::r(23)));
        assert_eq!(Reg::try_r(24), None);
    }

    #[test]
    fn all_yields_every_register_once() {
        let regs: Vec<Reg> = (0..NUM_GP_REGS).map(Reg).collect();
        assert_eq!(regs.len(), NUM_GP_REGS as usize);
        for (i, r) in regs.iter().enumerate() {
            assert_eq!(r.index() as usize, i);
        }
    }

    #[test]
    fn conflict_cycles_empty_and_single() {
        assert_eq!(rf_conflict_cycles(&[]), 0);
        assert_eq!(rf_conflict_cycles(&[Reg::r(7)]), 0);
    }

    #[test]
    fn conflict_cycles_mixed_three_sources() {
        // two odd + one even: one extra cycle for the odd pair.
        assert_eq!(rf_conflict_cycles(&[Reg::r(1), Reg::r(3), Reg::r(2)]), 1);
    }

    #[test]
    fn display_format() {
        assert_eq!(Reg::r(0).to_string(), "r0");
        assert_eq!(Reg::r(23).to_string(), "r23");
        assert_eq!(RegBank::Even.to_string(), "even");
        assert_eq!(RegBank::Odd.to_string(), "odd");
    }
}
