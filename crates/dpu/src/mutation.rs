//! Fault-injection hooks for mutation self-checks.
//!
//! A conformance fuzzer is only trustworthy if it demonstrably catches the
//! class of bug it exists for. This module provides three seeded bugs, each
//! behind a process-global switch that `pim-fuzz --mutate` flips before
//! running a campaign:
//!
//! * the **scoreboard** bug drops the even/odd register-file structural
//!   hazard in the issue engine, which then under-counts issue slots for
//!   same-bank source pairs: any program with an RF hazard diverges from
//!   the naive reference loop in cycle counts and stall attribution;
//! * the **replay** bug makes a lockstep follower skip the `Effect`
//!   comparison on jumps, so a member whose branch goes the other way
//!   stays on the leader's schedule instead of leaving it: only a batch
//!   whose members take different paths shows it;
//! * the **due** bug — a timing bug, in the memory path — makes
//!   `MemEngine::due` overshoot a transferring request's finish by one
//!   burst occupancy, so a loop that hops to `due` wakes the tasklet late.
//!   The naive loop visits every cycle while another tasklet issues and
//!   the engine does not, so any program with one tasklet in a DMA beside
//!   one computing diverges in cycle counts. (A debug build's
//!   `debug_assert_on_time` at the loops' drain sites stands down while
//!   the bug is armed, so the campaign and not the assertion reports it.)
//!
//! The hooks are compiled into every build and all switches default to
//! off, so a run that never flips one simulates exactly as if the hooks
//! were absent. Each flag is read once per launch or per replayed segment,
//! outside the hot loops.

use std::sync::atomic::{AtomicBool, Ordering};

static SCOREBOARD_BUG: AtomicBool = AtomicBool::new(false);
static REPLAY_BUG: AtomicBool = AtomicBool::new(false);
static DUE_BUG: AtomicBool = AtomicBool::new(false);

/// Arms (or disarms) the seeded scoreboard bug: while armed, the
/// optimized scalar loop treats every instruction's register-file hazard
/// cost as zero, as if the even/odd bank conflict check were lost in the
/// pre-decode refactor.
pub fn set_scoreboard_bug(on: bool) {
    SCOREBOARD_BUG.store(on, Ordering::SeqCst);
}

/// Whether the seeded scoreboard bug is currently armed.
#[must_use]
pub(crate) fn scoreboard_bug() -> bool {
    SCOREBOARD_BUG.load(Ordering::SeqCst)
}

/// Arms (or disarms) the seeded replay bug: while armed, a lockstep
/// follower accepts any logged instruction on which it or the leader
/// jumped without comparing the two effects.
pub fn set_replay_bug(on: bool) {
    REPLAY_BUG.store(on, Ordering::SeqCst);
}

/// Whether the seeded replay bug is currently armed.
#[must_use]
pub(crate) fn replay_bug() -> bool {
    REPLAY_BUG.load(Ordering::SeqCst)
}

/// Arms (or disarms) the seeded due bug: while armed, the memory engine's
/// due-cycle bound for a request in transfer counts its last burst's
/// interface occupancy twice.
pub fn set_due_bug(on: bool) {
    DUE_BUG.store(on, Ordering::SeqCst);
}

/// Whether the seeded due bug is currently armed.
#[must_use]
pub(crate) fn due_bug() -> bool {
    DUE_BUG.load(Ordering::SeqCst)
}
