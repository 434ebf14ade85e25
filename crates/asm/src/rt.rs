//! The DPU runtime library: synchronization primitives built from the ISA's
//! `acquire`/`release` atomic bits, mirroring the UPMEM SDK's software
//! barriers and mutexes (paper §II-B: "They can also synchronize with each
//! other by using mutexes, barriers, or semaphores allocated in UPMEM-PIM's
//! atomic memory region").
//!
//! Barriers are sense-reversing and entirely software: arrival counting in
//! WRAM under a mutex, plus a busy-wait on the published sense word. The
//! busy-wait executes real instructions, so — exactly as the paper observes
//! for `HST-L`/`TRNS` — synchronization shows up in the instruction mix and
//! wastes issue slots.

use pim_isa::Cond;

use crate::builder::KernelBuilder;

/// A mutex backed by one atomic bit.
#[derive(Debug, Clone, Copy)]
pub struct Mutex {
    bit: u32,
}

impl Mutex {
    /// Allocates an atomic bit for a new mutex.
    pub fn alloc(k: &mut KernelBuilder) -> Self {
        Mutex { bit: k.alloc_atomic_bit() }
    }

    /// Emits a blocking lock (the `acquire` busy-waits in hardware).
    pub fn lock(&self, k: &mut KernelBuilder) {
        k.acquire(self.bit as i32);
    }

    /// Emits an unlock.
    pub fn unlock(&self, k: &mut KernelBuilder) {
        k.release(self.bit as i32);
    }
}

/// A sense-reversing barrier for `n_tasklets` tasklets.
///
/// Allocation reserves one atomic bit and `(2 + n_tasklets)` WRAM words:
/// an arrival counter, the published sense, and a per-tasklet local sense.
#[derive(Debug, Clone, Copy)]
pub struct Barrier {
    n_tasklets: u32,
    mutex: Mutex,
    count_addr: u32,
    sense_addr: u32,
    local_base: u32,
}

impl Barrier {
    /// Allocates barrier state for `n_tasklets` participants.
    ///
    /// # Panics
    ///
    /// Panics if `n_tasklets` is zero.
    pub fn alloc(k: &mut KernelBuilder, n_tasklets: u32) -> Self {
        assert!(n_tasklets > 0, "barrier needs at least one participant");
        let mutex = Mutex::alloc(k);
        let count_addr = k.alloc_wram(4, 4);
        let sense_addr = k.alloc_wram(4, 4);
        let local_base = k.alloc_wram(4 * n_tasklets, 4);
        Barrier { n_tasklets, mutex, count_addr, sense_addr, local_base }
    }

    /// Emits a barrier wait using three caller-provided scratch registers
    /// (all three are clobbered).
    ///
    /// Every participating tasklet must execute this code with the same
    /// barrier; a tasklet that skips it deadlocks the others — the same
    /// contract as the SDK's `barrier_wait`.
    pub fn wait(&self, k: &mut KernelBuilder, scratch: [pim_isa::Reg; 3]) {
        let [s0, s1, s2] = scratch;
        let not_last = k.fresh_label("bar_not_last");
        let spin = k.fresh_label("bar_spin");
        let done = k.fresh_label("bar_done");

        // my_sense = local_sense[tid] ^= 1
        k.tid(s0);
        k.sll(s1, s0, 2);
        k.movi(s2, self.local_base as i32);
        k.add(s2, s2, s1);
        k.lw(s1, s2, 0);
        k.alu(pim_isa::AluOp::Xor, s1, s1, 1);
        k.sw(s1, s2, 0);
        // count++ under the mutex
        self.mutex.lock(k);
        k.movi(s2, self.count_addr as i32);
        k.lw(s0, s2, 0);
        k.add(s0, s0, 1);
        k.branch(Cond::Ne, s0, self.n_tasklets as i32, &not_last);
        // Last arrival: reset the counter and publish the new sense.
        k.movi(s0, 0);
        k.sw(s0, s2, 0);
        k.movi(s2, self.sense_addr as i32);
        k.sw(s1, s2, 0);
        self.mutex.unlock(k);
        k.jump(&done);
        // Not last: store the counter, drop the lock, and spin on the sense.
        k.place(&not_last);
        k.sw(s0, s2, 0);
        self.mutex.unlock(k);
        k.movi(s2, self.sense_addr as i32);
        k.place(&spin);
        k.lw(s0, s2, 0);
        k.branch(Cond::Ne, s0, s1, &spin);
        k.place(&done);
    }
}

/// A runtime bump allocator over the WRAM heap — the SDK's `mem_alloc`
/// (paper §II-C: "a very simple memory allocator which simply allocates
/// `size` amount of region in WRAM's heap in an incremental manner" and
/// cannot free).
///
/// The heap cursor lives in a WRAM word initialized to the program's
/// `heap_base`; allocations are mutex-serialized and 8-byte aligned.
#[derive(Debug, Clone, Copy)]
pub struct HeapAllocator {
    mutex: Mutex,
    cursor_addr: u32,
}

impl HeapAllocator {
    /// Reserves the allocator state. The host (or `init`, below) must seed
    /// the cursor with the program's heap base before first use.
    pub fn alloc(k: &mut KernelBuilder) -> Self {
        let mutex = Mutex::alloc(k);
        let cursor_addr = k.global_zeroed("heap_cursor", 4);
        HeapAllocator { mutex, cursor_addr }
    }

    /// Emits one-time initialization (run by tasklet 0 before a barrier):
    /// seeds the cursor with `heap_base`, the SDK's `mem_reset()`.
    pub fn init(&self, k: &mut KernelBuilder, heap_base: u32, scratch: [pim_isa::Reg; 2]) {
        let [s0, s1] = scratch;
        k.movi(s0, (heap_base.div_ceil(8) * 8) as i32);
        k.movi(s1, self.cursor_addr as i32);
        k.sw(s0, s1, 0);
    }

    /// Emits `dst = mem_alloc(size_reg)`: atomically bumps the heap cursor
    /// by the (8-byte-rounded) size and returns the old cursor. Clobbers
    /// `scratch`.
    pub fn mem_alloc(
        &self,
        k: &mut KernelBuilder,
        dst: pim_isa::Reg,
        size: pim_isa::Reg,
        scratch: pim_isa::Reg,
    ) {
        self.mutex.lock(k);
        k.movi(scratch, self.cursor_addr as i32);
        k.lw(dst, scratch, 0);
        // cursor += round8(size)
        k.add(size, size, 7);
        k.alu(pim_isa::AluOp::And, size, size, !7);
        k.add(size, size, dst);
        k.sw(size, scratch, 0);
        self.mutex.unlock(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_isa::{InstrClass, Instruction};

    #[test]
    fn mutex_emits_acquire_release_pair() {
        let mut k = KernelBuilder::new();
        let m = Mutex::alloc(&mut k);
        m.lock(&mut k);
        m.unlock(&mut k);
        k.stop();
        let p = k.build().unwrap();
        assert!(matches!(p.instrs[0], Instruction::Acquire { .. }));
        assert!(matches!(p.instrs[1], Instruction::Release { .. }));
    }

    #[test]
    fn two_mutexes_use_distinct_bits() {
        let mut k = KernelBuilder::new();
        let a = Mutex::alloc(&mut k);
        let b = Mutex::alloc(&mut k);
        assert_ne!(a.bit, b.bit);
    }

    #[test]
    fn barrier_wait_builds_and_references_sync() {
        let mut k = KernelBuilder::new();
        let bar = Barrier::alloc(&mut k, 4);
        let scratch = k.regs(["s0", "s1", "s2"]);
        bar.wait(&mut k, scratch);
        k.stop();
        let p = k.build().unwrap();
        let sync = p.instrs.iter().filter(|i| i.class() == InstrClass::Sync).count();
        assert_eq!(sync, 3, "lock + two unlock paths");
        // All branch targets must have been resolved in range.
        for i in &p.instrs {
            if let Instruction::Branch { target, .. } | Instruction::Jump { target } = i {
                assert!((*target as usize) < p.instrs.len());
            }
        }
    }

    #[test]
    fn barrier_reserves_wram_per_tasklet() {
        let mut k = KernelBuilder::new();
        let before = k.alloc_wram(0, 4);
        let bar = Barrier::alloc(&mut k, 16);
        let after = k.alloc_wram(0, 4);
        assert_eq!(bar.n_tasklets, 16);
        // counter + sense + 16 local senses = 18 words.
        assert_eq!(after - before, 18 * 4);
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_tasklet_barrier_panics() {
        let mut k = KernelBuilder::new();
        let _ = Barrier::alloc(&mut k, 0);
    }

    #[test]
    fn heap_allocator_rounds_and_bumps() {
        let mut k = KernelBuilder::new();
        let heap = HeapAllocator::alloc(&mut k);
        let [t, a, b, sz, s0, s1] = k.regs(["t", "a", "b", "sz", "s0", "s1"]);
        let out = k.global_zeroed("out", 8);
        k.tid(t);
        let go = k.fresh_label("go");
        k.branch(Cond::Ne, t, 0, &go);
        // heap_base is only known post-build; use a fixed fake base.
        heap.init(&mut k, 4096, [s0, s1]);
        k.place(&go);
        // Every tasklet allocates 12 bytes (rounds to 16).
        k.movi(sz, 12);
        heap.mem_alloc(&mut k, a, sz, s0);
        k.movi(sz, 4);
        heap.mem_alloc(&mut k, b, sz, s0);
        // Tasklet 0 publishes its two pointers.
        let done = k.fresh_label("done");
        k.branch(Cond::Ne, t, 0, &done);
        k.movi(s0, out as i32);
        k.sw(a, s0, 0);
        k.sw(b, s0, 4);
        k.place(&done);
        k.stop();
        let p = k.build().unwrap();
        assert!(p.symbol("heap_cursor").is_some());
        assert!(p.instrs.len() > 10);
    }
}
