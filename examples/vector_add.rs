//! The paper's running example (Fig 2) end-to-end: element-wise vector
//! addition partitioned across a set of DPUs, written with the kernel
//! builder and the host API, exactly mirroring the UPMEM flow —
//! `dpu_alloc → dpu_load → dpu_push_xfer → dpu_launch → pull results`.
//!
//! ```sh
//! cargo run --release --example vector_add
//! ```

use pim_asm::KernelBuilder;
use pim_isa::Cond;
use pimulator::prelude::*;

const N: usize = 64 * 1024;
const N_DPUS: u32 = 4;
const N_TASKLETS: u32 = 16;
const BLOCK: u32 = 1024; // staging block, bytes

/// The DPU-side program of paper Fig 2(b): every tasklet stages blocks of
/// A and B through WRAM, adds, and writes C back.
fn build_kernel() -> DpuProgram {
    let mut k = KernelBuilder::new();
    // The host writes per-DPU sizes here, like Fig 2(a)'s `size_per_dpu`.
    let nbytes_addr = k.global_zeroed("nbytes", 4) as i32;
    let buf_a = k.alloc_wram(BLOCK * N_TASKLETS, 8);
    let buf_b = k.alloc_wram(BLOCK * N_TASKLETS, 8);
    let [nbytes, wa, wb, blk] = k.regs(["nbytes", "wa", "wb", "blk"]);
    let [off, m, len, pa, pb, end, va, vb] =
        k.regs(["off", "m", "len", "pa", "pb", "end", "va", "vb"]);
    k.movi(nbytes, nbytes_addr);
    k.lw(nbytes, nbytes, 0);
    k.tid(blk);
    k.mul(wa, blk, BLOCK as i32);
    k.add(wb, wa, buf_b as i32);
    k.add(wa, wa, buf_a as i32);
    let done = k.fresh_label("done");
    let outer = k.label_here("outer");
    k.mul(off, blk, BLOCK as i32);
    k.branch(Cond::Geu, off, nbytes, &done);
    k.sub(len, nbytes, off);
    k.alu(pim_isa::AluOp::Min, len, len, BLOCK as i32);
    // A at MRAM 0, B at `nbytes`, C at `2 * nbytes` (see the host below).
    k.mov(m, off);
    k.ldma(wa, m, len);
    k.add(m, off, nbytes);
    k.ldma(wb, m, len);
    k.mov(pa, wa);
    k.mov(pb, wb);
    k.add(end, wa, len);
    let inner = k.label_here("inner");
    k.lw(va, pa, 0);
    k.lw(vb, pb, 0);
    k.add(va, va, vb);
    k.sw(va, pa, 0);
    k.add(pa, pa, 4);
    k.add(pb, pb, 4);
    k.branch(Cond::Ltu, pa, end, &inner);
    k.add(m, off, nbytes);
    k.add(m, m, nbytes);
    k.sdma(wa, m, len);
    k.add(blk, blk, N_TASKLETS as i32);
    k.jump(&outer);
    k.place(&done);
    k.stop();
    k.build().expect("kernel builds")
}

fn main() -> Result<(), SimError> {
    let a: Vec<i32> = (0..N as i32).collect();
    let b: Vec<i32> = (0..N as i32).map(|x| 10 * x).collect();

    // dpu_alloc + dpu_load
    let mut sys =
        PimSystem::new(N_DPUS, DpuConfig::paper_baseline(N_TASKLETS), ChannelConfig::paper());
    sys.load(&build_kernel())?;

    // Partition and push inputs (dpu_push_xfer TO_DPU): each DPU's slice is
    // written from the host array straight into its bank.
    let per = N / N_DPUS as usize;
    let nbytes = (per * 4) as u32;
    let lens = [nbytes; N_DPUS as usize];
    for (addr, host) in [(0, &a), (nbytes, &b)] {
        sys.try_push_to_mram_with(addr, &lens, |d, window| {
            for (out, v) in window.chunks_exact_mut(4).zip(&host[d * per..(d + 1) * per]) {
                out.copy_from_slice(&v.to_le_bytes());
            }
        })?;
    }
    sys.broadcast_to_symbol("nbytes", &nbytes.to_le_bytes());

    // dpu_launch (synchronous)
    let report = sys.launch_all()?;

    // Pull C back (dpu_push_xfer FROM_DPU) and check each DPU's slice where
    // it lies.
    sys.pull_from_mram_with(2 * nbytes, nbytes, |d, window| {
        for (i, c) in window.chunks_exact(4).enumerate() {
            let got = i32::from_le_bytes(c.try_into().unwrap());
            let idx = d * per + i;
            assert_eq!(got, a[idx] + b[idx], "element {idx}");
        }
    });
    println!("C = A + B verified for {N} elements across {N_DPUS} DPUs");

    let t = sys.timeline();
    println!("CPU→DPU transfer : {:>9.1} µs", t.to_dpu_ns / 1e3);
    println!("kernel           : {:>9.1} µs (slowest DPU)", t.kernel_ns / 1e3);
    println!("CPU←DPU transfer : {:>9.1} µs", t.from_dpu_ns / 1e3);
    let s = report.slowest();
    println!(
        "slowest DPU: {} instructions, IPC {:.2}, MRAM read util {:.0}%",
        s.instructions,
        s.ipc(),
        s.mram_read_utilization() * 100.0
    );
    Ok(())
}
