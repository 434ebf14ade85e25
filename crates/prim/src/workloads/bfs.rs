//! **BFS** — level-synchronous breadth-first search over a CSR graph.
//! Table II: 2K vertices / 15K edges (single DPU), 16K / 120K (multi).
//!
//! Each kernel launch expands one BFS level: phase 1 claims newly
//! discovered owned vertices (assigning their level and marking them
//! active), phase 2 scatters their neighbours into a shared next-frontier
//! bitmap under word-granular mutexes. The host ORs the per-DPU next
//! frontiers and re-broadcasts them — the per-level inter-DPU
//! communication that makes BFS scale sub-linearly in the paper's Fig 10.

use std::ops::Range;

use pim_asm::{Barrier, DpuProgram, KernelBuilder};
use pim_dpu::SimError;
use pim_isa::{AluOp, Cond};
use pim_rng::StdRng;

use crate::common::{region, words, Params, Stage};
use crate::{datasets, DatasetSize, RunConfig, Workload, WorkloadRun};

/// Owned vertices processed per staging block (and the owned-range
/// alignment unit).
const VBLOCK: u32 = 64;
/// Neighbour indices staged per chunk.
const NCHUNK: u32 = 128;
/// Word-granular mutexes protecting the shared next-frontier bitmap.
const N_MUTEXES: u32 = 64;

/// The BFS workload.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Bfs;

#[allow(clippy::too_many_lines)]
fn kernel(n_tasklets: u32, vtotal: u32, flat: bool) -> (DpuProgram, Params) {
    assert_eq!(vtotal % 32, 0);
    let front_bytes = vtotal / 8;
    let mut k = KernelBuilder::new();
    let params =
        Params::define(&mut k, &["depth", "owned", "vs", "rp_base", "col_base", "level_base"]);
    let in_front = k.global_zeroed("in_front", front_bytes);
    let next_front = k.global_zeroed("next_front", front_bytes);
    let active = k.global_zeroed("active", front_bytes);
    let bar = Barrier::alloc(&mut k, n_tasklets);
    let mutex_base = {
        let base = k.alloc_atomic_bit();
        for _ in 1..N_MUTEXES {
            k.alloc_atomic_bit();
        }
        base
    };
    let (lvl_buf, col_buf, rp_buf) = if flat {
        (0, 0, 0)
    } else {
        (
            k.alloc_wram(VBLOCK * 4 * n_tasklets, 8),
            k.alloc_wram(NCHUNK * 4 * n_tasklets, 8),
            k.alloc_wram(8 * n_tasklets, 8),
        )
    };

    let [t, owned, depth, blk] = k.regs(["t", "owned", "depth", "blk"]);
    let [cnt, i, vo, word] = k.regs(["cnt", "i", "vo", "word"]);
    let [mask, p, m, v] = k.regs(["mask", "p", "m", "v"]);
    params.load(&mut k, owned, "owned");
    params.load(&mut k, depth, "depth");
    k.tid(t);

    // ---- Phase 0: cooperatively clear next_front and active. ----
    {
        let [s, e] = k.regs(["s", "e"]);
        k.movi(v, front_bytes as i32);
        crate::common::emit_tasklet_byte_range(&mut k, v, t, s, e, n_tasklets);
        k.movi(v, 0);
        let done = k.fresh_label("clr_done");
        k.branch(Cond::Geu, s, e, &done);
        let clr = k.label_here("clr");
        k.add(p, s, next_front as i32);
        k.sw(v, p, 0);
        k.add(p, s, active as i32);
        k.sw(v, p, 0);
        k.add(s, s, 4);
        k.branch(Cond::Ltu, s, e, &clr);
        k.place(&done);
        k.release_reg("s");
        k.release_reg("e");
    }
    bar.wait(&mut k, [p, m, v]);

    // ---- Phase 1: claim newly discovered owned vertices. ----
    // Blocks of VBLOCK owned vertices, round-robin across tasklets.
    {
        let [lb, changed, vg] = k.regs(["lb", "changed", "vg"]);
        if !flat {
            k.mul(lb, t, (VBLOCK * 4) as i32);
            k.add(lb, lb, lvl_buf as i32);
        }
        k.mul(blk, t, VBLOCK as i32);
        let p1_done = k.fresh_label("p1_done");
        let p1_outer = k.label_here("p1_outer");
        k.branch(Cond::Geu, blk, owned, &p1_done);
        k.sub(cnt, owned, blk);
        k.alu(AluOp::Min, cnt, cnt, VBLOCK as i32);
        if !flat {
            // Stage levels[blk .. blk+cnt].
            k.mul(m, blk, 4);
            params.load(&mut k, p, "level_base");
            k.add(m, m, p);
            k.mul(v, cnt, 4);
            k.ldma(lb, m, v);
        } else {
            k.mul(lb, blk, 4);
            params.load(&mut k, p, "level_base");
            k.add(lb, lb, p);
        }
        k.movi(changed, 0);
        k.movi(i, 0);
        let p1_each = k.label_here("p1_each");
        let p1_next = k.fresh_label("p1_next");
        // vg = vs + blk + i (global id); test in_front bit.
        k.add(vo, blk, i);
        params.load(&mut k, vg, "vs");
        k.add(vg, vg, vo);
        k.alu(AluOp::Srl, word, vg, 5);
        k.mul(p, word, 4);
        k.add(p, p, in_front as i32);
        k.lw(v, p, 0);
        k.alu(AluOp::And, mask, vg, 31);
        k.alu(AluOp::Srl, v, v, mask);
        k.alu(AluOp::And, v, v, 1);
        k.branch(Cond::Eq, v, 0, &p1_next);
        // Undiscovered?
        k.mul(p, i, 4);
        k.add(p, p, lb);
        k.lw(v, p, 0);
        k.branch(Cond::Ne, v, -1, &p1_next);
        // Claim: level = depth, active bit set (owned-index space).
        k.sw(depth, p, 0);
        k.movi(changed, 1);
        k.alu(AluOp::Srl, word, vo, 5);
        k.mul(p, word, 4);
        k.add(p, p, active as i32);
        k.alu(AluOp::And, mask, vo, 31);
        k.movi(v, 1);
        k.alu(AluOp::Sll, v, v, mask);
        k.lw(m, p, 0);
        k.alu(AluOp::Or, m, m, v);
        k.sw(m, p, 0);
        k.place(&p1_next);
        k.add(i, i, 1);
        k.branch(Cond::Ltu, i, cnt, &p1_each);
        if !flat {
            // Write the level block back if it changed.
            let no_wb = k.fresh_label("no_wb");
            k.branch(Cond::Eq, changed, 0, &no_wb);
            k.mul(m, blk, 4);
            params.load(&mut k, p, "level_base");
            k.add(m, m, p);
            k.mul(v, cnt, 4);
            k.sdma(lb, m, v);
            k.place(&no_wb);
        }
        k.add(blk, blk, (n_tasklets * VBLOCK) as i32);
        k.jump(&p1_outer);
        k.place(&p1_done);
        k.release_reg("lb");
        k.release_reg("changed");
        k.release_reg("vg");
    }
    bar.wait(&mut k, [p, m, v]);

    // ---- Phase 2: expand active vertices into next_front. ----
    {
        let [lo, hi, nn, pc2] = k.regs(["lo", "hi", "nn", "pc2"]);
        let [pend, u, bit] = k.regs(["pend", "u", "bit"]);
        k.mul(blk, t, VBLOCK as i32);
        let p2_done = k.fresh_label("p2_done");
        let p2_outer = k.label_here("p2_outer");
        k.branch(Cond::Geu, blk, owned, &p2_done);
        k.sub(cnt, owned, blk);
        k.alu(AluOp::Min, cnt, cnt, VBLOCK as i32);
        k.movi(i, 0);
        let p2_each = k.label_here("p2_each");
        let p2_next = k.fresh_label("p2_next");
        k.add(vo, blk, i);
        // Active?
        k.alu(AluOp::Srl, word, vo, 5);
        k.mul(p, word, 4);
        k.add(p, p, active as i32);
        k.lw(v, p, 0);
        k.alu(AluOp::And, mask, vo, 31);
        k.alu(AluOp::Srl, v, v, mask);
        k.alu(AluOp::And, v, v, 1);
        k.branch(Cond::Eq, v, 0, &p2_next);
        // lo, hi = rowptr[vo], rowptr[vo+1].
        k.mul(m, vo, 4);
        params.load(&mut k, p, "rp_base");
        k.add(m, m, p);
        if flat {
            k.lw(lo, m, 0);
            k.lw(hi, m, 4);
        } else {
            k.mul(p, t, 8);
            k.add(p, p, rp_buf as i32);
            k.ldma(p, m, 8);
            k.lw(lo, p, 0);
            k.lw(hi, p, 4);
        }
        // Neighbour chunks.
        let chunk_loop = k.label_here("chunk_loop");
        k.branch(Cond::Geu, lo, hi, &p2_next);
        k.sub(nn, hi, lo);
        k.alu(AluOp::Min, nn, nn, NCHUNK as i32);
        if flat {
            k.mul(m, lo, 4);
            params.load(&mut k, p, "col_base");
            k.add(pc2, m, p);
            k.mul(v, nn, 4);
            k.add(pend, pc2, v);
        } else {
            k.mul(m, lo, 4);
            params.load(&mut k, p, "col_base");
            k.add(m, m, p);
            k.mul(pc2, t, (NCHUNK * 4) as i32);
            k.add(pc2, pc2, col_buf as i32);
            k.mul(v, nn, 4);
            k.ldma(pc2, m, v);
            k.add(pend, pc2, v);
        }
        let scatter = k.label_here("scatter");
        k.lw(u, pc2, 0);
        // Set next_front bit u under mutex[word % 64].
        k.alu(AluOp::Srl, word, u, 5);
        k.alu(AluOp::And, bit, word, N_MUTEXES as i32 - 1);
        k.add(bit, bit, mutex_base as i32);
        k.mul(p, word, 4);
        k.add(p, p, next_front as i32);
        k.alu(AluOp::And, mask, u, 31);
        k.movi(v, 1);
        k.alu(AluOp::Sll, v, v, mask);
        k.acquire(bit);
        k.lw(m, p, 0);
        k.alu(AluOp::Or, m, m, v);
        k.sw(m, p, 0);
        k.release(bit);
        k.add(pc2, pc2, 4);
        k.branch(Cond::Ltu, pc2, pend, &scatter);
        k.add(lo, lo, nn);
        k.jump(&chunk_loop);
        k.place(&p2_next);
        k.add(i, i, 1);
        k.branch(Cond::Ltu, i, cnt, &p2_each);
        k.add(blk, blk, (n_tasklets * VBLOCK) as i32);
        k.jump(&p2_outer);
        k.place(&p2_done);
    }
    k.stop();
    (k.build().expect("BFS kernel builds"), params)
}

/// A CSR digraph.
struct Graph {
    v: usize,
    rowptr: Vec<i32>,
    colidx: Vec<i32>,
}

fn generate(v: usize, e: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut adj: Vec<Vec<i32>> = vec![Vec::new(); v];
    for _ in 0..e {
        let a = rng.gen_range(0..v);
        let b = rng.gen_range(0..v) as i32;
        adj[a].push(b);
    }
    let mut rowptr = Vec::with_capacity(v + 1);
    rowptr.push(0i32);
    let mut colidx = Vec::new();
    for l in &mut adj {
        l.sort_unstable();
        colidx.extend_from_slice(l);
        rowptr.push(colidx.len() as i32);
    }
    Graph { v, rowptr, colidx }
}

fn reference(g: &Graph, src: usize) -> Vec<i32> {
    let mut levels = vec![-1i32; g.v];
    levels[src] = 0;
    let mut frontier = vec![src];
    let mut depth = 0;
    while !frontier.is_empty() {
        depth += 1;
        let mut next = Vec::new();
        for &v in &frontier {
            for idx in g.rowptr[v] as usize..g.rowptr[v + 1] as usize {
                let u = g.colidx[idx] as usize;
                if levels[u] == -1 {
                    levels[u] = depth;
                    next.push(u);
                }
            }
        }
        frontier = next;
    }
    levels
}

impl Workload for Bfs {
    fn name(&self) -> &'static str {
        "BFS"
    }

    fn run(&self, size: DatasetSize, rc: &RunConfig) -> Result<WorkloadRun, SimError> {
        let (vtotal, edges) = datasets::bfs(size);
        let g = generate(vtotal, edges, 0x42_4653);
        let expect = reference(&g, 0);
        let n_dpus = rc.n_dpus as usize;
        assert_eq!(
            vtotal % (VBLOCK as usize * n_dpus),
            0,
            "vertex count must split into {VBLOCK}-aligned bands"
        );
        let owned = vtotal / n_dpus;
        let mut st = Stage::new(rc, kernel(rc.dpu.n_tasklets, vtotal as u32, rc.cached()))?;
        // Per-DPU CSR slices (rowptr rebased) and level arrays.
        let bands: Vec<Range<usize>> = (0..n_dpus).map(|d| d * owned..(d + 1) * owned).collect();
        let rp_slices: Vec<Vec<i32>> = bands
            .iter()
            .map(|b| {
                let base = g.rowptr[b.start];
                g.rowptr[b.start..=b.end].iter().map(|x| x - base).collect()
            })
            .collect();
        let col_slices: Vec<Vec<i32>> = bands
            .iter()
            .map(|b| g.colidx[g.rowptr[b.start] as usize..g.rowptr[b.end] as usize].to_vec())
            .collect();
        let col_off = region((owned + 1) as u32 * 4);
        let level_off =
            col_off + region(col_slices.iter().map(|s| s.len().max(1)).max().unwrap() as u32 * 4);
        let unvisited = vec![-1i32; owned];
        st.scatter(0, |d| rp_slices[d].as_slice())?;
        st.scatter(col_off, |d| col_slices[d].as_slice())?;
        st.scatter(level_off, |_| unvisited.as_slice())?;
        let bases = [0, col_off, level_off].map(|off| st.addr(off));
        // Level-synchronous host loop.
        let front_words = vtotal / 32;
        let mut in_front = vec![0u32; front_words];
        in_front[0] = 1; // vertex 0
        let mut depth: u32 = 0;
        loop {
            let front_bytes: Vec<u8> = in_front.iter().flat_map(|w| w.to_le_bytes()).collect();
            st.broadcast_symbol("in_front", &front_bytes);
            st.params(|d| {
                [
                    ("depth", depth),
                    ("owned", owned as u32),
                    ("vs", (d * owned) as u32),
                    ("rp_base", bases[0]),
                    ("col_base", bases[1]),
                    ("level_base", bases[2]),
                ]
            })?;
            st.launch()?;
            // OR the per-DPU next frontiers on the host.
            let mut merged = vec![0u32; front_words];
            st.pull_symbol("next_front", |_, nf| {
                for (w, v) in merged.iter_mut().zip(words(nf)) {
                    *w |= v as u32;
                }
            });
            if merged.iter().all(|w| *w == 0) {
                break;
            }
            in_front = merged;
            depth += 1;
            assert!(depth as usize <= vtotal, "BFS failed to converge");
        }
        let validation = st.check("BFS", level_off, &vec![owned as u32 * 4; n_dpus], expect);
        Ok(st.finish(validation))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dpu::DpuConfig;

    #[test]
    fn bfs_tiny_thread_sweep() {
        for t in [1, 4, 16] {
            Bfs.run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(t)))
                .unwrap()
                .assert_valid();
        }
    }

    #[test]
    fn bfs_tiny_multi_dpu() {
        Bfs.run(DatasetSize::Tiny, &RunConfig::multi(4, DpuConfig::paper_baseline(4)))
            .unwrap()
            .assert_valid();
    }

    #[test]
    fn bfs_tiny_cache_mode() {
        let cfg = DpuConfig::paper_baseline(4).with_paper_caches();
        Bfs.run(DatasetSize::Tiny, &RunConfig::single(cfg)).unwrap().assert_valid();
    }

    #[test]
    fn bfs_uses_multiple_launches() {
        let run =
            Bfs.run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(4))).unwrap();
        assert!(run.timeline.launches > 2, "BFS must iterate levels through the host");
    }
}
