//! The paper's four §V case studies, each in a few lines: the simulator's
//! whole point is that these are *configuration changes*, not new
//! simulators.
//!
//! ```sh
//! cargo run --release --example case_studies
//! ```

use pim_dpu::{IlpFeatures, SimtConfig};
use pimulator::prelude::*;

fn time_of(name: &str, cfg: DpuConfig) -> f64 {
    let w = workload_by_name(name).expect("known workload");
    let run = w.run(DatasetSize::Tiny, &RunConfig::single(cfg)).expect("runs");
    run.validation.as_ref().expect("validates");
    run.merged().time_ns()
}

fn main() {
    let base = DpuConfig::paper_baseline(16);

    // §V-A: SIMT vector processing on GEMV.
    let t0 = time_of("GEMV", base.clone());
    let t1 = time_of("GEMV", base.clone().with_simt(SimtConfig { coalescing: true }));
    println!("§V-A  SIMT+AC on GEMV          : {:.2}x speedup", t0 / t1);

    // §V-B: the ILP feature ladder on a compute-bound workload.
    let t0 = time_of("TS", base.clone());
    let t1 = time_of("TS", base.clone().with_ilp(IlpFeatures::all()));
    println!("§V-B  Base+DRSF on TS          : {:.2}x speedup", t0 / t1);

    // §V-C: an MMU in front of every MRAM access.
    let t0 = time_of("VA", base.clone());
    let t1 = time_of("VA", base.clone().with_paper_mmu());
    println!("§V-C  MMU on VA                : {:.1}% overhead", (t1 / t0 - 1.0) * 100.0);

    // §V-D: on-demand caches instead of the scratchpad.
    let t0 = time_of("BS", base.clone());
    let t1 = time_of("BS", base.with_paper_caches());
    println!("§V-D  caches vs scratchpad, BS : {:.2}x speedup", t0 / t1);
}
