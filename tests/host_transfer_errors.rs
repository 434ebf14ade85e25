//! Error-path pinning for the host runtime's fallible transfer APIs.
//!
//! `try_copy_to_mram` / `try_copy_from_mram` must reject an out-of-range
//! DPU index with [`SimError::BadDpuIndex`], and the parallel batch
//! transfers `try_push_to_mram` / `try_push_to_symbol` must reject a
//! mis-sized batch with [`SimError::ChunkCountMismatch`] — in both cases
//! without touching any DPU state or advancing the host timeline. The Ok
//! paths are pinned alongside so the fallible wrappers stay equivalent to
//! their panicking counterparts.

use pim_asm::KernelBuilder;
use pim_dpu::{DpuConfig, SimError};
use pim_host::{ChannelConfig, PimSystem};

const N_DPUS: u32 = 3;

fn system() -> PimSystem {
    PimSystem::new(N_DPUS, DpuConfig::paper_baseline(1), ChannelConfig::paper())
}

#[test]
fn try_copy_to_mram_rejects_a_bad_dpu_index() {
    let mut sys = system();
    assert_eq!(
        sys.try_copy_to_mram(N_DPUS, 0, &[1, 2, 3, 4]),
        Err(SimError::BadDpuIndex { dpu: N_DPUS, n_dpus: N_DPUS })
    );
    assert_eq!(
        sys.try_copy_to_mram(u32::MAX, 0, &[]),
        Err(SimError::BadDpuIndex { dpu: u32::MAX, n_dpus: N_DPUS })
    );
    // In-range indices (all of them) succeed.
    for dpu in 0..N_DPUS {
        sys.try_copy_to_mram(dpu, 64, &[dpu as u8; 8]).unwrap();
    }
}

#[test]
fn try_copy_from_mram_rejects_a_bad_dpu_index() {
    let mut sys = system();
    assert_eq!(
        sys.try_copy_from_mram(N_DPUS, 0, 8).unwrap_err(),
        SimError::BadDpuIndex { dpu: N_DPUS, n_dpus: N_DPUS }
    );
    // Round-trip through the Ok paths: what was pushed comes back.
    sys.try_copy_to_mram(1, 128, &[0xAB; 16]).unwrap();
    assert_eq!(sys.try_copy_from_mram(1, 128, 16).unwrap(), vec![0xAB; 16]);
    // The failed copy must not have written DPU 2.
    assert_eq!(sys.try_copy_from_mram(2, 128, 16).unwrap(), vec![0u8; 16]);
}

#[test]
fn try_push_to_mram_rejects_a_mis_sized_batch() {
    let mut sys = system();
    let chunk: &[u8] = &[7; 8];
    // One chunk short and one chunk over: both batch-sizing errors.
    assert_eq!(
        sys.try_push_to_mram(0, &[chunk; 2]),
        Err(SimError::ChunkCountMismatch { chunks: 2, n_dpus: N_DPUS })
    );
    assert_eq!(
        sys.try_push_to_mram(0, &[chunk; 4]),
        Err(SimError::ChunkCountMismatch { chunks: 4, n_dpus: N_DPUS })
    );
    assert_eq!(
        sys.try_push_to_mram(0, &[]),
        Err(SimError::ChunkCountMismatch { chunks: 0, n_dpus: N_DPUS })
    );
    // The failed batches wrote nothing.
    assert_eq!(sys.try_copy_from_mram(0, 0, 8).unwrap(), vec![0u8; 8]);
    // A correctly-sized batch lands per-DPU.
    sys.try_push_to_mram(256, &[&[1; 4], &[2; 4], &[3; 4]]).unwrap();
    for dpu in 0..N_DPUS {
        assert_eq!(sys.try_copy_from_mram(dpu, 256, 4).unwrap(), vec![dpu as u8 + 1; 4]);
    }
}

#[test]
fn try_push_to_symbol_rejects_a_mis_sized_batch() {
    let mut sys = system();
    let mut k = KernelBuilder::new();
    k.global_zeroed("buf", 16);
    k.stop();
    sys.load(&k.build().expect("symbol program builds")).unwrap();

    let chunk: &[u8] = &[9; 4];
    assert_eq!(
        sys.try_push_to_symbol("buf", &[chunk; 1]),
        Err(SimError::ChunkCountMismatch { chunks: 1, n_dpus: N_DPUS })
    );
    // A correctly-sized batch succeeds (the symbol exists on every DPU).
    sys.try_push_to_symbol("buf", &[&[1; 4], &[2; 4], &[3; 4]]).unwrap();
}
