//! Transfer-model differential suite: pins the channel model v2 to the
//! legacy v1 arithmetic and to its own invariants.
//!
//! Three layers:
//!
//! 1. **Legacy identity** — under [`ChannelMode::Blocking`] (the default
//!    everywhere) every workload's timeline must be *bitwise* the serial
//!    v1 sum: `wall == to + kernel + from`, with each phase priced by the
//!    bare [`pim_host::to_dpu_ns`] / [`pim_host::from_dpu_ns`] formulas. An explicit
//!    `with_channel(Blocking)` run must be indistinguishable from a
//!    default run.
//! 2. **Mode invariants on real workloads** — the v2 modes may only
//!    reshuffle CPU→DPU time: kernel and read-back phases stay bitwise
//!    identical, and the overlapped wall never exceeds the blocking one.
//! 3. **Property tests on seeded shapes** — random op sequences driven
//!    through [`Channel`] engines in lockstep, one per mode, checking
//!    the ordering and conservation laws the modes promise.
//!
//! Also pins the typed rejection of unknown [`ChannelMode`] names, and that
//! zero-byte transfers stay valid.

use pim_dpu::DpuConfig;
use pim_host::{to_dpu_ns, Channel, ChannelConfig, ChannelError, ChannelMode, RANK_DPUS};
use pim_rng::StdRng;
use prim_suite::{extended_workloads, DatasetSize, RunConfig};

/// Tolerance for comparing two different float *summation orders* of the
/// same quantities. Identity claims use exact equality instead.
const EPS: f64 = 1e-6;

#[test]
fn blocking_is_the_v1_serial_sum_on_every_workload() {
    for w in extended_workloads() {
        let cfg = DpuConfig::paper_baseline(8);
        let run = w
            .run(DatasetSize::Tiny, &RunConfig::single(cfg.clone()))
            .unwrap_or_else(|e| panic!("{} faulted: {e}", w.name()));
        let tl = &run.timeline;
        // The blocking wall is exactly the serial phase sum — no separate
        // wall clock exists in v1, and v2's must degenerate to it.
        assert_eq!(
            tl.wall_ns(),
            tl.to_dpu_ns + tl.kernel_ns + tl.from_dpu_ns,
            "{}: blocking wall must be the serial sum",
            w.name()
        );
        // An explicit Blocking selection is byte-identical to the default.
        let explicit = w
            .run(DatasetSize::Tiny, &RunConfig::single(cfg).with_channel(ChannelMode::Blocking))
            .unwrap_or_else(|e| panic!("{} (explicit) faulted: {e}", w.name()));
        assert_eq!(tl.to_dpu_ns, explicit.timeline.to_dpu_ns, "{}", w.name());
        assert_eq!(tl.kernel_ns, explicit.timeline.kernel_ns, "{}", w.name());
        assert_eq!(tl.from_dpu_ns, explicit.timeline.from_dpu_ns, "{}", w.name());
        assert_eq!(tl.wall_ns(), explicit.timeline.wall_ns(), "{}", w.name());
    }
}

#[test]
fn v2_modes_preserve_kernel_and_readback_on_every_workload() {
    for w in extended_workloads() {
        let n_dpus = if w.supports_multi_dpu() { 4 } else { 1 };
        let mk = |mode: ChannelMode| {
            let cfg = DpuConfig::paper_baseline(8);
            let rc =
                if n_dpus == 1 { RunConfig::single(cfg) } else { RunConfig::multi(n_dpus, cfg) };
            w.run(DatasetSize::Tiny, &rc.with_channel(mode))
                .unwrap_or_else(|e| panic!("{} {}: {e}", w.name(), mode.label()))
        };
        let blocking = mk(ChannelMode::Blocking);
        for mode in [ChannelMode::Broadcast, ChannelMode::Overlapped] {
            let run = mk(mode);
            // The simulation itself is mode-independent: results stay
            // bit-exact against the reference…
            run.validation
                .as_ref()
                .unwrap_or_else(|e| panic!("{} {}: validation: {e}", w.name(), mode.label()));
            // …and so are the phases the modes may not touch: kernel time
            // and the synchronous read-back.
            assert_eq!(
                run.timeline.kernel_ns,
                blocking.timeline.kernel_ns,
                "{} {}: kernel phase must not depend on the channel mode",
                w.name(),
                mode.label()
            );
            assert_eq!(
                run.timeline.from_dpu_ns,
                blocking.timeline.from_dpu_ns,
                "{} {}: read-back stays synchronous (and asymmetric) in every mode",
                w.name(),
                mode.label()
            );
            // The v2 modes only remove transfer stalls, never add them.
            assert!(
                run.timeline.wall_ns() <= blocking.timeline.wall_ns() + EPS,
                "{} {}: wall {} exceeds blocking {}",
                w.name(),
                mode.label(),
                run.timeline.wall_ns(),
                blocking.timeline.wall_ns()
            );
            // And the wall can never beat the kernel or read-back legs.
            let floor = run.timeline.kernel_ns.max(run.timeline.from_dpu_ns);
            assert!(
                run.timeline.wall_ns() >= floor - EPS,
                "{} {}: wall {} beats its own longest leg {}",
                w.name(),
                mode.label(),
                run.timeline.wall_ns(),
                floor
            );
        }
    }
}

/// One random channel op, applied identically to every mode's engine.
#[derive(Debug, Clone)]
enum Op {
    Push(Vec<u64>),
    Broadcast(u64),
    Kernel(f64),
    Pull(u64),
}

fn random_ops(rng: &mut StdRng, n_dpus: u32) -> Vec<Op> {
    let n_ops = rng.gen_range(3..12usize);
    let mut ops = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        ops.push(match rng.gen_range(0..4u32) {
            0 => Op::Push(
                (0..n_dpus)
                    // Zero-byte chunks stay valid no-ops at every layer.
                    .map(|_| if rng.gen_bool() { 0 } else { rng.gen_range(1..65536u64) })
                    .collect(),
            ),
            1 => Op::Broadcast(rng.gen_range(0..65536u64)),
            2 => Op::Kernel(rng.gen_range(1..100_000u64) as f64),
            _ => Op::Pull(rng.gen_range(0..16384u64)),
        });
    }
    // Always end on a pull so the overlapped engine drains.
    ops.push(Op::Pull(rng.gen_range(1..16384u64)));
    ops
}

/// Applies `op` and returns the charged duration (kernels charge their
/// own length).
fn apply(ch: &mut Channel, op: &Op) -> f64 {
    match op {
        Op::Push(chunks) => ch.push(chunks),
        Op::Broadcast(bytes) => ch.broadcast(*bytes),
        Op::Kernel(ns) => {
            ch.kernel(*ns);
            *ns
        }
        Op::Pull(bytes) => ch.pull(*bytes),
    }
}

#[test]
fn seeded_shapes_obey_the_mode_ordering_laws() {
    for seed in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(0x7261_6e6b ^ seed);
        // One rank or less, several ranks, and a partial last rank.
        let n_dpus = rng.gen_range(1..2 * RANK_DPUS + 9);
        let ops = random_ops(&mut rng, n_dpus);

        let mk = |mode| Channel::new(ChannelConfig { mode }, n_dpus);
        let mut blocking = mk(ChannelMode::Blocking);
        let mut broadcast = mk(ChannelMode::Broadcast);
        let mut overlapped = mk(ChannelMode::Overlapped);

        let mut serial_sum = 0.0;
        let mut kernel_sum = 0.0;
        let mut pull_sum = 0.0;
        for op in &ops {
            let blocking_charge = apply(&mut blocking, op);
            let broadcast_charge = apply(&mut broadcast, op);
            let overlapped_charge = apply(&mut overlapped, op);
            serial_sum += blocking_charge;
            match op {
                Op::Kernel(ns) => kernel_sum += ns,
                Op::Pull(_) => {
                    pull_sum += blocking_charge;
                    // Read-back asymmetry is preserved in every mode: the
                    // pull is priced identically everywhere.
                    assert_eq!(blocking_charge, broadcast_charge, "seed {seed}");
                    assert_eq!(blocking_charge, overlapped_charge, "seed {seed}");
                }
                Op::Broadcast(bytes) => {
                    // A v2 broadcast can never cost more than the v1
                    // per-DPU write, let alone the per-DPU sum.
                    assert!(
                        broadcast_charge <= blocking_charge + EPS,
                        "seed {seed}: broadcast {broadcast_charge} > blocking {blocking_charge}"
                    );
                    assert!(
                        broadcast_charge * f64::from(n_dpus.min(RANK_DPUS))
                            <= to_dpu_ns(*bytes) * f64::from(n_dpus) + EPS,
                        "seed {seed}: broadcast exceeds the per-DPU sum"
                    );
                    assert_eq!(broadcast_charge, overlapped_charge, "seed {seed}");
                }
                Op::Push(_) => {
                    // Pushes are gated by the slowest chunk in every mode.
                    assert_eq!(blocking_charge, broadcast_charge, "seed {seed}");
                    assert_eq!(blocking_charge, overlapped_charge, "seed {seed}");
                }
            }
        }

        // Blocking: the wall is exactly the serial sum of every charge.
        assert!(
            (blocking.wall_ns() - serial_sum).abs() < EPS,
            "seed {seed}: blocking wall {} != serial sum {serial_sum}",
            blocking.wall_ns()
        );
        // Overlap never increases total virtual time…
        assert!(
            overlapped.wall_ns() <= blocking.wall_ns() + EPS,
            "seed {seed}: overlapped wall {} > blocking {}",
            overlapped.wall_ns(),
            blocking.wall_ns()
        );
        assert!(
            broadcast.wall_ns() <= blocking.wall_ns() + EPS,
            "seed {seed}: broadcast wall {} > blocking {}",
            broadcast.wall_ns(),
            blocking.wall_ns()
        );
        // …but can never hide the host-blocking legs.
        assert!(
            overlapped.wall_ns() >= kernel_sum.max(pull_sum) - EPS,
            "seed {seed}: overlapped wall {} beats its blocking legs (kernels {kernel_sum}, \
             pulls {pull_sum})",
            overlapped.wall_ns()
        );
        // The final pull drained the channel: host and wall agree.
        assert_eq!(overlapped.host_ns(), overlapped.wall_ns(), "seed {seed}");
    }
}

#[test]
fn channel_validation_rejects_garbage_with_typed_errors() {
    // Unknown mode names are typed rejections, not panics.
    assert_eq!(
        ChannelMode::by_name("half-duplex").unwrap_err(),
        ChannelError::UnknownMode("half-duplex".to_string())
    );
    // Zero-byte transfers remain valid no-ops (0 ns) in every mode.
    for mode in ChannelMode::all() {
        let mut ch = Channel::new(ChannelConfig { mode }, 4);
        assert_eq!(ch.push(&[0, 0, 0, 0]), 0.0, "{mode}");
        assert_eq!(ch.broadcast(0), 0.0, "{mode}");
        assert_eq!(ch.pull(0), 0.0, "{mode}");
        assert_eq!(ch.wall_ns(), 0.0, "{mode}");
    }
}
