; Three tasklets, one shared counter behind a
; mutex: the kernel `pimsim run --trace N` is pinned on (run with
; `--tasklets 3`; see crates/cli/tests/cli.rs and the CI "Run trace" step).
.data
counter: .word 0
         .align 8
buffers: .space 64
.text
main:
    tid  r0
    sll  r1, r0, 3          ; this tasklet's 8 B slot, in WRAM and in MRAM
    movi r2, buffers
    add  r2, r2, r1
    lw   r3, 0(r2)
    add  r3, r3, r0
    acquire 0
    movi r4, counter
    lw   r5, 0(r4)
    add  r5, r5, 1
    sw   r5, 0(r4)
    release 0
    sw   r3, 4(r2)
    stop
