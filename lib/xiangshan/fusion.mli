(** Decode-stage macro-op fusion (Table II: NH feature; paper §IV-A).

    Fused pairs execute as one micro-operation, reducing latency and
    increasing the effective capacity of the ROB and issue queues.
    Patterns: lui+addi / lui+addiw (load-immediate), slli+srli by 32
    (zext.w), and slli-by-1..3 + add (shNadd). *)

val try_fuse : Riscv.Insn.t -> Riscv.Insn.t -> Uop.fusion option
(** [try_fuse first second] for two consecutive instructions; [None]
    when they must not fuse (pattern mismatch or the intermediate
    register escapes). *)

val fused_regs :
  Uop.fusion option ->
  Riscv.Insn.t ->
  Riscv.Insn.t option ->
  int list * int list * int option * int option
(** [fused_regs fusion first second]: register usage of a (possibly
    fused) instruction pair, as (int sources, fp sources, int dest, fp
    dest).  It needs no uop, so dispatch decides admission before it
    builds one. *)
