(** Micro-operations flowing through the out-of-order backend.  One
    uop normally covers one instruction; with macro-op fusion enabled
    it may cover two ([n_insns] = 2). *)

open Riscv

type fusion =
  | Fused_lui_addi of int64 (** the resulting constant *)
  | Fused_zext_w
  | Fused_sh_add of int (** the shift amount, 1..3 *)

(** Where the uop executes: in an issue queue, at the ROB head
    (system instructions, atomics, MMIO), or nowhere (eliminated
    moves). *)
type where = In_iq | At_commit | Eliminated

type state = Waiting | Issued | Completed

type t = {
  seq : int; (** global program-order sequence number *)
  pc : int64;
  insn : Insn.t;
  second : Insn.t option;
  fusion : fusion option;
  n_insns : int;
  pred_next : int64; (** predicted next pc after this uop's insns *)
  exec_class : Config.exec_class;
  where : where;
  mutable arch_rd : int;
  mutable rd_is_fp : bool;
  mutable prd : int;
  mutable old_prd : int;
  mutable psrc : int array;
  mutable psrc_fp : bool array;
  mutable src2 : int;
  mutable state : state;
  mutable done_at : int;
  mutable result : int64;
  mutable next_pc : int64;
  mutable mispredicted : bool;
  mutable exc : (Trap.exc * int64) option;
  mutable priority : bool; (** PUBS high priority *)
  mutable squashed : bool;
  mutable in_iq : bool;
      (** resident in an issue queue; maintained by [Iq] so phase-2
          issue revalidation is O(1) (a boundary fault hook may have
          stolen the slot) *)
  mutable eliminated : bool;
  mutable srcs_ready_at : int;
      (** the cycle all physical sources are available, once every
          producer has completed; -1 before.  The issue planner's memo
          of [Rename.srcs_ready_at] *)
  mutable vaddr : int64;
  mutable paddr : int64;
  mutable msize : int;
  mutable sdata : int64;
  mutable addr_ready : bool;
  mutable mmio : bool;
  mutable load_value : int64;
  mutable mem_cycle : int; (** when the access touched memory *)
  mutable sc_failed : bool;
  mutable csr_read : (int * int64) option;
  mutable committed_store : bool;
}

val is_load : t -> bool
(** Pipelined loads only (LR/AMO execute at the head). *)

val is_store : t -> bool
(** Stores that go through the SQ/store buffer. *)

val is_store_insn : Insn.t -> bool
(** [is_store] of the uop an instruction becomes. *)

val classify : Insn.t -> Config.exec_class * where

val latency : Config.exec_class -> Insn.t -> int
(** Execution latency in cycles (FMA = 5, the paper's cascade FMA). *)

val make :
  seq:int ->
  pc:int64 ->
  insn:Insn.t ->
  second:Insn.t option ->
  fusion:fusion option ->
  pred_next:int64 ->
  t

val vacant : t
(** The filler of an empty slot in a preallocated uop array; it never
    enters the pipeline. *)
