(** Diff-rules: the DRAV abstraction of paper §III-A.

    A rule reconciles one class of legal micro-architecture-dependent
    divergence between the DUT and the REF.  [pre] rules inspect a DUT
    commit before the REF steps and may force an event onto it
    (exception / interrupt / SC failure); [post] rules run after the
    REF stepped and may patch it (non-deterministic CSR reads,
    Global-Memory load values) or reject the commit as a real
    mismatch.

    Rules are data: {!Rules.standard} builds the RISC-V set, and
    verification code can pass its own list to {!Difftest.create} --
    which is what lets one REF serve many DUTs (the N-to-1
    correspondence of Figure 1c). *)

(** Shared state the rules operate on. *)
type ctx = {
  refs : Ref_model.t array; (** one single-core REF per hart *)
  global_mem : Global_memory.t;
  soc : Xiangshan.Soc.t;
  mutable failure : failure option;
}

and failure = {
  f_cycle : int;
  f_hart : int;
  f_pc : int64;
  f_rule : string;
  f_msg : string;
  f_commits : int;
      (** commits checked when the failure fired; -1 if unknown *)
  f_probe : string;
      (** snapshot of the offending commit probe (pc, instruction,
          DUT memory-access values), or [""] when no probe applies *)
}

type verdict = Pass | Patched | Fail of string

val describe_probe : Xiangshan.Probe.commit -> string
(** One-line snapshot of a commit probe for failure reports. *)

val string_of_failure : failure -> string
(** Everything a report needs on one line: cycle, hart, pc, the rule
    that fired, the message, and the probe snapshot. *)

type pre_hook = ctx -> hart:int -> Xiangshan.Probe.commit -> bool
(** Returns whether the rule fired (forced an event). *)

type post_hook =
  ctx -> hart:int -> Xiangshan.Probe.commit -> Ref_model.commit -> verdict

type t = {
  name : string;
  descr : string;
  mutable fires : int;
  pre : pre_hook option;
  post : post_hook option;
}

val make :
  ?pre:pre_hook -> ?post:post_hook -> name:string -> descr:string -> unit -> t

val fail :
  ctx -> hart:int -> probe:Xiangshan.Probe.commit -> rule:string -> string -> unit

val max_consecutive_forces : int

(** A forcing rule's livelock guard (paper: forced events are "tracked
    and asserted not to repeatedly occur"): consecutive forces per
    (hart, pc), owned by one rule so no other rule's reset clears
    them. *)
type guard

val force_guard : string -> guard
(** A fresh guard for the rule of that name (the name its failure
    reports). *)

val bump_force_guard :
  guard -> ctx -> hart:int -> probe:Xiangshan.Probe.commit -> unit
(** Count one forced event at the probe's (hart, pc); past
    {!max_consecutive_forces} the rule fails. *)

val clear_force_guard : guard -> hart:int -> probe:Xiangshan.Probe.commit -> unit
(** Reset the probe's (hart, pc) count.  Costs one length test while
    the guard counts nothing. *)
