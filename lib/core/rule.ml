(* Diff-rules: the DRAV abstraction (§III-A).

   A diff-rule reconciles a legal micro-architecture-dependent
   divergence between the DUT and the REF.  Rules come in two shapes:

   - [pre] rules inspect a DUT commit *before* the REF steps and may
     force an event onto the REF (exception, interrupt, SC failure) --
     these correspond to "the DUT is trusted to trigger the event and
     the REF is notified to refine its behaviour";
   - [post] rules run after the REF has stepped and may patch the REF
     (non-deterministic CSR reads, Global-Memory load values) or
     reject the commit as a real mismatch.

   Rules are data: the standard RISC-V set lives in [Rules.standard],
   and verification code can add its own on the fly, which is what
   makes one REF serve many DUTs (the N-to-1 correspondence). *)

type ctx = {
  refs : Ref_model.t array; (* one single-core REF per hart *)
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
  f_commits : int; (* commits checked when the failure fired; -1 unknown *)
  f_probe : string; (* snapshot of the offending commit probe, or "" *)
}

type verdict = Pass | Patched | Fail of string

(* One-line snapshot of a commit probe for failure reports: pc,
   instruction, and the memory access values the DUT saw. *)
let describe_probe (p : Xiangshan.Probe.commit) : string =
  let acc tag = function
    | Some (m : Xiangshan.Probe.mem_access) ->
        Printf.sprintf " %s@0x%Lx=0x%Lx" tag m.Xiangshan.Probe.m_paddr
          m.Xiangshan.Probe.m_value
    | None -> ""
  in
  Printf.sprintf "pc=0x%Lx insn=%s next=0x%Lx%s%s"
    p.Xiangshan.Probe.p_pc
    (Riscv.Insn.show p.Xiangshan.Probe.p_insn)
    p.Xiangshan.Probe.p_next_pc
    (acc "load" p.Xiangshan.Probe.p_load)
    (acc "store" p.Xiangshan.Probe.p_store)

let string_of_failure (f : failure) : string =
  Printf.sprintf "cycle %d hart %d pc=0x%Lx [%s] %s%s" f.f_cycle f.f_hart
    f.f_pc f.f_rule f.f_msg
    (if f.f_probe = "" then "" else "; probe: " ^ f.f_probe)

(* returns true when the rule fired (forced an event) *)
type pre_hook = ctx -> hart:int -> Xiangshan.Probe.commit -> bool

type post_hook =
  ctx -> hart:int -> Xiangshan.Probe.commit -> Ref_model.commit -> verdict

type t = {
  name : string;
  descr : string;
  mutable fires : int;
  pre : pre_hook option;
  post : post_hook option;
}

let fail ctx ~hart ~(probe : Xiangshan.Probe.commit) ~rule msg =
  if ctx.failure = None then
    ctx.failure <-
      Some
        {
          f_cycle = probe.Xiangshan.Probe.p_cycle;
          f_hart = hart;
          f_pc = probe.Xiangshan.Probe.p_pc;
          f_rule = rule;
          f_msg = msg;
          f_commits = -1;
          f_probe = describe_probe probe;
        }

let make ?pre ?post ~name ~descr () = { name; descr; fires = 0; pre; post }

(* Guard against livelock from repeatedly forced events at one pc
   (paper: forced events are "tracked and asserted not to repeatedly
   occur").  Each forcing rule owns its guard, so one rule's reset
   cannot clear another's count: the counts are keyed by (hart, pc)
   within the rule, and the rule decides what resets a key.  A rule
   that clears on every commit pays one length test while nothing is
   being forced. *)
let max_consecutive_forces = 200

type guard = { g_rule : string; g_counts : (int * int64, int) Hashtbl.t }

let force_guard rule = { g_rule = rule; g_counts = Hashtbl.create 16 }

let bump_force_guard g ctx ~hart ~(probe : Xiangshan.Probe.commit) =
  let key = (hart, probe.Xiangshan.Probe.p_pc) in
  let n = Option.value (Hashtbl.find_opt g.g_counts key) ~default:0 + 1 in
  Hashtbl.replace g.g_counts key n;
  if n > max_consecutive_forces then
    fail ctx ~hart ~probe ~rule:g.g_rule
      (Printf.sprintf "event forced %d times at the same pc (livelock?)" n)

let clear_force_guard g ~hart ~(probe : Xiangshan.Probe.commit) =
  if Hashtbl.length g.g_counts > 0 then
    Hashtbl.remove g.g_counts (hart, probe.Xiangshan.Probe.p_pc)
