(* NEMU: the fast threaded-code interpreter (paper §III-D1), extended
   with superblock compilation.

   Every guest instruction is compiled once into a specialised OCaml
   closure (the "execution routine") whose operands -- register
   indices, immediates, even the pc -- are inlined at compile time.
   Straight-line runs of such closures (everything up to the next
   branch / jump / system instruction, the paper's trace locality) are
   fused into one *superblock*: a uop-cache entry whose [body] array
   is executed back-to-back by a single dispatch, bulk-updating
   [instret] and checking the run budget once per block instead of
   once per instruction.

   Entries are chained to each other at block granularity:

   - [seq]: the fall-through successor (the paper's "add 1 to upc");
   - [tgt]: the taken target of a direct branch or jump (block
     chaining);
   - indirect jumps query the hash list (❺ in Figure 7) in their
     terminal routine.

   On the fast path an executed superblock returns the next entry
   directly; no fetch, no decode, no pc maintenance.  Only on a chain
   miss does the engine fall back to the slow path (fetch + decode +
   compile + patch the chain).  Writes to x0 are redirected at compile
   time to the sink register slot (§III-D1b), and common
   pseudo-instruction forms (li / mv / nop / ret / beqz / bnez) get
   dedicated routines with their constant operands inlined (§III-D1c).

   Precision rules.  A trap raised by a body instruction retires that
   instruction too (as in [Exec_generic.step]) with a precise epc
   recovered from the per-entry offset tables -- bodies are not
   contiguous (unconditional jumps fold into the trace) and execute as
   coalesced multi-instruction slots, so both tables are indexed
   rather than computed as pc + 4i.  [run ~max_insns] retires
   *exactly* max_insns unless the machine exits -- checkpoints rely on
   this -- so when the remaining budget is smaller than a block, the
   block's body is stepped partially ([run_partial]) through the
   unfused per-instruction view.

   When the cache reaches capacity it is no longer flushed wholesale;
   a bounded victim set is evicted instead.  Chain pointers into an
   evicted entry are healed lazily: the victim keeps its identity but
   its routine is demoted to a stub that recompiles the block in place
   on next execution. *)

open Riscv
open Bigarray

type entry = {
  e_pc : int64;
  mutable e_len : int; (* instructions retired by a full pass *)
  mutable body : (unit -> unit) array;
      (* coalesced execution slots: up to four guest instructions per
         dispatch.  Closures that can raise (loads, stores) may only
         appear as a slot's *final* element -- everything before them
         is non-raising ALU/FP work -- which is what makes the trap
         bookkeeping below exact. *)
  mutable steps : (unit -> unit) array;
      (* the same instructions unfused, one per instruction: the
         partial-execution path ([run_partial]) must stop at an exact
         instruction count, which coalesced slots cannot. *)
  mutable offs : int array;
      (* byte offset from [e_pc] of each *instruction* (indexes
         [steps]), plus one final slot for the pc after the last one.
         Bodies are not contiguous: unconditional jumps are folded
         into the trace, so pc recovery indexes this table instead of
         assuming pc = e_pc + 4i. *)
  mutable slot_ret : int array;
      (* per-slot: guest instructions retired through the *end* of the
         slot.  A raise can only come from a slot's final instruction
         (earlier ones are non-raising by construction), so this is
         the exact retire count when slot i raises. *)
  mutable slot_offs : int array;
      (* per-slot byte offset from [e_pc] of the slot's *final*
         instruction -- the only one that can raise *)
  mutable exec : exec_fn;
  mutable seq : entry option;
  mutable tgt : entry option;
  mutable hot : int;
      (* dispatch count; when it reaches the promotion threshold the
         entry is recompiled as a trace megablock *)
}

and exec_fn = entry -> entry option

(* A side exit from a trace megablock: the pc execution resumes at
   when a trace-internal guard fails, plus a memoized link to that
   pc's entry (patched in lazily by the slow path, like seq/tgt). *)
type site = { sx_pc : int64; mutable sx_e : entry option }

(* A 2-way inline cache for an indirect jump (jalr/ret): the last two
   (target pc -> entry) pairs observed at this jump site.  Way 0 is
   the most recent; a way-1 hit swaps the ways.  Entries are only ever
   reachable from the same privilege's table as their holder, and
   evicted entries self-heal (demotion preserves identity), so no
   explicit invalidation is needed beyond the whole-cache flush. *)
type ic = {
  mutable ic_pc0 : int64;
  mutable ic_e0 : entry option;
  mutable ic_pc1 : int64;
  mutable ic_e1 : entry option;
}

type patch_slot = Patch_seq | Patch_tgt | Patch_site of site | Patch_none

(* Exit-bias feedback for one trace-internal branch: an EWMA of the
   gap (in retired instructions) between consecutive guard exits at
   this pc.  A guard whose exits arrive within a few trace lengths of
   each other was predicted in the wrong direction: the first offence
   flips the followed direction and retraces; a second offence means
   the branch is genuinely unstable, and the retrace stops before it
   ([b_pred] = 2, "nofollow"). *)
type bias_info = {
  mutable b_pred : int; (* 0 = follow not-taken, 1 = taken, 2 = nofollow *)
  mutable b_last : int; (* instret at the previous exit *)
  mutable b_gap : int; (* EWMA exit gap; max_int = no sample yet *)
  mutable b_cnt : int; (* exits since the last decision *)
  mutable b_flips : int; (* direction changes so far (0, 1, then stop) *)
}

type t = {
  m : Mach.t;
  caches : (int64, entry) Hashtbl.t array; (* one hash list per privilege *)
  mutable cache : (int64, entry) Hashtbl.t; (* the active privilege's list *)
  capacity : int;
  mutable patch : entry option;
  mutable patch_slot : patch_slot;
  mutable flushes : int;
  mutable slow_lookups : int;
  mutable compiled : int;
  mutable evictions : int;
  mutable recompiles : int;
  (* trace megablocks *)
  mega_enabled : bool;
  hot_threshold : int;
  mutable stop_at : int; (* current run's instret budget limit *)
  mutable megablocks : int;
  mutable mega_exits : int;
  mutable ic_hits : int;
  mutable ic_misses : int;
  mutable branch_folds : int;
  mutable tlb_dedups : int;
  mutable addr_fuses : int;
  bias : (int64, bias_info) Hashtbl.t; (* per-branch exit-bias feedback *)
  retraces : (int64, int) Hashtbl.t; (* re-traces per head pc (capped) *)
  (* BBV profiling hooks (§III-D3): record control-flow edges *)
  mutable prof_on : bool;
  mutable prof_edge : int64 -> int64 -> unit; (* src block pc -> dst pc *)
}

(* Raised by a body store routine when the guest hit the exit device
   mid-block; the block handler converts it into a clean stop with a
   precise pc and instret. *)
exception Mach_exited

let max_block = 64

(* Slot combinators for coalesced bodies: one dispatch, several guest
   instructions.  Only closures that cannot raise are combined. *)
let seq2 f g () = f (); g ()
let seq3 f g h () = f (); g (); h ()
let seq4 f g h k () = f (); g (); h (); k ()

(* Can this instruction's straight-line routine raise (Trap.Exception
   or Mach_exited)?  Memory accesses can; ALU / FP / moves cannot
   (divide by zero and FP exceptional cases are defined results in
   RISC-V, not traps). *)
let may_raise (insn : Insn.t) =
  match insn with
  | Insn.Load _ | Insn.Store _ | Insn.Fld _ | Insn.Fsd _ -> true
  | _ -> false

let[@inline] priv_ix = function Csr.U -> 0 | Csr.S -> 1 | Csr.M -> 2

(* Megablocks default on; MINJIE_MEGABLOCKS=0 disables them (the CI
   A/B smoke and the bench --no-megablocks flag use this). *)
let megablocks_default () =
  match Sys.getenv_opt "MINJIE_MEGABLOCKS" with
  | Some ("0" | "false" | "off") -> false
  | _ -> true

let create ?(capacity = 16384) ?megablocks ?(hot_threshold = 32) (m : Mach.t) :
    t =
  let caches = Array.init 3 (fun _ -> Hashtbl.create (2 * capacity)) in
  let megablocks =
    match megablocks with Some b -> b | None -> megablocks_default ()
  in
  {
    m;
    caches;
    cache = caches.(priv_ix m.Mach.csr.Csr.priv);
    capacity;
    patch = None;
    patch_slot = Patch_none;
    flushes = 0;
    slow_lookups = 0;
    compiled = 0;
    evictions = 0;
    recompiles = 0;
    mega_enabled = megablocks;
    hot_threshold = max 1 hot_threshold;
    stop_at = 0;
    megablocks = 0;
    mega_exits = 0;
    ic_hits = 0;
    ic_misses = 0;
    branch_folds = 0;
    tlb_dedups = 0;
    addr_fuses = 0;
    bias = Hashtbl.create 64;
    retraces = Hashtbl.create 16;
    prof_on = false;
    prof_edge = (fun _ _ -> ());
  }

(* Entries are keyed by virtual pc, and the same va maps to different
   code under different privileges (M bypasses translation; S and U
   see different leaf permissions).  Rather than flushing on every
   privilege switch -- ruinous for syscall-heavy guests, which would
   recompile their working set on every trap/mret round trip -- each
   privilege owns a cache and a switch just redirects [t.cache].
   Chains never cross tables: every transition that can change
   privilege (trap, interrupt, mret/sret) goes through the slow path
   with the pending patch cleared. *)
let[@inline] retarget (t : t) =
  t.cache <- t.caches.(priv_ix t.m.Mach.csr.Csr.priv);
  t.patch <- None;
  t.patch_slot <- Patch_none

(* Re-arm the engine for a fresh run of the *same* program image
   without dropping compiled code: point [cache] back at the table for
   the machine's (restored) privilege and clear any pending patch from
   the previous run's final dispatch.  Callers that restored guest
   memory are responsible for flushing instead when the previous run
   saw any flush event (fence.i / sfence / satp write) -- see
   {!Engine.warm_run}. *)
let rewind (t : t) = retarget t

let flush (t : t) =
  Array.iter Hashtbl.reset t.caches;
  t.cache <- t.caches.(priv_ix t.m.Mach.csr.Csr.priv);
  t.patch <- None;
  t.patch_slot <- Patch_none;
  Hashtbl.reset t.bias;
  Hashtbl.reset t.retraces;
  t.flushes <- t.flushes + 1

(* --- inline caches for indirect jumps --------------------------------- *)

let new_ic () =
  { ic_pc0 = Int64.min_int; ic_e0 = None; ic_pc1 = Int64.min_int; ic_e1 = None }

(* Resolve an indirect target through a jump site's inline cache,
   falling back to the active privilege's hash list only on a miss.
   A hash-list hit is installed in way 0 (way 0 shifts down); a way-1
   hit swaps the ways, so the two most recent targets stay cached. *)
let ic_lookup (t : t) (ic : ic) (target : int64) : entry option =
  if Int64.equal ic.ic_pc0 target then begin
    t.ic_hits <- t.ic_hits + 1;
    ic.ic_e0
  end
  else if Int64.equal ic.ic_pc1 target then begin
    t.ic_hits <- t.ic_hits + 1;
    let e1 = ic.ic_e1 in
    ic.ic_pc1 <- ic.ic_pc0;
    ic.ic_e1 <- ic.ic_e0;
    ic.ic_pc0 <- target;
    ic.ic_e0 <- e1;
    e1
  end
  else begin
    t.ic_misses <- t.ic_misses + 1;
    match Hashtbl.find_opt t.cache target with
    | Some _ as r ->
        ic.ic_pc1 <- ic.ic_pc0;
        ic.ic_e1 <- ic.ic_e0;
        ic.ic_pc0 <- target;
        ic.ic_e0 <- r;
        r
    | None ->
        t.m.Mach.pc <- target;
        t.patch <- None;
        t.patch_slot <- Patch_none;
        None
  end

(* --- trace-compiler helpers ------------------------------------------- *)

(* Integer destination register of an instruction, for the trace
   compiler's single-writer analysis (constant folds are only valid
   when every register the folded value depends on is written exactly
   once in the whole trace). *)
let dest_reg (insn : Insn.t) : int option =
  match insn with
  | Insn.Op_imm (_, rd, _, _)
  | Insn.Op_imm_w (_, rd, _, _)
  | Insn.Op (_, rd, _, _)
  | Insn.Op_w (_, rd, _, _)
  | Insn.Mul (_, rd, _, _)
  | Insn.Mul_w (_, rd, _, _)
  | Insn.Lui (rd, _)
  | Insn.Auipc (rd, _)
  | Insn.Load (_, rd, _, _)
  | Insn.Fp_cmp (_, rd, _, _)
  | Insn.Fcvt_l_d (rd, _)
  | Insn.Fcvt_lu_d (rd, _)
  | Insn.Fcvt_w_d (rd, _)
  | Insn.Fclass_d (rd, _)
  | Insn.Fmv_x_d (rd, _)
  | Insn.Jal (rd, _)
  | Insn.Jalr (rd, _, _) ->
      Some rd
  | _ -> None

let eval_branch_static (op : Insn.branch_op) (a : int64) (b : int64) : bool =
  match op with
  | Insn.BEQ -> Int64.equal a b
  | Insn.BNE -> not (Int64.equal a b)
  | Insn.BLT -> Int64.compare a b < 0
  | Insn.BGE -> Int64.compare a b >= 0
  | Insn.BLTU -> Int64.unsigned_compare a b < 0
  | Insn.BGEU -> Int64.unsigned_compare a b >= 0

(* --- straight-line routines ------------------------------------------

   [compile_straight] compiles an instruction with no control flow and
   no system effect into a [unit -> unit] body routine, or returns
   [None] if the instruction must terminate the superblock.  Body
   routines communicate exceptional outcomes by raising
   (Trap.Exception or Mach_exited); the enclosing block handler owns
   instret/pc/epc bookkeeping. *)

let compile_straight (m : Mach.t) (insn : Insn.t) : (unit -> unit) option =
  let regs = m.Mach.regs in
  let fregs = m.Mach.fregs in
  let mem = m.Mach.plat.Platform.mem in
  (* Inlined-at-compile-time memory geometry for the load/store fast
     paths.  Without flambda, a cross-module call taking or returning
     an int64 boxes it (3 minor words); at one box per executed memory
     access that allocation dominates memory-bound kernels.  The fast
     paths below therefore reduce the virtual address to a host [int]
     DRAM offset immediately -- every later check (bounds, alignment,
     last-page-cache probe) is int arithmetic -- and touch the page's
     backing store with [Bytes.get/set_*] primitives, which the
     compiler reads/writes unboxed.  A fast-path hit allocates
     nothing; misses (paging on, out of DRAM, misaligned, page-cache
     miss) call out exactly as before. *)
  let mbase = mem.Memory.base in
  let store = mem.Memory.store in
  let msize = Int64.of_int (Memory.size mem) in
  let pbits = Cow_store.page_bits in
  let pmask = (1 lsl pbits) - 1 in
  let rdx rd = if rd = 0 then Mach.sink else rd in
  match insn with
  (* --- pseudo-instruction specialisations --- *)
  | Op_imm (ADD, 0, 0, _) -> Some (fun () -> ()) (* nop *)
  | Op_imm (ADD, rd, 0, imm) ->
      (* li *)
      let rd = rdx rd in
      Some (fun () -> Array1.unsafe_set regs rd imm)
  | Op_imm (ADD, rd, rs1, 0L) ->
      (* mv *)
      let rd = rdx rd in
      Some (fun () -> Array1.unsafe_set regs rd (Array1.unsafe_get regs rs1))
  | Op_imm (op, rd, rs1, imm) ->
      let rd = rdx rd in
      Some
        (match op with
        | ADD ->
            fun () ->
              Array1.unsafe_set regs rd
                (Int64.add (Array1.unsafe_get regs rs1) imm)
        | SUB ->
            fun () ->
              Array1.unsafe_set regs rd
                (Int64.sub (Array1.unsafe_get regs rs1) imm)
        | SLL ->
            let sh = Int64.to_int imm land 0x3F in
            fun () ->
              Array1.unsafe_set regs rd
                (Int64.shift_left (Array1.unsafe_get regs rs1) sh)
        | SLT ->
            fun () ->
              Array1.unsafe_set regs rd
                (if Array1.unsafe_get regs rs1 < imm then 1L else 0L)
        | SLTU ->
            (* unsigned a < b without a function call:
               signed (a < b) xor (sign a) xor (sign b) *)
            fun () ->
              let a = Array1.unsafe_get regs rs1 in
              Array1.unsafe_set regs rd
                (if a < imm <> (a < 0L <> (imm < 0L)) then 1L else 0L)
        | XOR ->
            fun () ->
              Array1.unsafe_set regs rd
                (Int64.logxor (Array1.unsafe_get regs rs1) imm)
        | SRL ->
            let sh = Int64.to_int imm land 0x3F in
            fun () ->
              Array1.unsafe_set regs rd
                (Int64.shift_right_logical (Array1.unsafe_get regs rs1) sh)
        | SRA ->
            let sh = Int64.to_int imm land 0x3F in
            fun () ->
              Array1.unsafe_set regs rd
                (Int64.shift_right (Array1.unsafe_get regs rs1) sh)
        | OR ->
            fun () ->
              Array1.unsafe_set regs rd
                (Int64.logor (Array1.unsafe_get regs rs1) imm)
        | AND ->
            fun () ->
              Array1.unsafe_set regs rd
                (Int64.logand (Array1.unsafe_get regs rs1) imm))
  | Op_imm_w (op, rd, rs1, imm) ->
      let rd = rdx rd in
      Some
        (fun () ->
          Array1.unsafe_set regs rd
            (Iss.Alu.eval_alu_w op (Array1.unsafe_get regs rs1) imm))
  | Op (op, rd, rs1, rs2) ->
      let rd = rdx rd in
      Some
        (match op with
        | ADD ->
            fun () ->
              Array1.unsafe_set regs rd
                (Int64.add
                   (Array1.unsafe_get regs rs1)
                   (Array1.unsafe_get regs rs2))
        | SUB ->
            fun () ->
              Array1.unsafe_set regs rd
                (Int64.sub
                   (Array1.unsafe_get regs rs1)
                   (Array1.unsafe_get regs rs2))
        | XOR ->
            fun () ->
              Array1.unsafe_set regs rd
                (Int64.logxor
                   (Array1.unsafe_get regs rs1)
                   (Array1.unsafe_get regs rs2))
        | OR ->
            fun () ->
              Array1.unsafe_set regs rd
                (Int64.logor
                   (Array1.unsafe_get regs rs1)
                   (Array1.unsafe_get regs rs2))
        | AND ->
            fun () ->
              Array1.unsafe_set regs rd
                (Int64.logand
                   (Array1.unsafe_get regs rs1)
                   (Array1.unsafe_get regs rs2))
        | SLL ->
            fun () ->
              Array1.unsafe_set regs rd
                (Int64.shift_left
                   (Array1.unsafe_get regs rs1)
                   (Int64.to_int (Array1.unsafe_get regs rs2) land 0x3F))
        | SRL ->
            fun () ->
              Array1.unsafe_set regs rd
                (Int64.shift_right_logical
                   (Array1.unsafe_get regs rs1)
                   (Int64.to_int (Array1.unsafe_get regs rs2) land 0x3F))
        | SRA ->
            fun () ->
              Array1.unsafe_set regs rd
                (Int64.shift_right
                   (Array1.unsafe_get regs rs1)
                   (Int64.to_int (Array1.unsafe_get regs rs2) land 0x3F))
        | SLT ->
            fun () ->
              Array1.unsafe_set regs rd
                (if Array1.unsafe_get regs rs1 < Array1.unsafe_get regs rs2
                 then 1L
                 else 0L)
        | SLTU ->
            fun () ->
              let a = Array1.unsafe_get regs rs1 in
              let b = Array1.unsafe_get regs rs2 in
              Array1.unsafe_set regs rd
                (if a < b <> (a < 0L <> (b < 0L)) then 1L else 0L))
  | Op_w (op, rd, rs1, rs2) ->
      let rd = rdx rd in
      Some
        (fun () ->
          Array1.unsafe_set regs rd
            (Iss.Alu.eval_alu_w op
               (Array1.unsafe_get regs rs1)
               (Array1.unsafe_get regs rs2)))
  | Mul (MUL, rd, rs1, rs2) ->
      let rd = rdx rd in
      Some
        (fun () ->
          Array1.unsafe_set regs rd
            (Int64.mul
               (Array1.unsafe_get regs rs1)
               (Array1.unsafe_get regs rs2)))
  | Mul (op, rd, rs1, rs2) ->
      let rd = rdx rd in
      Some
        (fun () ->
          Array1.unsafe_set regs rd
            (Iss.Alu.eval_mul op
               (Array1.unsafe_get regs rs1)
               (Array1.unsafe_get regs rs2)))
  | Mul_w (op, rd, rs1, rs2) ->
      let rd = rdx rd in
      Some
        (fun () ->
          Array1.unsafe_set regs rd
            (Iss.Alu.eval_mul_w op
               (Array1.unsafe_get regs rs1)
               (Array1.unsafe_get regs rs2)))
  | Lui (rd, imm) ->
      let rd = rdx rd in
      Some (fun () -> Array1.unsafe_set regs rd imm)
  | Auipc (rd, imm) ->
      (* note: the block compiler passes the *instruction* pc via imm
         pre-addition: Auipc is rewritten before reaching here *)
      let rd = rdx rd in
      Some (fun () -> Array1.unsafe_set regs rd imm)
  | Load (op, rd, rs1, imm) ->
      let rd = rdx rd in
      let ext = Iss.Alu.extend_load op in
      Some
        (match op with
        | LD ->
            fun () ->
              let a = Array1.unsafe_get regs rs1 in
              let d = Int64.sub (Int64.add a imm) mbase in
              if
                (not m.Mach.paging)
                && 0L <= d && d < msize
                && Int64.to_int d land 7 = 0
              then begin
                let off = Int64.to_int d in
                let idx = off lsr pbits in
                let data =
                  if idx = store.Cow_store.cache_r_idx then
                    store.Cow_store.cache_r_data
                  else Cow_store.read_page store idx
                in
                Array1.unsafe_set regs rd
                  (Bytes.get_int64_le data (off land pmask))
              end
              else
                Array1.unsafe_set regs rd
                  (Exec_generic.load m (Int64.add a imm) 8)
        | LW ->
            fun () ->
              let a = Array1.unsafe_get regs rs1 in
              let d = Int64.sub (Int64.add a imm) mbase in
              if
                (not m.Mach.paging)
                && 0L <= d && d < msize
                && Int64.to_int d land 3 = 0
              then begin
                let off = Int64.to_int d in
                let idx = off lsr pbits in
                let data =
                  if idx = store.Cow_store.cache_r_idx then
                    store.Cow_store.cache_r_data
                  else Cow_store.read_page store idx
                in
                Array1.unsafe_set regs rd
                  (Int64.of_int32 (Bytes.get_int32_le data (off land pmask)))
              end
              else
                Array1.unsafe_set regs rd
                  (ext (Exec_generic.load m (Int64.add a imm) 4))
        | LWU ->
            fun () ->
              let a = Array1.unsafe_get regs rs1 in
              let d = Int64.sub (Int64.add a imm) mbase in
              if
                (not m.Mach.paging)
                && 0L <= d && d < msize
                && Int64.to_int d land 3 = 0
              then begin
                let off = Int64.to_int d in
                let idx = off lsr pbits in
                let data =
                  if idx = store.Cow_store.cache_r_idx then
                    store.Cow_store.cache_r_data
                  else Cow_store.read_page store idx
                in
                Array1.unsafe_set regs rd
                  (Int64.logand
                     (Int64.of_int32 (Bytes.get_int32_le data (off land pmask)))
                     0xFFFF_FFFFL)
              end
              else
                Array1.unsafe_set regs rd
                  (ext (Exec_generic.load m (Int64.add a imm) 4))
        | LH ->
            fun () ->
              let a = Array1.unsafe_get regs rs1 in
              let d = Int64.sub (Int64.add a imm) mbase in
              if
                (not m.Mach.paging)
                && 0L <= d && d < msize
                && Int64.to_int d land 1 = 0
              then begin
                let off = Int64.to_int d in
                let idx = off lsr pbits in
                let data =
                  if idx = store.Cow_store.cache_r_idx then
                    store.Cow_store.cache_r_data
                  else Cow_store.read_page store idx
                in
                Array1.unsafe_set regs rd
                  (Int64.of_int (Bytes.get_int16_le data (off land pmask)))
              end
              else
                Array1.unsafe_set regs rd
                  (ext (Exec_generic.load m (Int64.add a imm) 2))
        | LHU ->
            fun () ->
              let a = Array1.unsafe_get regs rs1 in
              let d = Int64.sub (Int64.add a imm) mbase in
              if
                (not m.Mach.paging)
                && 0L <= d && d < msize
                && Int64.to_int d land 1 = 0
              then begin
                let off = Int64.to_int d in
                let idx = off lsr pbits in
                let data =
                  if idx = store.Cow_store.cache_r_idx then
                    store.Cow_store.cache_r_data
                  else Cow_store.read_page store idx
                in
                Array1.unsafe_set regs rd
                  (Int64.of_int (Bytes.get_uint16_le data (off land pmask)))
              end
              else
                Array1.unsafe_set regs rd
                  (ext (Exec_generic.load m (Int64.add a imm) 2))
        | LB ->
            fun () ->
              let a = Array1.unsafe_get regs rs1 in
              let d = Int64.sub (Int64.add a imm) mbase in
              if (not m.Mach.paging) && 0L <= d && d < msize then begin
                let off = Int64.to_int d in
                let idx = off lsr pbits in
                let data =
                  if idx = store.Cow_store.cache_r_idx then
                    store.Cow_store.cache_r_data
                  else Cow_store.read_page store idx
                in
                Array1.unsafe_set regs rd
                  (Int64.of_int (Bytes.get_int8 data (off land pmask)))
              end
              else
                Array1.unsafe_set regs rd
                  (ext (Exec_generic.load m (Int64.add a imm) 1))
        | LBU ->
            fun () ->
              let a = Array1.unsafe_get regs rs1 in
              let d = Int64.sub (Int64.add a imm) mbase in
              if (not m.Mach.paging) && 0L <= d && d < msize then begin
                let off = Int64.to_int d in
                let idx = off lsr pbits in
                let data =
                  if idx = store.Cow_store.cache_r_idx then
                    store.Cow_store.cache_r_data
                  else Cow_store.read_page store idx
                in
                Array1.unsafe_set regs rd
                  (Int64.of_int (Bytes.get_uint8 data (off land pmask)))
              end
              else
                Array1.unsafe_set regs rd
                  (ext (Exec_generic.load m (Int64.add a imm) 1)))
  | Store (op, rs2, rs1, imm) ->
      Some
        (match op with
        | SD ->
            fun () ->
              let a = Array1.unsafe_get regs rs1 in
              let d = Int64.sub (Int64.add a imm) mbase in
              if
                (not m.Mach.paging)
                && 0L <= d && d < msize
                && Int64.to_int d land 7 = 0
              then begin
                let off = Int64.to_int d in
                let idx = off lsr pbits in
                let data =
                  if idx = store.Cow_store.cache_w_idx then
                    store.Cow_store.cache_w_data
                  else Cow_store.write_page store idx
                in
                Bytes.set_int64_le data (off land pmask)
                  (Array1.unsafe_get regs rs2)
              end
              else begin
                Exec_generic.store m (Int64.add a imm) 8
                  (Array1.unsafe_get regs rs2);
                if not m.Mach.running then raise Mach_exited
              end
        | SW ->
            fun () ->
              let a = Array1.unsafe_get regs rs1 in
              let d = Int64.sub (Int64.add a imm) mbase in
              if
                (not m.Mach.paging)
                && 0L <= d && d < msize
                && Int64.to_int d land 3 = 0
              then begin
                let off = Int64.to_int d in
                let idx = off lsr pbits in
                let data =
                  if idx = store.Cow_store.cache_w_idx then
                    store.Cow_store.cache_w_data
                  else Cow_store.write_page store idx
                in
                Bytes.set_int32_le data (off land pmask)
                  (Int64.to_int32 (Array1.unsafe_get regs rs2))
              end
              else begin
                Exec_generic.store m (Int64.add a imm) 4
                  (Array1.unsafe_get regs rs2);
                if not m.Mach.running then raise Mach_exited
              end
        | SH ->
            fun () ->
              let a = Array1.unsafe_get regs rs1 in
              let d = Int64.sub (Int64.add a imm) mbase in
              if
                (not m.Mach.paging)
                && 0L <= d && d < msize
                && Int64.to_int d land 1 = 0
              then begin
                let off = Int64.to_int d in
                let idx = off lsr pbits in
                let data =
                  if idx = store.Cow_store.cache_w_idx then
                    store.Cow_store.cache_w_data
                  else Cow_store.write_page store idx
                in
                Bytes.set_uint16_le data (off land pmask)
                  (Int64.to_int (Array1.unsafe_get regs rs2) land 0xFFFF)
              end
              else begin
                Exec_generic.store m (Int64.add a imm) 2
                  (Array1.unsafe_get regs rs2);
                if not m.Mach.running then raise Mach_exited
              end
        | SB ->
            fun () ->
              let a = Array1.unsafe_get regs rs1 in
              let d = Int64.sub (Int64.add a imm) mbase in
              if (not m.Mach.paging) && 0L <= d && d < msize then begin
                let off = Int64.to_int d in
                let idx = off lsr pbits in
                let data =
                  if idx = store.Cow_store.cache_w_idx then
                    store.Cow_store.cache_w_data
                  else Cow_store.write_page store idx
                in
                Bytes.set_uint8 data (off land pmask)
                  (Int64.to_int (Array1.unsafe_get regs rs2) land 0xFF)
              end
              else begin
                Exec_generic.store m (Int64.add a imm) 1
                  (Array1.unsafe_get regs rs2);
                if not m.Mach.running then raise Mach_exited
              end)
  | Fld (frd, rs1, imm) ->
      Some
        (fun () ->
          let a = Array1.unsafe_get regs rs1 in
          let d = Int64.sub (Int64.add a imm) mbase in
          if
            (not m.Mach.paging)
            && 0L <= d && d < msize
            && Int64.to_int d land 7 = 0
          then begin
            let off = Int64.to_int d in
            let idx = off lsr pbits in
            let data =
              if idx = store.Cow_store.cache_r_idx then
                store.Cow_store.cache_r_data
              else Cow_store.read_page store idx
            in
            Array1.unsafe_set fregs frd (Bytes.get_int64_le data (off land pmask))
          end
          else
            Array1.unsafe_set fregs frd (Exec_generic.load m (Int64.add a imm) 8))
  | Fsd (frs2, rs1, imm) ->
      Some
        (fun () ->
          let a = Array1.unsafe_get regs rs1 in
          let d = Int64.sub (Int64.add a imm) mbase in
          if
            (not m.Mach.paging)
            && 0L <= d && d < msize
            && Int64.to_int d land 7 = 0
          then begin
            let off = Int64.to_int d in
            let idx = off lsr pbits in
            let data =
              if idx = store.Cow_store.cache_w_idx then
                store.Cow_store.cache_w_data
              else Cow_store.write_page store idx
            in
            Bytes.set_int64_le data (off land pmask)
              (Array1.unsafe_get fregs frs2)
          end
          else begin
            Exec_generic.store m (Int64.add a imm) 8
              (Array1.unsafe_get fregs frs2);
            if not m.Mach.running then raise Mach_exited
          end)
  | Fp_rrr (op, frd, f1, f2) ->
      (* Same semantics as [Iss.Fpu.add]/... but expanded in the
         closure: [Int64.float_of_bits]/[bits_of_float]/[Float.fma]
         are unboxed externals and [r <> r] is the NaN test, so a
         host-FPU op costs no allocation.  Calling [Fpu] would box
         both int64 operands and the result. *)
      Some
        (match op with
        | FADD ->
            fun () ->
              let r =
                Int64.float_of_bits (Array1.unsafe_get fregs f1)
                +. Int64.float_of_bits (Array1.unsafe_get fregs f2)
              in
              Array1.unsafe_set fregs frd
                (if r <> r then 0x7FF8_0000_0000_0000L
                 else Int64.bits_of_float r)
        | FSUB ->
            fun () ->
              let r =
                Int64.float_of_bits (Array1.unsafe_get fregs f1)
                -. Int64.float_of_bits (Array1.unsafe_get fregs f2)
              in
              Array1.unsafe_set fregs frd
                (if r <> r then 0x7FF8_0000_0000_0000L
                 else Int64.bits_of_float r)
        | FMUL ->
            fun () ->
              let r =
                Int64.float_of_bits (Array1.unsafe_get fregs f1)
                *. Int64.float_of_bits (Array1.unsafe_get fregs f2)
              in
              Array1.unsafe_set fregs frd
                (if r <> r then 0x7FF8_0000_0000_0000L
                 else Int64.bits_of_float r)
        | FDIV ->
            fun () ->
              let r =
                Int64.float_of_bits (Array1.unsafe_get fregs f1)
                /. Int64.float_of_bits (Array1.unsafe_get fregs f2)
              in
              Array1.unsafe_set fregs frd
                (if r <> r then 0x7FF8_0000_0000_0000L
                 else Int64.bits_of_float r))
  | Fp_fused (op, frd, f1, f2, f3) ->
      (* fnmsub/fnmadd negate the *product*: realised as fma with the
         multiplicand's sign flipped, as in [Iss.Fpu.fused]. *)
      let nega = match op with
        | FNMSUB | FNMADD -> true
        | FMADD | FMSUB -> false
      in
      let negc = match op with
        | FMSUB | FNMADD -> true
        | FMADD | FNMSUB -> false
      in
      Some
        (fun () ->
          let fa = Int64.float_of_bits (Array1.unsafe_get fregs f1) in
          let fb = Int64.float_of_bits (Array1.unsafe_get fregs f2) in
          let fc = Int64.float_of_bits (Array1.unsafe_get fregs f3) in
          let r =
            Float.fma (if nega then -.fa else fa) fb
              (if negc then -.fc else fc)
          in
          Array1.unsafe_set fregs frd
            (if r <> r then 0x7FF8_0000_0000_0000L else Int64.bits_of_float r))
  | Fp_sign (op, frd, f1, f2) ->
      Some
        (match op with
        | FSGNJ ->
            fun () ->
              Array1.unsafe_set fregs frd
                (Int64.logor
                   (Int64.logand (Array1.unsafe_get fregs f1) Int64.max_int)
                   (Int64.logand (Array1.unsafe_get fregs f2) Int64.min_int))
        | FSGNJN ->
            fun () ->
              Array1.unsafe_set fregs frd
                (Int64.logor
                   (Int64.logand (Array1.unsafe_get fregs f1) Int64.max_int)
                   (Int64.logand
                      (Int64.lognot (Array1.unsafe_get fregs f2))
                      Int64.min_int))
        | FSGNJX ->
            fun () ->
              Array1.unsafe_set fregs frd
                (Int64.logxor (Array1.unsafe_get fregs f1)
                   (Int64.logand (Array1.unsafe_get fregs f2) Int64.min_int)))
  | Fp_minmax (op, frd, f1, f2) ->
      Some
        (fun () ->
          Array1.unsafe_set fregs frd
            (Iss.Fpu.minmax op
               (Array1.unsafe_get fregs f1)
               (Array1.unsafe_get fregs f2)))
  | Fp_cmp (op, rd, f1, f2) ->
      let rd = rdx rd in
      (* quiet NaN handling: comparisons with a NaN operand are false
         (host float compares already are), so no explicit NaN test *)
      Some
        (match op with
        | FEQ ->
            fun () ->
              Array1.unsafe_set regs rd
                (if
                   Int64.float_of_bits (Array1.unsafe_get fregs f1)
                   = Int64.float_of_bits (Array1.unsafe_get fregs f2)
                 then 1L
                 else 0L)
        | FLT ->
            fun () ->
              Array1.unsafe_set regs rd
                (if
                   Int64.float_of_bits (Array1.unsafe_get fregs f1)
                   < Int64.float_of_bits (Array1.unsafe_get fregs f2)
                 then 1L
                 else 0L)
        | FLE ->
            fun () ->
              Array1.unsafe_set regs rd
                (if
                   Int64.float_of_bits (Array1.unsafe_get fregs f1)
                   <= Int64.float_of_bits (Array1.unsafe_get fregs f2)
                 then 1L
                 else 0L))
  | Fsqrt_d (frd, f1) ->
      Some
        (fun () ->
          let r = Float.sqrt (Int64.float_of_bits (Array1.unsafe_get fregs f1)) in
          Array1.unsafe_set fregs frd
            (if r <> r then 0x7FF8_0000_0000_0000L else Int64.bits_of_float r))
  | Fcvt_d_l (frd, rs1) ->
      Some
        (fun () ->
          Array1.unsafe_set fregs frd
            (Int64.bits_of_float (Int64.to_float (Array1.unsafe_get regs rs1))))
  | Fcvt_l_d (rd, f1) ->
      let rd = rdx rd in
      (* RTZ with saturation, as [Iss.Fpu.cvt_l_d] *)
      Some
        (fun () ->
          let f = Int64.float_of_bits (Array1.unsafe_get fregs f1) in
          Array1.unsafe_set regs rd
            (if f <> f then Int64.max_int
             else
               let tr = Float.trunc f in
               if tr >= 9.2233720368547758e18 then Int64.max_int
               else if tr <= -9.2233720368547758e18 then Int64.min_int
               else Int64.of_float tr))
  | Fmv_x_d (rd, f1) ->
      let rd = rdx rd in
      Some
        (fun () -> Array1.unsafe_set regs rd (Array1.unsafe_get fregs f1))
  | Fmv_d_x (frd, rs1) ->
      Some
        (fun () -> Array1.unsafe_set fregs frd (Array1.unsafe_get regs rs1))
  | Branch _ | Jal _ | Jalr _ | Lr _ | Sc _ | Amo _ | Csr _ | Ecall | Ebreak
  | Mret | Sret | Wfi | Fence | Fence_i | Sfence_vma _ | Fcvt_d_lu _
  | Fcvt_d_w _ | Fcvt_lu_d _ | Fcvt_w_d _ | Fclass_d _ | Illegal _ ->
      None

(* --- terminal routines ------------------------------------------------

   The terminal executes the block's final (control-flow or system)
   instruction, accounts for it in instret, and returns the successor
   entry (or None on a chain miss / system event). *)

let build_terminal (t : t) (e : entry) (pc : int64) (insn : Insn.t) : exec_fn =
  let m = t.m in
  let regs = m.Mach.regs in
  let next = Int64.add pc 4L in
  let rdx rd = if rd = 0 then Mach.sink else rd in
  let seq_or_miss () =
    match e.seq with
    | Some _ as n -> n
    | None ->
        m.Mach.pc <- next;
        t.patch <- Some e;
        t.patch_slot <- Patch_seq;
        None
  in
  let tgt_or_miss target =
    match e.tgt with
    | Some _ as n -> n
    | None ->
        m.Mach.pc <- target;
        t.patch <- Some e;
        t.patch_slot <- Patch_tgt;
        None
  in
  let indirect target =
    if t.prof_on then t.prof_edge pc target;
    match Hashtbl.find_opt t.cache target with
    | Some _ as n -> n
    | None ->
        m.Mach.pc <- target;
        t.patch <- None;
        t.patch_slot <- Patch_none;
        None
  in
  (* the slow generic routine for rare/system instructions *)
  let generic insn _ =
    let before_priv = m.Mach.csr.Csr.priv in
    (try Exec_generic.exec Exec_generic.host_fp m pc insn
     with Trap.Exception (exc, tval) -> Mach.take_trap m exc tval ~epc:pc);
    m.Mach.instret <- m.Mach.instret + 1;
    (* system events: a privilege change redirects to that privilege's
       own cache (no flush); anything that can remap the pcs the
       caches are keyed on (sfence.vma, satp writes) or rewrite code
       (fence.i) invalidates everything *)
    (if m.Mach.csr.Csr.priv <> before_priv then retarget t
     else
       match insn with
       | Insn.Sfence_vma _ | Insn.Fence_i -> flush t
       | Insn.Csr (_, _, _, a) when a = Csr.satp -> flush t
       | _ -> ());
    t.patch <- None;
    t.patch_slot <- Patch_none;
    None
  in
  match insn with
  | Branch (op, rs1, rs2, off) ->
      (* The condition is inlined per opcode (no [eval_branch] call:
         an int64 crossing a function boundary would be boxed); the
         unsigned compares use signed (a < b) xor sign(a) xor sign(b).
         [finish] takes an immediate bool, so calling it is free. *)
      let target = Int64.add pc off in
      let finish taken =
        if t.prof_on then t.prof_edge pc (if taken then target else next);
        m.Mach.instret <- m.Mach.instret + 1;
        if taken then tgt_or_miss target else seq_or_miss ()
      in
      if rs2 = 0 then
        (* beqz / bnez / ... specialisation: single operand read *)
        match op with
        | BEQ -> fun _ -> finish (Array1.unsafe_get regs rs1 = 0L)
        | BNE -> fun _ -> finish (Array1.unsafe_get regs rs1 <> 0L)
        | BLT -> fun _ -> finish (Array1.unsafe_get regs rs1 < 0L)
        | BGE -> fun _ -> finish (Array1.unsafe_get regs rs1 >= 0L)
        | BLTU -> fun _ -> finish false
        | BGEU -> fun _ -> finish true
      else
        (match op with
        | BEQ ->
            fun _ ->
              finish
                (Array1.unsafe_get regs rs1 = Array1.unsafe_get regs rs2)
        | BNE ->
            fun _ ->
              finish
                (Array1.unsafe_get regs rs1 <> Array1.unsafe_get regs rs2)
        | BLT ->
            fun _ ->
              finish
                (Array1.unsafe_get regs rs1 < Array1.unsafe_get regs rs2)
        | BGE ->
            fun _ ->
              finish
                (Array1.unsafe_get regs rs1 >= Array1.unsafe_get regs rs2)
        | BLTU ->
            fun _ ->
              let a = Array1.unsafe_get regs rs1 in
              let b = Array1.unsafe_get regs rs2 in
              finish (a < b <> (a < 0L <> (b < 0L)))
        | BGEU ->
            fun _ ->
              let a = Array1.unsafe_get regs rs1 in
              let b = Array1.unsafe_get regs rs2 in
              finish (not (a < b <> (a < 0L <> (b < 0L)))))
  | Jal (rd, off) ->
      let rd = rdx rd in
      let target = Int64.add pc off in
      fun _ ->
        Array1.unsafe_set regs rd next;
        if t.prof_on then t.prof_edge pc target;
        m.Mach.instret <- m.Mach.instret + 1;
        tgt_or_miss target
  | Jalr (0, rs1, 0L) ->
      (* ret-style: no link write *)
      if t.mega_enabled then begin
        let ic = new_ic () in
        fun _ ->
          let target =
            Int64.logand (Array1.unsafe_get regs rs1) (Int64.lognot 1L)
          in
          if t.prof_on then t.prof_edge pc target;
          m.Mach.instret <- m.Mach.instret + 1;
          ic_lookup t ic target
      end
      else
        fun _ ->
          let target =
            Int64.logand (Array1.unsafe_get regs rs1) (Int64.lognot 1L)
          in
          m.Mach.instret <- m.Mach.instret + 1;
          indirect target
  | Jalr (rd, rs1, imm) ->
      let rd = rdx rd in
      if t.mega_enabled then begin
        let ic = new_ic () in
        fun _ ->
          let target =
            Int64.logand
              (Int64.add (Array1.unsafe_get regs rs1) imm)
              (Int64.lognot 1L)
          in
          Array1.unsafe_set regs rd next;
          if t.prof_on then t.prof_edge pc target;
          m.Mach.instret <- m.Mach.instret + 1;
          ic_lookup t ic target
      end
      else
        fun _ ->
          let target =
            Int64.logand
              (Int64.add (Array1.unsafe_get regs rs1) imm)
              (Int64.lognot 1L)
          in
          Array1.unsafe_set regs rd next;
          m.Mach.instret <- m.Mach.instret + 1;
          indirect target
  | _ -> generic insn

(* Terminal for a block cut without a control-flow instruction (length
   limit, page boundary, lookahead fetch fault): fall through to the
   next pc, retiring nothing. *)
let build_fallthrough (t : t) (e : entry) (next_pc : int64) : exec_fn =
  let m = t.m in
  fun _ ->
    match e.seq with
    | Some _ as n -> n
    | None ->
        m.Mach.pc <- next_pc;
        t.patch <- Some e;
        t.patch_slot <- Patch_seq;
        None

(* --- block assembly --------------------------------------------------- *)

(* Wrap body + terminal into the block's execution routine.  Blocks
   of up to eight slots get a straight-line routine with the slot
   closures bound to variables -- no counter, no array indexing, no
   loop branch; longer blocks fall back to a counted loop.  Both keep
   the shared [cur] ref pointing at the executing slot so that a raise
   (only possible from a slot's final instruction) recovers the exact
   retire count and epc from [slot_ret]/[slot_offs]. *)
let build_exec (t : t) (e : entry) ~(guest_n : int) (term : exec_fn) : exec_fn =
  let m = t.m in
  let body = e.body in
  let slot_ret = e.slot_ret in
  let slot_offs = e.slot_offs in
  let n = Array.length body in
  if n = 0 then term
  else begin
    let cur = ref 0 in
    let finish () =
      m.Mach.instret <- m.Mach.instret + guest_n;
      term e
    in
    let fail_trap exc tval =
      m.Mach.instret <- m.Mach.instret + slot_ret.(!cur);
      Mach.take_trap m exc tval
        ~epc:(Int64.add e.e_pc (Int64.of_int slot_offs.(!cur)));
      retarget t;
      None
    in
    let fail_exit () =
      m.Mach.instret <- m.Mach.instret + slot_ret.(!cur);
      m.Mach.pc <- Int64.add e.e_pc (Int64.of_int (slot_offs.(!cur) + 4));
      None
    in
    match body with
    | [| s0 |] ->
        fun _ -> (
          match
            cur := 0;
            s0 ()
          with
          | () -> finish ()
          | exception Trap.Exception (exc, tval) -> fail_trap exc tval
          | exception Mach_exited -> fail_exit ())
    | [| s0; s1 |] ->
        fun _ -> (
          match
            cur := 0;
            s0 ();
            cur := 1;
            s1 ()
          with
          | () -> finish ()
          | exception Trap.Exception (exc, tval) -> fail_trap exc tval
          | exception Mach_exited -> fail_exit ())
    | [| s0; s1; s2 |] ->
        fun _ -> (
          match
            cur := 0;
            s0 ();
            cur := 1;
            s1 ();
            cur := 2;
            s2 ()
          with
          | () -> finish ()
          | exception Trap.Exception (exc, tval) -> fail_trap exc tval
          | exception Mach_exited -> fail_exit ())
    | [| s0; s1; s2; s3 |] ->
        fun _ -> (
          match
            cur := 0;
            s0 ();
            cur := 1;
            s1 ();
            cur := 2;
            s2 ();
            cur := 3;
            s3 ()
          with
          | () -> finish ()
          | exception Trap.Exception (exc, tval) -> fail_trap exc tval
          | exception Mach_exited -> fail_exit ())
    | [| s0; s1; s2; s3; s4 |] ->
        fun _ -> (
          match
            cur := 0;
            s0 ();
            cur := 1;
            s1 ();
            cur := 2;
            s2 ();
            cur := 3;
            s3 ();
            cur := 4;
            s4 ()
          with
          | () -> finish ()
          | exception Trap.Exception (exc, tval) -> fail_trap exc tval
          | exception Mach_exited -> fail_exit ())
    | [| s0; s1; s2; s3; s4; s5 |] ->
        fun _ -> (
          match
            cur := 0;
            s0 ();
            cur := 1;
            s1 ();
            cur := 2;
            s2 ();
            cur := 3;
            s3 ();
            cur := 4;
            s4 ();
            cur := 5;
            s5 ()
          with
          | () -> finish ()
          | exception Trap.Exception (exc, tval) -> fail_trap exc tval
          | exception Mach_exited -> fail_exit ())
    | [| s0; s1; s2; s3; s4; s5; s6 |] ->
        fun _ -> (
          match
            cur := 0;
            s0 ();
            cur := 1;
            s1 ();
            cur := 2;
            s2 ();
            cur := 3;
            s3 ();
            cur := 4;
            s4 ();
            cur := 5;
            s5 ();
            cur := 6;
            s6 ()
          with
          | () -> finish ()
          | exception Trap.Exception (exc, tval) -> fail_trap exc tval
          | exception Mach_exited -> fail_exit ())
    | [| s0; s1; s2; s3; s4; s5; s6; s7 |] ->
        fun _ -> (
          match
            cur := 0;
            s0 ();
            cur := 1;
            s1 ();
            cur := 2;
            s2 ();
            cur := 3;
            s3 ();
            cur := 4;
            s4 ();
            cur := 5;
            s5 ();
            cur := 6;
            s6 ();
            cur := 7;
            s7 ()
          with
          | () -> finish ()
          | exception Trap.Exception (exc, tval) -> fail_trap exc tval
          | exception Mach_exited -> fail_exit ())
    | _ ->
        fun _ -> (
          match
            cur := 0;
            while !cur < n do
              (Array.unsafe_get body !cur) ();
              incr cur
            done
          with
          | () -> finish ()
          | exception Trap.Exception (exc, tval) -> fail_trap exc tval
          | exception Mach_exited -> fail_exit ())
  end

(* (Re)compile the superblock starting at [e.e_pc] into [e], given its
   first decoded instruction.  Lookahead decoding stops at the block
   length limit, at a page boundary when translation is on (the next
   page may map differently by the time it executes), or at a fetch
   fault (the split block falls through and the fault is taken, if
   still reachable, on the next slow-path lookup). *)
let build (t : t) (e : entry) (first : Insn.t) =
  t.compiled <- t.compiled + 1;
  e.hot <- 0;
  let m = t.m in
  let regs = m.Mach.regs in
  let paged = m.Mach.paging in
  let epage = Int64.shift_right_logical e.e_pc 12 in
  (* (closure, may_raise, byte offset) per instruction, reversed *)
  let acc = ref [] in
  let n = ref 0 in
  let push ?(traps = false) op pc =
    acc := (op, traps, Int64.to_int (Int64.sub pc e.e_pc)) :: !acc;
    incr n
  in
  let rewrite pc = function
    (* inline the pc into pc-relative straight-line instructions *)
    | Insn.Auipc (rd, imm) -> Insn.Auipc (rd, Int64.add pc imm)
    | insn -> insn
  in
  let rec cont next =
    if !n >= max_block then split next
    else if paged && Int64.shift_right_logical next 12 <> epage then split next
    else begin
      match Exec_generic.fetch_decode ~at:next m with
      | insn -> grow next insn
      | exception Trap.Exception _ -> split next
    end
  and grow pc insn =
    match insn with
    | Insn.Jal (rd, off)
      when (not t.prof_on)
           && ((not paged)
              || Int64.shift_right_logical (Int64.add pc off) 12 = epage) ->
        (* Unconditional jumps are folded into the trace (the paper's
           trace locality): the jump retires as a body instruction --
           a link write, or nothing at all for plain [j] -- and
           decoding continues at its target, so short then/else arms
           and loop latches do not cut the superblock.  Disabled while
           BBV profiling is attached (it must observe every
           control-flow edge) and across page boundaries when paging
           is on.  Self-loops terminate via the block length limit. *)
        (if rd = 0 then push (fun () -> ()) pc
         else
           let link = Int64.add pc 4L in
           push (fun () -> Array1.unsafe_set regs rd link) pc);
        cont (Int64.add pc off)
    | _ -> (
        match compile_straight t.m (rewrite pc insn) with
        | None ->
            (* control-flow or system instruction: real terminal *)
            e.e_len <- !n + 1;
            `Term (pc, insn)
        | Some op ->
            push ~traps:(may_raise insn) op pc;
            cont (Int64.add pc 4L))
  and split next =
    e.e_len <- !n;
    `Split next
  in
  let outcome = grow e.e_pc first in
  let insns = List.rev !acc in
  let final = match outcome with `Term (pc, _) -> pc | `Split next -> next in
  e.steps <- Array.of_list (List.map (fun (f, _, _) -> f) insns);
  e.offs <-
    Array.of_list
      (List.map (fun (_, _, o) -> o) insns
      @ [ Int64.to_int (Int64.sub final e.e_pc) ]);
  (* Coalesce into slots of up to four instructions.  Only the final
     element of a slot may be a raising (memory) closure, so when a
     slot raises the retire count and epc are exact.  Slot tuples are
     (closure, retired-through-slot, final-instruction offset). *)
  let rec slots pre = function
    | [] -> []
    | (f1, false, _) :: (f2, false, _) :: (f3, false, _) :: (f4, false, o4)
      :: rest ->
        (seq4 f1 f2 f3 f4, pre + 4, o4) :: slots (pre + 4) rest
    | (f1, false, _) :: (f2, false, _) :: (f3, false, o3) :: rest ->
        (seq3 f1 f2 f3, pre + 3, o3) :: slots (pre + 3) rest
    | (f1, false, _) :: (f2, false, o2) :: rest ->
        (seq2 f1 f2, pre + 2, o2) :: slots (pre + 2) rest
    | (f, _, o) :: rest -> (f, pre + 1, o) :: slots (pre + 1) rest
  in
  let sl = slots 0 insns in
  e.body <- Array.of_list (List.map (fun (f, _, _) -> f) sl);
  e.slot_ret <- Array.of_list (List.map (fun (_, r, _) -> r) sl);
  e.slot_offs <- Array.of_list (List.map (fun (_, _, o) -> o) sl);
  let term =
    match outcome with
    | `Term (pc, insn) -> build_terminal t e pc insn
    | `Split next -> build_fallthrough t e next
  in
  e.exec <- build_exec t e ~guest_n:!n term

let compile (t : t) (pc : int64) (first : Insn.t) : entry =
  let e =
    { e_pc = pc; e_len = 1; body = [||]; steps = [||]; offs = [||];
      slot_ret = [||]; slot_offs = [||]; exec = (fun _ -> None); seq = None;
      tgt = None; hot = 0 }
  in
  build t e first;
  e

(* --- bounded eviction -------------------------------------------------

   Evicted entries are removed from the hash list but may still be
   referenced by the [seq]/[tgt] chains of surviving blocks.  Instead
   of chasing those references, the victim is *demoted*: its routine
   becomes a stub that recompiles the block in place on next execution
   (and re-inserts it into the hash list), so stale chains self-heal
   at the cost of one recompile. *)

let demote (t : t) (e : entry) =
  e.body <- [||];
  e.steps <- [||];
  e.offs <- [||];
  e.slot_ret <- [||];
  e.slot_offs <- [||];
  e.e_len <- 1;
  e.seq <- None;
  e.tgt <- None;
  (* a pending patch into this entry would link it for its *old* block
     shape; drop it *)
  (match t.patch with
  | Some p when p == e ->
      t.patch <- None;
      t.patch_slot <- Patch_none
  | _ -> ());
  e.exec <-
    (fun e' ->
      match Exec_generic.fetch_decode ~at:e'.e_pc t.m with
      | insn ->
          build t e' insn;
          Hashtbl.replace t.cache e'.e_pc e';
          t.recompiles <- t.recompiles + 1;
          (* re-dispatch without executing: the run loop re-checks the
             budget against the rebuilt e_len *)
          Some e'
      | exception Trap.Exception (exc, tval) ->
          Mach.take_trap t.m exc tval ~epc:e'.e_pc;
          retarget t;
          None)

let evict (t : t) =
  let want = max 1 (t.capacity / 8) in
  let victims = ref [] in
  let k = ref 0 in
  (try
     Hashtbl.iter
       (fun pc e ->
         victims := (pc, e) :: !victims;
         incr k;
         if !k >= want then raise Exit)
       t.cache
   with Exit -> ());
  List.iter
    (fun (pc, e) ->
      Hashtbl.remove t.cache pc;
      demote t e)
    !victims;
  t.evictions <- t.evictions + !k

(* --- slow path --------------------------------------------------------- *)

(* Resolve the entry for m.pc, compiling if needed, and patch the
   chain slot of the entry that missed. *)
let rec lookup_or_compile (t : t) : entry option =
  if not t.m.Mach.running then None
  else begin
    t.slow_lookups <- t.slow_lookups + 1;
    if Hashtbl.length t.cache >= t.capacity then evict t;
    let pc = t.m.Mach.pc in
    match Hashtbl.find_opt t.cache pc with
    | Some entry ->
        patch_chain t entry;
        Some entry
    | None -> (
        match Exec_generic.fetch_decode t.m with
        | insn ->
            let entry = compile t pc insn in
            Hashtbl.replace t.cache pc entry;
            patch_chain t entry;
            Some entry
        | exception Trap.Exception (exc, tval) ->
            (* fetch fault: take the trap and resolve the handler
               address in the handler privilege's cache instead *)
            Mach.take_trap t.m exc tval ~epc:pc;
            retarget t;
            lookup_or_compile t)
  end

and patch_chain (t : t) (entry : entry) =
  (match (t.patch, t.patch_slot) with
  | Some p, Patch_seq -> p.seq <- Some entry
  | Some p, Patch_tgt -> p.tgt <- Some entry
  | Some _, Patch_site s -> s.sx_e <- Some entry
  | Some _, Patch_none | None, _ -> ());
  t.patch <- None;
  t.patch_slot <- Patch_none

(* --- trace megablocks -------------------------------------------------

   When the chain loop has dispatched an entry [hot_threshold] times,
   the hot path starting at it is re-compiled into a *trace
   megablock*: one fused routine spanning direct branches and folded
   jumps, executed by a single dispatch.  Conditional branches inside
   the trace become *guards* -- the branch retires on both paths, but
   only a direction mismatch leaves the trace, through a lazily
   chained side-exit [site].  A branch whose condition is provably
   constant (its operands' whole dependency chains are written exactly
   once in the trace) folds away entirely; adjacent same-page memory
   accesses share one translation/bounds/page-cache check; an indirect
   terminal resolves through a 2-way inline cache; a backedge to the
   head loops inside the routine while the budget allows.  Short loop
   bodies are implicitly unrolled: a backedge is only accepted once
   the trace spans [min_span] instructions, so earlier encounters of
   the head pc just keep decoding (duplicating the body).

   Precision: the head entry keeps its plain superblock views
   (body/steps/offs), used by [run_partial] and whenever the remaining
   budget is smaller than one trace pass; inside a trace, every
   raising instruction records its accounting id in a shared cursor
   before executing, and the per-id tables give the exact retire count
   and epc, so a trap at instruction i retires exactly i+1 -- the same
   contract as plain superblocks. *)

let max_trace = 256
let min_span = 32

type tguard = {
  g_op : Insn.branch_op;
  g_rs1 : int;
  g_rs2 : int;
  g_taken : bool; (* the direction the trace follows *)
  g_exit : int64; (* resume pc when the actual direction differs *)
  g_pc : int64;
  g_fold : int list option; (* Some deps: constant-fold candidate *)
}

type titem =
  | T_op of (unit -> unit) * bool * int64 * Insn.t
  | T_guard of tguard

type tterm =
  | Tm_back of tguard option (* backedge to head; None = unconditional *)
  | Tm_jalr of int * int * int64 * int64 (* rd, rs1, imm, pc *)
  | Tm_exit of int64

(* A guard compiled as the tail of a chunk: the comparison is inlined
   (no condition closure), and the follow / leave continuations are
   tail calls.  The complement pairs (BNE/BEQ, BGE/BLT, BGEU/BLTU)
   normalise onto three comparisons by flipping [want]. *)
let guard_fin (regs : Mach.regfile) (op : Insn.branch_op) (rs1 : int)
    (rs2 : int)
    (want : bool) (next : unit -> entry option) (ex : unit -> entry option) :
    unit -> entry option =
  let want =
    match op with
    | Insn.BNE | Insn.BGE | Insn.BGEU -> not want
    | Insn.BEQ | Insn.BLT | Insn.BLTU -> want
  in
  match op with
  | Insn.BEQ | Insn.BNE ->
      if want then fun () ->
        if Int64.equal (Array1.unsafe_get regs rs1) (Array1.unsafe_get regs rs2)
        then next ()
        else ex ()
      else fun () ->
        if Int64.equal (Array1.unsafe_get regs rs1) (Array1.unsafe_get regs rs2)
        then ex ()
        else next ()
  | Insn.BLT | Insn.BGE ->
      if want then fun () ->
        if Array1.unsafe_get regs rs1 < Array1.unsafe_get regs rs2 then next ()
        else ex ()
      else fun () ->
        if Array1.unsafe_get regs rs1 < Array1.unsafe_get regs rs2 then ex ()
        else next ()
  | Insn.BLTU | Insn.BGEU ->
      if want then fun () ->
        let a = Array1.unsafe_get regs rs1 in
        let b = Array1.unsafe_get regs rs2 in
        if a < b <> (a < 0L <> (b < 0L)) then next () else ex ()
      else fun () ->
        let a = Array1.unsafe_get regs rs1 in
        let b = Array1.unsafe_get regs rs2 in
        if a < b <> (a < 0L <> (b < 0L)) then ex () else next ()

(* One chunk: up to eight slot routines called directly, then a tail
   call into [fin] (the next chunk, an inlined guard, or the trace
   terminal).  Mirrors [build_exec]'s matched arms -- no per-slot
   array indexing or cursor traffic on the fast path. *)
let chunk_arm (sl : (unit -> unit) array) (off : int) (len : int)
    (fin : unit -> entry option) : unit -> entry option =
  match len with
  | 0 -> fin
  | 1 ->
      let s0 = sl.(off) in
      fun () ->
        s0 ();
        fin ()
  | 2 ->
      let s0 = sl.(off) and s1 = sl.(off + 1) in
      fun () ->
        s0 ();
        s1 ();
        fin ()
  | 3 ->
      let s0 = sl.(off) and s1 = sl.(off + 1) and s2 = sl.(off + 2) in
      fun () ->
        s0 ();
        s1 ();
        s2 ();
        fin ()
  | 4 ->
      let s0 = sl.(off)
      and s1 = sl.(off + 1)
      and s2 = sl.(off + 2)
      and s3 = sl.(off + 3) in
      fun () ->
        s0 ();
        s1 ();
        s2 ();
        s3 ();
        fin ()
  | 5 ->
      let s0 = sl.(off)
      and s1 = sl.(off + 1)
      and s2 = sl.(off + 2)
      and s3 = sl.(off + 3)
      and s4 = sl.(off + 4) in
      fun () ->
        s0 ();
        s1 ();
        s2 ();
        s3 ();
        s4 ();
        fin ()
  | 6 ->
      let s0 = sl.(off)
      and s1 = sl.(off + 1)
      and s2 = sl.(off + 2)
      and s3 = sl.(off + 3)
      and s4 = sl.(off + 4)
      and s5 = sl.(off + 5) in
      fun () ->
        s0 ();
        s1 ();
        s2 ();
        s3 ();
        s4 ();
        s5 ();
        fin ()
  | 7 ->
      let s0 = sl.(off)
      and s1 = sl.(off + 1)
      and s2 = sl.(off + 2)
      and s3 = sl.(off + 3)
      and s4 = sl.(off + 4)
      and s5 = sl.(off + 5)
      and s6 = sl.(off + 6) in
      fun () ->
        s0 ();
        s1 ();
        s2 ();
        s3 ();
        s4 ();
        s5 ();
        s6 ();
        fin ()
  | _ ->
      let s0 = sl.(off)
      and s1 = sl.(off + 1)
      and s2 = sl.(off + 2)
      and s3 = sl.(off + 3)
      and s4 = sl.(off + 4)
      and s5 = sl.(off + 5)
      and s6 = sl.(off + 6)
      and s7 = sl.(off + 7) in
      fun () ->
        s0 ();
        s1 ();
        s2 ();
        s3 ();
        s4 ();
        s5 ();
        s6 ();
        s7 ();
        fin ()

(* Split a slot run into chained chunks of at most eight. *)
let rec chunks (sl : (unit -> unit) array) (lo : int) (hi : int)
    (fin : unit -> entry option) : unit -> entry option =
  if hi - lo <= 8 then chunk_arm sl lo (hi - lo) fin
  else
    let cut = hi - 8 in
    chunks sl lo cut (chunk_arm sl cut 8 fin)

(* Address-forming ALU shapes that can be emitted inline ahead of a
   memory access in one slot. *)
let can_fuse_alu = function
  | Insn.Op (Insn.ADD, rd, _, _) when rd <> 0 -> true
  | Insn.Op_imm ((Insn.ADD | Insn.SLL), rd, _, _) when rd <> 0 -> true
  | Insn.Lui (rd, _) | Insn.Auipc (rd, _) when rd <> 0 -> true
  | _ -> false

(* Leave the trace towards [s.sx_pc]: memoized entry, else hash list,
   else slow path with a pending site patch (healed by [patch_chain]
   exactly like seq/tgt chain slots). *)
let exit_site (t : t) (head : entry) (s : site) : entry option =
  match s.sx_e with
  | Some _ as r -> r
  | None -> (
      match Hashtbl.find_opt t.cache s.sx_pc with
      | Some _ as r ->
          s.sx_e <- r;
          r
      | None ->
          t.m.Mach.pc <- s.sx_pc;
          t.patch <- Some head;
          t.patch_slot <- Patch_site s;
          None)

(* [plain] is the head's original superblock routine, kept as the
   low-budget fallback; re-traces (exit-bias feedback) pass the saved
   original so traces never chain behind stale trace closures. *)
let rec build_trace (t : t) (head : entry) (plain : exec_fn) : exec_fn option =
  let m = t.m in
  let regs = m.Mach.regs in
  let fregs = m.Mach.fregs in
  let mem = m.Mach.plat.Platform.mem in
  let mbase = mem.Memory.base in
  let store = mem.Memory.store in
  let msize = Int64.of_int (Memory.size mem) in
  let pbits = Cow_store.page_bits in
  let pmask = (1 lsl pbits) - 1 in
  let paged = m.Mach.paging in
  let hpc = head.e_pc in
  let hpage = Int64.shift_right_logical hpc 12 in
  let rdx rd = if rd = 0 then Mach.sink else rd in
  let rewrite pc = function
    | Insn.Auipc (rd, imm) -> Insn.Auipc (rd, Int64.add pc imm)
    | insn -> insn
  in
  (* --- decode walk, following predicted branch directions ---
     Constants are tracked optimistically (li / lui / auipc / addi
     chains); a branch over known-constant operands is followed in its
     computed direction and recorded as a fold candidate, validated
     after the walk by the single-writer check.  Everything else uses
     backward-taken / forward-not-taken prediction. *)
  let items = ref [] in
  let n = ref 0 in
  let consts : (int, int64 * int list) Hashtbl.t = Hashtbl.create 16 in
  let cval r = if r = 0 then Some (0L, []) else Hashtbl.find_opt consts r in
  let kill rd = if rd <> 0 then Hashtbl.remove consts rd in
  let setc rd v deps = if rd <> 0 then Hashtbl.replace consts rd (v, deps) in
  let track pc insn =
    match insn with
    | Insn.Op_imm (Insn.ADD, rd, 0, imm) -> setc rd imm [ rd ]
    | Insn.Op_imm (Insn.ADD, rd, rs1, imm) -> (
        match cval rs1 with
        | Some (v, deps) -> setc rd (Int64.add v imm) (rd :: deps)
        | None -> kill rd)
    | Insn.Lui (rd, imm) -> setc rd imm [ rd ]
    | Insn.Auipc (rd, imm) -> setc rd (Int64.add pc imm) [ rd ]
    | insn -> ( match dest_reg insn with Some rd -> kill rd | None -> ())
  in
  let push_op f traps pc insn =
    items := T_op (f, traps, pc, insn) :: !items;
    incr n
  in
  let rec walk pc =
    (* a fall-through (or folded-jump) re-arrival at the head closes
       the loop: mid-loop trace heads are re-reached without a branch
       to the head pc, and without this check they would unroll to
       [max_trace] and exit instead of looping *)
    if Int64.equal pc hpc && !n >= min_span then Tm_back None
    else if !n >= max_trace then Tm_exit pc
    else if paged && Int64.shift_right_logical pc 12 <> hpage then Tm_exit pc
    else
      match Exec_generic.fetch_decode ~at:pc m with
      | exception Trap.Exception _ -> Tm_exit pc
      | insn -> step pc insn
  and step pc insn =
    match insn with
    | Insn.Jal (rd, off) ->
        let tgt = Int64.add pc off in
        if paged && Int64.shift_right_logical tgt 12 <> hpage then Tm_exit pc
        else begin
          (if rd = 0 then push_op (fun () -> ()) false pc insn
           else begin
             let rdw = rdx rd in
             let link = Int64.add pc 4L in
             push_op (fun () -> Array1.unsafe_set regs rdw link) false pc insn;
             setc rd link [ rd ]
           end);
          walk tgt
        end
    | Insn.Branch (op, rs1, rs2, off) ->
        let tgt = Int64.add pc off in
        let fall = Int64.add pc 4L in
        let static =
          if rs1 = rs2 then
            Some
              ( (match op with
                | Insn.BEQ | Insn.BGE | Insn.BGEU -> true
                | Insn.BNE | Insn.BLT | Insn.BLTU -> false),
                [] )
          else
            match (cval rs1, cval rs2) with
            | Some (a, d1), Some (b, d2) ->
                Some (eval_branch_static op a b, d1 @ d2)
            | _ -> None
        in
        (* exit-bias feedback overrides backward-taken/forward-not-
           taken once a guard at this pc has proven it wrong *)
        let pred =
          if static <> None then -1
          else
            match Hashtbl.find_opt t.bias pc with
            | Some b -> b.b_pred
            | None -> -1
        in
        if pred = 2 then Tm_exit pc (* unstable branch: end before it *)
        else begin
          let taken, fold =
            match static with
            | Some (tk, deps) -> (tk, Some deps)
            | None ->
                ( (match pred with
                  | 0 -> false
                  | 1 -> true
                  | _ -> Int64.compare off 0L < 0),
                  None )
          in
          let follow = if taken then tgt else fall in
          let exitp = if taken then fall else tgt in
          if paged && Int64.shift_right_logical follow 12 <> hpage then
            Tm_exit pc
          else begin
            let g =
              {
                g_op = op;
                g_rs1 = rs1;
                g_rs2 = rs2;
                g_taken = taken;
                g_exit = exitp;
                g_pc = pc;
                g_fold = fold;
              }
            in
            if Int64.equal follow hpc && !n + 1 >= min_span then
              Tm_back (Some g)
            else begin
              items := T_guard g :: !items;
              incr n;
              walk follow
            end
          end
        end
    | Insn.Jalr (rd, rs1, imm) -> Tm_jalr (rd, rs1, imm, pc)
    | _ -> (
        (* push the rewritten form (auipc absolutised) so the slot
           fusers below see the value actually computed *)
        let insn' = rewrite pc insn in
        match compile_straight m insn' with
        | None -> Tm_exit pc (* system instruction: exit before it *)
        | Some f ->
            track pc insn;
            push_op f (may_raise insn) pc insn';
            walk (Int64.add pc 4L))
  in
  let term = walk hpc in
  let items = List.rev !items in
  (* --- validate constant folds: single writer over the whole trace --- *)
  let wcount = Hashtbl.create 32 in
  List.iter
    (function
      | T_op (_, _, _, insn) -> (
          match dest_reg insn with
          | Some rd when rd <> 0 ->
              Hashtbl.replace wcount rd
                (1 + (try Hashtbl.find wcount rd with Not_found -> 0))
          | _ -> ())
      | T_guard _ -> ())
    items;
  let fold_ok deps =
    List.for_all
      (fun r -> r = 0 || (try Hashtbl.find wcount r with Not_found -> 0) <= 1)
      deps
  in
  let items =
    List.map
      (function
        | T_guard g as it -> (
            match g.g_fold with
            | Some deps when fold_ok deps ->
                t.branch_folds <- t.branch_folds + 1;
                (* the folded branch still retires: a no-op slot *)
                T_op ((fun () -> ()), false, g.g_pc, Insn.Fence)
            | _ -> it)
        | it -> it)
      items
  in
  let term_ret, term =
    match term with
    | Tm_back None -> (0, term)
    | Tm_back (Some g) -> (
        match g.g_fold with
        | Some deps when fold_ok deps ->
            t.branch_folds <- t.branch_folds + 1;
            (1, Tm_back None)
        | _ -> (1, term))
    | Tm_jalr _ -> (1, term)
    | Tm_exit _ -> (0, term)
  in
  let trace_n = !n + term_ret in
  if
    trace_n = 0
    || (match term with Tm_exit _ -> trace_n <= head.e_len | _ -> false)
  then None (* nothing beyond the plain superblock: keep it *)
  else begin
    (* --- assembly: coalesced slots between guards, with per-raising-
       point accounting ids feeding the shared cursor --- *)
    let ret_acc = ref [] and epc_acc = ref [] in
    let nid = ref 0 in
    let add_id ret pc =
      let id = !nid in
      ret_acc := ret :: !ret_acc;
      epc_acc := pc :: !epc_acc;
      incr nid;
      id
    in
    let cur = ref 0 in
    let dl i1 i2 = Int64.to_int (Int64.sub i2 i1) in
    let okd d align = d land align = 0 && abs d < 1 lsl pbits in
    (* Fuse two adjacent memory accesses through [rs1] with a static
       address delta into one routine: one bounds / alignment /
       page-cache check, with the second access reusing the first's
       page bytes when it provably lands on the same guest page
       (otherwise its original routine runs).  [k] and [k+1] are the
       pair's accounting ids. *)
    let try_fuse (k : int) insn1 insn2 (f1 : unit -> unit)
        (f2 : unit -> unit) : (unit -> unit) option =
      match (insn1, insn2) with
      | ( Insn.Load (Insn.LD, rd1, rs1, imm1),
          Insn.Load (Insn.LD, rd2, rs1b, imm2) )
        when rs1b = rs1 && (rd1 = 0 || rd1 <> rs1) && okd (dl imm1 imm2) 7 ->
          let rd1 = rdx rd1 and rd2 = rdx rd2 in
          let delta = dl imm1 imm2 in
          t.tlb_dedups <- t.tlb_dedups + 1;
          Some
            (fun () ->
              cur := k;
              let a = Array1.unsafe_get regs rs1 in
              let d = Int64.sub (Int64.add a imm1) mbase in
              if
                (not m.Mach.paging)
                && 0L <= d && d < msize
                && Int64.to_int d land 7 = 0
              then begin
                let off = Int64.to_int d in
                let idx = off lsr pbits in
                let data =
                  if idx = store.Cow_store.cache_r_idx then
                    store.Cow_store.cache_r_data
                  else Cow_store.read_page store idx
                in
                Array1.unsafe_set regs rd1
                  (Bytes.get_int64_le data (off land pmask));
                let off2 = off + delta in
                if off2 lsr pbits = idx then
                  Array1.unsafe_set regs rd2
                    (Bytes.get_int64_le data (off2 land pmask))
                else begin
                  cur := k + 1;
                  f2 ()
                end
              end
              else begin
                f1 ();
                cur := k + 1;
                f2 ()
              end)
      | ( Insn.Load (Insn.LW, rd1, rs1, imm1),
          Insn.Load (Insn.LW, rd2, rs1b, imm2) )
        when rs1b = rs1 && (rd1 = 0 || rd1 <> rs1) && okd (dl imm1 imm2) 3 ->
          let rd1 = rdx rd1 and rd2 = rdx rd2 in
          let delta = dl imm1 imm2 in
          t.tlb_dedups <- t.tlb_dedups + 1;
          Some
            (fun () ->
              cur := k;
              let a = Array1.unsafe_get regs rs1 in
              let d = Int64.sub (Int64.add a imm1) mbase in
              if
                (not m.Mach.paging)
                && 0L <= d && d < msize
                && Int64.to_int d land 3 = 0
              then begin
                let off = Int64.to_int d in
                let idx = off lsr pbits in
                let data =
                  if idx = store.Cow_store.cache_r_idx then
                    store.Cow_store.cache_r_data
                  else Cow_store.read_page store idx
                in
                Array1.unsafe_set regs rd1
                  (Int64.of_int32 (Bytes.get_int32_le data (off land pmask)));
                let off2 = off + delta in
                if off2 lsr pbits = idx then
                  Array1.unsafe_set regs rd2
                    (Int64.of_int32 (Bytes.get_int32_le data (off2 land pmask)))
                else begin
                  cur := k + 1;
                  f2 ()
                end
              end
              else begin
                f1 ();
                cur := k + 1;
                f2 ()
              end)
      | ( Insn.Store (Insn.SD, rs2a, rs1, imm1),
          Insn.Store (Insn.SD, rs2b, rs1b, imm2) )
        when rs1b = rs1 && okd (dl imm1 imm2) 7 ->
          let delta = dl imm1 imm2 in
          t.tlb_dedups <- t.tlb_dedups + 1;
          Some
            (fun () ->
              cur := k;
              let a = Array1.unsafe_get regs rs1 in
              let d = Int64.sub (Int64.add a imm1) mbase in
              if
                (not m.Mach.paging)
                && 0L <= d && d < msize
                && Int64.to_int d land 7 = 0
              then begin
                let off = Int64.to_int d in
                let idx = off lsr pbits in
                let data =
                  if idx = store.Cow_store.cache_w_idx then
                    store.Cow_store.cache_w_data
                  else Cow_store.write_page store idx
                in
                Bytes.set_int64_le data (off land pmask)
                  (Array1.unsafe_get regs rs2a);
                let off2 = off + delta in
                if off2 lsr pbits = idx then
                  Bytes.set_int64_le data (off2 land pmask)
                    (Array1.unsafe_get regs rs2b)
                else begin
                  cur := k + 1;
                  f2 ()
                end
              end
              else begin
                f1 ();
                cur := k + 1;
                f2 ()
              end)
      | ( Insn.Store (Insn.SW, rs2a, rs1, imm1),
          Insn.Store (Insn.SW, rs2b, rs1b, imm2) )
        when rs1b = rs1 && okd (dl imm1 imm2) 3 ->
          let delta = dl imm1 imm2 in
          t.tlb_dedups <- t.tlb_dedups + 1;
          Some
            (fun () ->
              cur := k;
              let a = Array1.unsafe_get regs rs1 in
              let d = Int64.sub (Int64.add a imm1) mbase in
              if
                (not m.Mach.paging)
                && 0L <= d && d < msize
                && Int64.to_int d land 3 = 0
              then begin
                let off = Int64.to_int d in
                let idx = off lsr pbits in
                let data =
                  if idx = store.Cow_store.cache_w_idx then
                    store.Cow_store.cache_w_data
                  else Cow_store.write_page store idx
                in
                Bytes.set_int32_le data (off land pmask)
                  (Int64.to_int32 (Array1.unsafe_get regs rs2a));
                let off2 = off + delta in
                if off2 lsr pbits = idx then
                  Bytes.set_int32_le data (off2 land pmask)
                    (Int64.to_int32 (Array1.unsafe_get regs rs2b))
                else begin
                  cur := k + 1;
                  f2 ()
                end
              end
              else begin
                f1 ();
                cur := k + 1;
                f2 ()
              end)
      | Insn.Fld (fd1, rs1, imm1), Insn.Fld (fd2, rs1b, imm2)
        when rs1b = rs1 && okd (dl imm1 imm2) 7 ->
          let delta = dl imm1 imm2 in
          t.tlb_dedups <- t.tlb_dedups + 1;
          Some
            (fun () ->
              cur := k;
              let a = Array1.unsafe_get regs rs1 in
              let d = Int64.sub (Int64.add a imm1) mbase in
              if
                (not m.Mach.paging)
                && 0L <= d && d < msize
                && Int64.to_int d land 7 = 0
              then begin
                let off = Int64.to_int d in
                let idx = off lsr pbits in
                let data =
                  if idx = store.Cow_store.cache_r_idx then
                    store.Cow_store.cache_r_data
                  else Cow_store.read_page store idx
                in
                Array1.unsafe_set fregs fd1
                  (Bytes.get_int64_le data (off land pmask));
                let off2 = off + delta in
                if off2 lsr pbits = idx then
                  Array1.unsafe_set fregs fd2
                    (Bytes.get_int64_le data (off2 land pmask))
                else begin
                  cur := k + 1;
                  f2 ()
                end
              end
              else begin
                f1 ();
                cur := k + 1;
                f2 ()
              end)
      | Insn.Fsd (fs1, rs1, imm1), Insn.Fsd (fs2, rs1b, imm2)
        when rs1b = rs1 && okd (dl imm1 imm2) 7 ->
          let delta = dl imm1 imm2 in
          t.tlb_dedups <- t.tlb_dedups + 1;
          Some
            (fun () ->
              cur := k;
              let a = Array1.unsafe_get regs rs1 in
              let d = Int64.sub (Int64.add a imm1) mbase in
              if
                (not m.Mach.paging)
                && 0L <= d && d < msize
                && Int64.to_int d land 7 = 0
              then begin
                let off = Int64.to_int d in
                let idx = off lsr pbits in
                let data =
                  if idx = store.Cow_store.cache_w_idx then
                    store.Cow_store.cache_w_data
                  else Cow_store.write_page store idx
                in
                Bytes.set_int64_le data (off land pmask)
                  (Array1.unsafe_get fregs fs1);
                let off2 = off + delta in
                if off2 lsr pbits = idx then
                  Bytes.set_int64_le data (off2 land pmask)
                    (Array1.unsafe_get fregs fs2)
                else begin
                  cur := k + 1;
                  f2 ()
                end
              end
              else begin
                f1 ();
                cur := k + 1;
                f2 ()
              end)
      | _ -> None
    in
    (* Fuse an address-forming ALU op with the following (raising)
       memory access into one slot: the ALU result is computed inline
       and the access runs under one accounting id (the ALU op cannot
       raise, so one id covers the pair).  This collapses the
       slli/add/ld indexed-addressing idiom -- the dominant pattern in
       compiled loops -- into a single call. *)
    let fuse_addr (k : int) (alu : Insn.t) (fm : unit -> unit) :
        (unit -> unit) option =
      match alu with
      | Insn.Op (Insn.ADD, rd, rs1, rs2) when rd <> 0 ->
          let rd = rdx rd in
          Some
            (fun () ->
              cur := k;
              Array1.unsafe_set regs rd
                (Int64.add
                   (Array1.unsafe_get regs rs1)
                   (Array1.unsafe_get regs rs2));
              fm ())
      | Insn.Op_imm (Insn.ADD, rd, rs1, imm) when rd <> 0 ->
          let rd = rdx rd in
          Some
            (fun () ->
              cur := k;
              Array1.unsafe_set regs rd
                (Int64.add (Array1.unsafe_get regs rs1) imm);
              fm ())
      | Insn.Op_imm (Insn.SLL, rd, rs1, imm) when rd <> 0 ->
          let rd = rdx rd in
          let sh = Int64.to_int imm land 0x3F in
          Some
            (fun () ->
              cur := k;
              Array1.unsafe_set regs rd
                (Int64.shift_left (Array1.unsafe_get regs rs1) sh);
              fm ())
      | Insn.Lui (rd, imm) when rd <> 0 ->
          let rd = rdx rd in
          Some
            (fun () ->
              cur := k;
              Array1.unsafe_set regs rd imm;
              fm ())
      | Insn.Auipc (rd, imm) when rd <> 0 ->
          (* imm was absolutised to pc+imm by the walk's rewrite *)
          let rd = rdx rd in
          Some
            (fun () ->
              cur := k;
              Array1.unsafe_set regs rd imm;
              fm ())
      | _ -> None
    in
    (* Slot selection inside a guard-free segment.  Raising routines
       set the shared cursor inline in their own slot (no wrapper
       call); non-raising runs coalesce up to four per slot, with
       lookahead that keeps an address-forming ALU op adjacent to the
       memory access it feeds so [fuse_addr] can merge them. *)
    let rec seg_slots pre ops =
      match ops with
      | [] -> []
      | (f1, true, pc1, i1) :: ((f2, true, pc2, i2) :: rest2 as tail) -> (
          match try_fuse !nid i1 i2 f1 f2 with
          | Some fp ->
              let _ = add_id (pre + 1) pc1 in
              let _ = add_id (pre + 2) pc2 in
              fp :: seg_slots (pre + 2) rest2
          | None ->
              let k = add_id (pre + 1) pc1 in
              (fun () ->
                cur := k;
                f1 ())
              :: seg_slots (pre + 1) tail)
      | (fa, false, _, ia) :: (fm, true, pcm, _) :: rest when can_fuse_alu ia
        -> (
          let k = add_id (pre + 2) pcm in
          match fuse_addr k ia fm with
          | Some fp ->
              t.addr_fuses <- t.addr_fuses + 1;
              fp :: seg_slots (pre + 2) rest
          | None ->
              (fun () ->
                fa ();
                cur := k;
                fm ())
              :: seg_slots (pre + 2) rest)
      | (fa, false, _, _) :: (fm, true, pcm, _) :: rest ->
          let k = add_id (pre + 2) pcm in
          (fun () ->
            fa ();
            cur := k;
            fm ())
          :: seg_slots (pre + 2) rest
      | (f1, false, _, _) :: (((_, false, _, i2) :: (_, true, _, _) :: _) as
                              tail)
        when can_fuse_alu i2 ->
          f1 :: seg_slots (pre + 1) tail
      | (f1, false, _, _) :: (f2, false, _, _)
        :: (((_, false, _, i3) :: (_, true, _, _) :: _) as tail)
        when can_fuse_alu i3 ->
          seq2 f1 f2 :: seg_slots (pre + 2) tail
      | (f1, false, _, _) :: (f2, false, _, _) :: (f3, false, _, _)
        :: (((_, false, _, i4) :: (_, true, _, _) :: _) as tail)
        when can_fuse_alu i4 ->
          seq3 f1 f2 f3 :: seg_slots (pre + 3) tail
      | (f1, false, _, _) :: (f2, false, _, _) :: (f3, false, _, _)
        :: (fm, true, pcm, _) :: rest ->
          let k = add_id (pre + 4) pcm in
          (fun () ->
            f1 ();
            f2 ();
            f3 ();
            cur := k;
            fm ())
          :: seg_slots (pre + 4) rest
      | (f1, false, _, _) :: (f2, false, _, _) :: (f3, false, _, _)
        :: (f4, false, _, _) :: rest ->
          seq4 f1 f2 f3 f4 :: seg_slots (pre + 4) rest
      | (f1, false, _, _) :: (f2, false, _, _) :: (fm, true, pcm, _) :: rest
        ->
          let k = add_id (pre + 3) pcm in
          (fun () ->
            f1 ();
            f2 ();
            cur := k;
            fm ())
          :: seg_slots (pre + 3) rest
      | (f1, false, _, _) :: (f2, false, _, _) :: rest ->
          seq2 f1 f2 :: seg_slots (pre + 2) rest
      | (fm, true, pcm, _) :: rest ->
          let k = add_id (pre + 1) pcm in
          (fun () ->
            cur := k;
            fm ())
          :: seg_slots (pre + 1) rest
      | (f, false, _, _) :: rest -> f :: seg_slots (pre + 1) rest
    in
    (* split the item list into guard-free segments, each closed by an
       optional guard (the final segment runs into the terminal) *)
    let rec split_segs acc ops items =
      match items with
      | [] -> List.rev ((List.rev ops, None) :: acc)
      | T_guard g :: rest -> split_segs ((List.rev ops, Some g) :: acc) [] rest
      | T_op (f, tr, pc, insn) :: rest ->
          split_segs acc ((f, tr, pc, insn) :: ops) rest
    in
    let segs = split_segs [] [] items in
    (* forward pass: slot arrays and accounting ids in trace order; a
       guard's [gret] is the exact retire count when it exits (the
       branch itself retires on both paths) *)
    let pre = ref 0 in
    let built =
      List.map
        (fun (ops, gopt) ->
          let slots = Array.of_list (seg_slots !pre ops) in
          pre := !pre + List.length ops;
          let gret =
            match gopt with
            | Some _ ->
                incr pre;
                !pre
            | None -> 0
          in
          (slots, gopt, gret))
        segs
    in
    let some_head = Some head in
    let first_ref = ref (fun () -> (None : entry option)) in
    (* Re-trace this head with the bias table's updated predictions
       (bounded per head; the saved [plain] fallback keeps the chain
       sane if the new walk finds nothing worth tracing). *)
    let retrace () =
      let c = try Hashtbl.find t.retraces hpc with Not_found -> 0 in
      if c < 16 && m.Mach.running then begin
        Hashtbl.replace t.retraces hpc (c + 1);
        (match build_trace t head plain with
        | Some f -> head.exec <- f
        | None -> head.exec <- plain);
        head.hot <- min_int
      end
    in
    (* A guard whose exits arrive within [bias_window] retired
       instructions of each other is mispredicted often enough that
       the exit cost dominates whatever the trace saves: record the
       offence and re-trace.  The bias record is resolved here, at
       build time, so the exit path touches no hash table. *)
    let note_exit (g : tguard) =
      let b =
        match Hashtbl.find_opt t.bias g.g_pc with
        | Some b -> b
        | None ->
            let b =
              {
                b_pred = (if g.g_taken then 1 else 0);
                b_last = m.Mach.instret;
                b_gap = max_int;
                b_cnt = 0;
                b_flips = 0;
              }
            in
            Hashtbl.replace t.bias g.g_pc b;
            b
      in
      fun () ->
        b.b_cnt <- b.b_cnt + 1;
        let gap = m.Mach.instret - b.b_last in
        b.b_last <- m.Mach.instret;
        b.b_gap <-
          (if b.b_gap = max_int then gap else (3 * b.b_gap + gap) asr 2);
        if b.b_cnt >= 8 && b.b_gap < 1024 then begin
          (* if the table already says nofollow (another trace hit the
             same branch first), don't advance the state machine --
             just rebuild this trace so it respects the table *)
          if b.b_pred <> 2 then begin
            b.b_pred <-
              (if b.b_flips = 0 then (if g.g_taken then 0 else 1) else 2);
            b.b_flips <- b.b_flips + 1
          end;
          b.b_cnt <- 0;
          b.b_gap <- max_int;
          retrace ()
        end
    in
    let mk_exit (g : tguard) (gret : int) : unit -> entry option =
      let site = { sx_pc = g.g_exit; sx_e = None } in
      let note = note_exit g in
      fun () ->
        m.Mach.instret <- m.Mach.instret + gret;
        t.mega_exits <- t.mega_exits + 1;
        note ();
        exit_site t head site
    in
    let back_loop () =
      let ni = m.Mach.instret + trace_n in
      m.Mach.instret <- ni;
      if t.stop_at - ni >= trace_n then !first_ref () else some_head
    in
    let term_close =
      match term with
      | Tm_back None -> back_loop
      | Tm_back (Some g) ->
          guard_fin regs g.g_op g.g_rs1 g.g_rs2 g.g_taken back_loop
            (mk_exit g trace_n)
      | Tm_jalr (rd, rs1, imm, jpc) ->
          let ic = new_ic () in
          let rdw = rdx rd in
          let link = Int64.add jpc 4L in
          fun () ->
            m.Mach.instret <- m.Mach.instret + trace_n;
            let target =
              Int64.logand
                (Int64.add (Array1.unsafe_get regs rs1) imm)
                (Int64.lognot 1L)
            in
            Array1.unsafe_set regs rdw link;
            ic_lookup t ic target
      | Tm_exit xpc ->
          let site = { sx_pc = xpc; sx_e = None } in
          fun () ->
            m.Mach.instret <- m.Mach.instret + trace_n;
            exit_site t head site
    in
    (* backward threading: each segment's chunks tail-call the next,
       through an inlined guard comparison when one closes the
       segment *)
    let first =
      List.fold_left
        (fun next (slots, gopt, gret) ->
          let fin =
            match gopt with
            | None -> next
            | Some g ->
                guard_fin regs g.g_op g.g_rs1 g.g_rs2 g.g_taken next
                  (mk_exit g gret)
          in
          chunks slots 0 (Array.length slots) fin)
        term_close (List.rev built)
    in
    first_ref := first;
    let tr_ret = Array.of_list (List.rev !ret_acc) in
    let tr_epc = Array.of_list (List.rev !epc_acc) in
    let exec_trace e' =
      if t.stop_at - m.Mach.instret >= trace_n then (
        match first () with
        | r -> r
        | exception Trap.Exception (exc, tval) ->
            m.Mach.instret <- m.Mach.instret + Array.unsafe_get tr_ret !cur;
            Mach.take_trap m exc tval ~epc:(Array.unsafe_get tr_epc !cur);
            retarget t;
            None
        | exception Mach_exited ->
            m.Mach.instret <- m.Mach.instret + Array.unsafe_get tr_ret !cur;
            m.Mach.pc <- Int64.add (Array.unsafe_get tr_epc !cur) 4L;
            None)
      else plain e'
    in
    Some exec_trace
  end

let promote (t : t) (e : entry) =
  if (not t.prof_on) && t.m.Mach.running then
    match build_trace t e e.exec with
    | Some f ->
        e.exec <- f;
        t.megablocks <- t.megablocks + 1
    | None ->
        (* not worth tracing: park the counter so the equality test in
           the chain loop never re-trips (rebuilds reset it) *)
        e.hot <- min_int

(* --- run loop ---------------------------------------------------------- *)

exception Budget_exhausted

(* Execute the first [budget] (< e.e_len) instructions of [e]: the
   exact-stop path used when the remaining budget is smaller than a
   block (checkpointing relies on run ~max_insns retiring exactly
   max_insns).  Steps through the unfused per-instruction view --
   coalesced slots cannot stop at an exact instruction count. *)
let run_partial (t : t) (e : entry) (budget : int) =
  let m = t.m in
  let body = e.steps in
  let offs = e.offs in
  let k = min budget (Array.length body) in
  let i = ref 0 in
  try
    while !i < k do
      (Array.unsafe_get body !i) ();
      incr i
    done;
    m.Mach.instret <- m.Mach.instret + k;
    m.Mach.pc <- Int64.add e.e_pc (Int64.of_int offs.(k))
  with
  | Trap.Exception (exc, tval) ->
      m.Mach.instret <- m.Mach.instret + !i + 1;
      Mach.take_trap m exc tval ~epc:(Int64.add e.e_pc (Int64.of_int offs.(!i)));
      retarget t
  | Mach_exited ->
      m.Mach.instret <- m.Mach.instret + !i + 1;
      m.Mach.pc <- Int64.add e.e_pc (Int64.of_int (offs.(!i) + 4))

(* Run at most [max_insns] instructions (or to exit). *)
let run (t : t) ~max_insns : int =
  let m = t.m in
  let start = m.Mach.instret in
  let stop_at = start + max_insns in
  t.stop_at <- stop_at;
  (* megablocks stand down while BBV profiling is attached: traces
     hide the control-flow edges the profiler must observe (and
     [Bbv.attach] flushes, so none survive from before) *)
  let mega = t.mega_enabled && not t.prof_on in
  (* entry pending when the budget ran out on a block boundary; its pc
     must be restored below *)
  let hold = ref None in
  (* chain-following loop: one budget compare and one indirect call
     per superblock, no intermediate ref/option traffic.  Terminals
     that can exit or change privilege always return [None], so the
     running/interrupt checks only need to run on the slow path. *)
  let rec chain (e : entry) =
    let budget = stop_at - m.Mach.instret in
    if budget <= 0 then begin
      hold := Some e;
      raise Budget_exhausted
    end
    else if e.e_len <= budget then begin
      (if mega then
         let h = e.hot + 1 in
         e.hot <- h;
         if h = t.hot_threshold then promote t e);
      match e.exec e with Some e' -> chain e' | None -> ()
    end
    else run_partial t e budget
  in
  (try
     while m.Mach.running do
       Mach.check_running m;
       (match Riscv.Trap.pending_interrupt m.Mach.csr with
       | Some irq ->
           Mach.take_irq m irq;
           retarget t
       | None -> ());
       if m.Mach.instret >= stop_at then raise Budget_exhausted;
       match lookup_or_compile t with
       | Some e -> chain e
       | None -> raise Budget_exhausted (* machine exited *)
     done
   with Budget_exhausted -> ());
  (* make m.pc coherent if we stopped on a fast-path boundary *)
  (match !hold with Some e -> m.Mach.pc <- e.e_pc | None -> ());
  m.Mach.instret - start

let name = "nemu"
