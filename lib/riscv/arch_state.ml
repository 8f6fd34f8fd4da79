(* Architectural state of one hart: the state space S_P of the paper's
   formal model.  Both the REF and the DUT's commit stage maintain one
   of these; DiffTest compares them under the active diff-rules. *)

type t = {
  regs : int64 array; (* x0..x31; x0 pinned to zero *)
  fregs : int64 array; (* f0..f31, raw IEEE-754 bits *)
  mutable pc : int64;
  csr : Csr.t;
  mutable reservation : int64 option; (* LR/SC reservation address *)
  hartid : int;
}

let create ?(pc = Platform.dram_base) ~hartid () =
  {
    regs = Array.make 32 0L;
    fregs = Array.make 32 0L;
    pc;
    csr = Csr.create ~hartid;
    reservation = None;
    hartid;
  }

let get_reg t r = if r = 0 then 0L else t.regs.(r)

let set_reg t r v = if r <> 0 then t.regs.(r) <- v

let get_freg t r = t.fregs.(r)

let set_freg t r v = t.fregs.(r) <- v

let copy t =
  {
    regs = Array.copy t.regs;
    fregs = Array.copy t.fregs;
    pc = t.pc;
    csr = Csr.copy t.csr;
    reservation = t.reservation;
    hartid = t.hartid;
  }

let restore_from t ~src =
  Array.blit src.regs 0 t.regs 0 32;
  Array.blit src.fregs 0 t.fregs 0 32;
  t.pc <- src.pc;
  t.reservation <- src.reservation;
  let c = t.csr and s = src.csr in
  c.Csr.priv <- s.Csr.priv;
  c.reg_mstatus <- s.reg_mstatus;
  c.reg_medeleg <- s.reg_medeleg;
  c.reg_mideleg <- s.reg_mideleg;
  c.reg_mie <- s.reg_mie;
  c.reg_mtvec <- s.reg_mtvec;
  c.reg_mscratch <- s.reg_mscratch;
  c.reg_mepc <- s.reg_mepc;
  c.reg_mcause <- s.reg_mcause;
  c.reg_mtval <- s.reg_mtval;
  c.reg_mip <- s.reg_mip;
  c.reg_mcycle <- s.reg_mcycle;
  c.reg_minstret <- s.reg_minstret;
  c.reg_stvec <- s.reg_stvec;
  c.reg_sscratch <- s.reg_sscratch;
  c.reg_sepc <- s.reg_sepc;
  c.reg_scause <- s.reg_scause;
  c.reg_stval <- s.reg_stval;
  c.reg_satp <- s.reg_satp;
  c.reg_fflags <- s.reg_fflags;
  c.reg_frm <- s.reg_frm

(* --- the DiffTest compare ---------------------------------------------- *)

(* The compared fields, numbered so the compare returns a plain int:
   0 is the pc, 1-31 are x1-x31, 32-63 are f0-f31, and [field_csr k]
   is entry [k] of [Csr.compared].  x0 is pinned to zero and never
   compared; mcycle, minstret and mip are not in [Csr.compared]. *)
let field_freg i = 32 + i

let field_csr k = 64 + k

let field_count = field_csr (Array.length Csr.compared)

(* Value of compared field [f] in [t]. *)
let field_value t f =
  if f = 0 then t.pc
  else if f < 32 then t.regs.(f)
  else if f < field_csr 0 then t.fregs.(f - 32)
  else snd Csr.compared.(f - field_csr 0) t.csr

(* The one rendering of a compared-field mismatch, shared by every REF
   backend so a failure reads the same whichever REF is active. *)
let diff_message f ~dut ~ref_ =
  if f = 0 then Printf.sprintf "pc: 0x%Lx vs 0x%Lx" dut ref_
  else if f < 32 then
    Printf.sprintf "x%d(%s): 0x%Lx vs 0x%Lx" f (Insn.reg_name f) dut ref_
  else if f < field_csr 0 then Printf.sprintf "f%d: 0x%Lx vs 0x%Lx" (f - 32) dut ref_
  else
    Printf.sprintf "csr %s: 0x%Lx vs 0x%Lx"
      (fst Csr.compared.(f - field_csr 0))
      dut ref_

(* Do the two states agree on x1-x31 and f0-f31?  The XORs are ORed
   together with no branch per register (the usual answer is yes),
   both files in one loop. *)
let same_files a b =
  let ra = a.regs and rb = b.regs and fa = a.fregs and fb = b.fregs in
  let d = ref (Int64.logxor (Array.unsafe_get fa 0) (Array.unsafe_get fb 0)) in
  for i = 1 to 31 do
    d :=
      Int64.logor !d
        (Int64.logor
           (Int64.logxor (Array.unsafe_get ra i) (Array.unsafe_get rb i))
           (Int64.logxor (Array.unsafe_get fa i) (Array.unsafe_get fb i)))
  done;
  Int64.equal !d 0L

(* The first field on which two value readers differ, or -1: the
   slow path, taken only once a mismatch is known. *)
let first_differing value_a value_b =
  let rec go f =
    if f = field_count then -1
    else if Int64.equal (value_a f) (value_b f) then go (f + 1)
    else f
  in
  go 0

(* First compared field on which [a] and [b] differ, or -1.  Runs
   every cycle on every hart, so it allocates nothing unless a field
   differs. *)
let first_diff a b =
  if Int64.equal a.pc b.pc && same_files a b then
    let k = Csr.first_diff a.csr b.csr in
    if k < 0 then -1 else field_csr k
  else first_differing (field_value a) (field_value b)

(* First difference between two states, for DiffTest reports. *)
let diff a b : string option =
  let f = first_diff a b in
  if f < 0 then None
  else Some (diff_message f ~dut:(field_value a f) ~ref_:(field_value b f))

let equal a b = first_diff a b < 0
