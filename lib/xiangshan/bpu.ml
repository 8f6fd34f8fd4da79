(* Branch prediction unit: micro-BTB + BTB, a 4-table TAGE-lite
   direction predictor, a return-address stack, and (for NH) an
   ITTAGE-lite indirect target predictor.

   The BPU also maintains the per-branch confidence estimation table
   used by the PUBS issue policy (§IV-D): a branch is "unconfident"
   until it has accumulated a run of correct predictions. *)

module Cow = Riscv.Cow_store

type t = {
  (* The tables live in one COW store so LightSSS snapshots them by
     page table; the int fields below are their byte offsets in it.
     All-zero is the reset state: target-table tags are stored as
     [pc + 1] and TAGE tags as [tag + 1] (0 = invalid), bimodal
     counters as [c - 1] (reset 1). *)
  store : Cow.t;
  (* target tables (BTB 2-way over sets, uBTB, ITTAGE-lite): 16 bytes
     per entry, the tag word then the target word *)
  btb : int;
  btb_sets : int;
  ubtb : int;
  ubtb_size : int;
  (* TAGE: bimodal 2-bit counters, then 4 tagged tables of 24-byte
     entries (tag, signed ctr -4..3 with >= 0 predicting taken,
     useful) *)
  bimodal : int;
  bimodal_size : int;
  tage : int;
  tage_size : int;
  hist_lens : int array;
  mutable ghist : int64; (* global history, newest bit at LSB *)
  (* RAS *)
  ras : int64 array;
  mutable ras_top : int;
  ras_size : int;
  mutable ras_depth : int; (* live entries, saturating at ras_size *)
  ittage : int;
  ittage_size : int;
  use_ittage : bool;
  (* PUBS confidence: per-pc run counters *)
  conf : int;
  conf_size : int;
  (* stats *)
  mutable lookups : int;
  mutable cond_branches : int;
  mutable mispredicts : int;
  (* per-component mispredict attribution *)
  mutable misp_branch : int;
  mutable misp_jal : int;
  mutable misp_jalr : int;
  mutable misp_ret : int;
  (* direction-predictor provider accounting *)
  mutable tage_provided : int;
  mutable bimodal_provided : int;
  (* RAS traffic *)
  mutable ras_pushes : int;
  mutable ras_pops : int;
  mutable ras_overflows : int;
  mutable ras_underflows : int;
}

let create (cfg : Config.t) : t =
  let btb_sets = max 16 (cfg.btb_entries / 2) in
  let tage_size = max 64 cfg.tage_entries in
  let ittage_size = max 16 (cfg.btb_entries / 4) in
  let bimodal_size = 4096 and conf_size = 1024 in
  let btb = 0 in
  let ubtb = btb + (btb_sets * 2 * 16) in
  let ittage = ubtb + (cfg.ubtb_entries * 16) in
  let bimodal = ittage + (ittage_size * 16) in
  let tage = bimodal + (bimodal_size * 8) in
  let conf = tage + (4 * tage_size * 24) in
  {
    store = Cow.create ~size:(conf + (conf_size * 8));
    btb;
    btb_sets;
    ubtb;
    ubtb_size = cfg.ubtb_entries;
    bimodal;
    bimodal_size;
    tage;
    tage_size;
    hist_lens = [| 8; 16; 32; 60 |];
    ghist = 0L;
    ras = Array.make cfg.ras_size 0L;
    ras_top = 0;
    ras_size = cfg.ras_size;
    ras_depth = 0;
    ittage;
    ittage_size;
    use_ittage = cfg.ittage;
    conf;
    conf_size;
    lookups = 0;
    cond_branches = 0;
    mispredicts = 0;
    misp_branch = 0;
    misp_jal = 0;
    misp_jalr = 0;
    misp_ret = 0;
    tage_provided = 0;
    bimodal_provided = 0;
    ras_pushes = 0;
    ras_pops = 0;
    ras_overflows = 0;
    ras_underflows = 0;
  }

(* Target-table entry [i] of the table at [base]. *)
let entry base i = base + (i lsl 4)
let tag_is t e pc = Int64.equal (Cow.get_int64 t.store e) (Int64.succ pc)
let is_free t e = Int64.equal (Cow.get_int64 t.store e) 0L
let target t e = Cow.get_int64 t.store (e + 8)
let set_target t e v = Cow.set_int64 t.store (e + 8) v

let set_entry t e ~tag ~target =
  Cow.set_int64 t.store e (Int64.succ tag);
  set_target t e target

(* Copy entry [src] over entry [dst]. *)
let move_entry t ~src ~dst =
  Cow.set_int64 t.store dst (Cow.get_int64 t.store src);
  set_target t dst (target t src)

(* TAGE entry fields. *)
let tage_entry t table i = t.tage + (((table * t.tage_size) + i) * 24)
let t_tag t e = Cow.get_int t.store e - 1
let t_ctr t e = Cow.get_int t.store (e + 8)
let t_useful t e = Cow.get_int t.store (e + 16)
let set_t_tag t e v = Cow.set_int t.store e (v + 1)
let set_t_ctr t e v = Cow.set_int t.store (e + 8) v
let set_t_useful t e v = Cow.set_int t.store (e + 16) v

let bimodal_ctr t i = Cow.get_int t.store (t.bimodal + (i lsl 3)) + 1
let set_bimodal_ctr t i v = Cow.set_int t.store (t.bimodal + (i lsl 3)) (v - 1)
let conf_run t i = Cow.get_int t.store (t.conf + (i lsl 3))
let set_conf_run t i v = Cow.set_int t.store (t.conf + (i lsl 3)) v

let pc_bits pc = Int64.to_int (Int64.shift_right_logical pc 2)

let hist_fold t len =
  (* fold [len] bits of global history into 12 bits *)
  let h = Int64.to_int (Int64.logand t.ghist (Int64.sub (Int64.shift_left 1L (min len 62)) 1L)) in
  (h lxor (h lsr 12) lxor (h lsr 24) lxor (h lsr 36) lxor (h lsr 48)) land 0xFFF

let tage_index t table pc =
  (pc_bits pc lxor hist_fold t t.hist_lens.(table) lxor (table * 0x9E37))
  land (t.tage_size - 1)

let tage_tag t table pc =
  (pc_bits pc lxor (hist_fold t t.hist_lens.(table) * 3) lxor (table * 0x61C))
  land 0xFF

(* Direction prediction with provider selection: longest matching
   tagged table wins, else the bimodal base predictor. *)
let predict_direction t pc : bool * int =
  let provider = ref (-1) in
  let pred = ref (bimodal_ctr t (pc_bits pc land (t.bimodal_size - 1)) >= 2) in
  for table = 0 to 3 do
    let e = tage_entry t table (tage_index t table pc) in
    if t_tag t e = tage_tag t table pc then begin
      provider := table;
      pred := t_ctr t e >= 0
    end
  done;
  (!pred, !provider)

let btb_lookup t pc : int64 option =
  (* micro-BTB first *)
  let u = entry t.ubtb (pc_bits pc land (t.ubtb_size - 1)) in
  if tag_is t u pc then Some (target t u)
  else
    let set = pc_bits pc land (t.btb_sets - 1) in
    let e0 = entry t.btb (set * 2) and e1 = entry t.btb ((set * 2) + 1) in
    if tag_is t e0 pc then Some (target t e0)
    else if tag_is t e1 pc then Some (target t e1)
    else None

let btb_update t pc tg =
  set_entry t
    (entry t.ubtb (pc_bits pc land (t.ubtb_size - 1)))
    ~tag:pc ~target:tg;
  let set = pc_bits pc land (t.btb_sets - 1) in
  let e0 = entry t.btb (set * 2) and e1 = entry t.btb ((set * 2) + 1) in
  if tag_is t e0 pc then set_target t e0 tg
  else if tag_is t e1 pc then set_target t e1 tg
  else if is_free t e0 then set_entry t e0 ~tag:pc ~target:tg
  else begin
    move_entry t ~src:e0 ~dst:e1;
    set_entry t e0 ~tag:pc ~target:tg
  end

(* The stack is circular and never refuses a push: on overflow the
   oldest return address is silently overwritten (counted), and a pop
   of an empty stack returns whatever is in the slot (counted).  The
   counters are observation only -- behaviour is unchanged. *)
let ras_push t v =
  t.ras_pushes <- t.ras_pushes + 1;
  if t.ras_depth >= t.ras_size then t.ras_overflows <- t.ras_overflows + 1
  else t.ras_depth <- t.ras_depth + 1;
  t.ras.(t.ras_top) <- v;
  t.ras_top <- (t.ras_top + 1) mod t.ras_size

let ras_pop t =
  t.ras_pops <- t.ras_pops + 1;
  if t.ras_depth = 0 then t.ras_underflows <- t.ras_underflows + 1
  else t.ras_depth <- t.ras_depth - 1;
  t.ras_top <- (t.ras_top + t.ras_size - 1) mod t.ras_size;
  t.ras.(t.ras_top)

let is_call (insn : Riscv.Insn.t) =
  match insn with
  | Jal (1, _) | Jalr (1, _, _) -> true
  | _ -> false

let is_ret (insn : Riscv.Insn.t) =
  match insn with Jalr (0, 1, 0L) -> true | _ -> false

type prediction = { taken : bool; target : int64 }

(* Predict the outcome of [insn] at [pc].  The IFU calls this for every
   fetched control-flow instruction. *)
let predict (t : t) ~(pc : int64) ~(insn : Riscv.Insn.t) : prediction =
  t.lookups <- t.lookups + 1;
  let next = Int64.add pc 4L in
  match insn with
  | Branch (_, _, _, off) ->
      t.cond_branches <- t.cond_branches + 1;
      let dir, provider = predict_direction t pc in
      if provider >= 0 then t.tage_provided <- t.tage_provided + 1
      else t.bimodal_provided <- t.bimodal_provided + 1;
      {
        taken = dir;
        target = (if dir then Int64.add pc off else next);
      }
  | Jal (rd, off) ->
      if rd = 1 then ras_push t next;
      { taken = true; target = Int64.add pc off }
  | Jalr (rd, rs1, _) ->
      if rd = 1 then begin
        let target =
          match btb_lookup t pc with Some tg -> tg | None -> next
        in
        ras_push t next;
        { taken = true; target }
      end
      else if rs1 = 1 && rd = 0 then { taken = true; target = ras_pop t }
      else begin
        (* other indirect: ITTAGE (path-hashed) or BTB *)
        let target =
          if t.use_ittage then begin
            let idx =
              (pc_bits pc lxor hist_fold t 24) land (t.ittage_size - 1)
            in
            let e = entry t.ittage idx in
            if tag_is t e pc then Some (target t e) else btb_lookup t pc
          end
          else btb_lookup t pc
        in
        { taken = true; target = Option.value target ~default:next }
      end
  | Lui _ | Auipc _ | Load _ | Store _ | Op_imm _ | Op_imm_w _ | Op _
  | Op_w _ | Mul _ | Mul_w _ | Lr _ | Sc _ | Amo _ | Csr _ | Ecall | Ebreak
  | Mret | Sret | Wfi | Fence | Fence_i | Sfence_vma _ | Fld _ | Fsd _
  | Fp_rrr _ | Fp_fused _ | Fp_sign _ | Fp_minmax _ | Fp_cmp _ | Fsqrt_d _
  | Fcvt_d_l _ | Fcvt_d_lu _ | Fcvt_d_w _ | Fcvt_l_d _ | Fcvt_lu_d _
  | Fcvt_w_d _ | Fmv_x_d _ | Fmv_d_x _ | Fclass_d _ | Illegal _ ->
      { taken = false; target = next }

(* Resolve-time update. *)
let update (t : t) ~(pc : int64) ~(insn : Riscv.Insn.t) ~(taken : bool)
    ~(target : int64) ~(mispredicted : bool) =
  if mispredicted then begin
    t.mispredicts <- t.mispredicts + 1;
    match insn with
    | Branch _ -> t.misp_branch <- t.misp_branch + 1
    | Jal _ -> t.misp_jal <- t.misp_jal + 1
    | Jalr _ ->
        if is_ret insn then t.misp_ret <- t.misp_ret + 1
        else t.misp_jalr <- t.misp_jalr + 1
    | _ -> ()
  end;
  (* confidence table for PUBS *)
  let ci = pc_bits pc land (t.conf_size - 1) in
  if mispredicted then set_conf_run t ci 0
  else if conf_run t ci < 64 then set_conf_run t ci (conf_run t ci + 1);
  (match insn with
  | Branch _ ->
      (* bimodal *)
      let bi = pc_bits pc land (t.bimodal_size - 1) in
      let c = bimodal_ctr t bi in
      set_bimodal_ctr t bi (if taken then min 3 (c + 1) else max 0 (c - 1));
      (* tage provider update + allocation on mispredict *)
      let _, provider = predict_direction t pc in
      if provider >= 0 then begin
        let e = tage_entry t provider (tage_index t provider pc) in
        let c = t_ctr t e in
        set_t_ctr t e (if taken then min 3 (c + 1) else max (-4) (c - 1));
        if not mispredicted then set_t_useful t e (min 3 (t_useful t e + 1))
      end;
      if mispredicted then begin
        (* allocate in a longer-history table *)
        let start = provider + 1 in
        (try
           for table = start to 3 do
             let e = tage_entry t table (tage_index t table pc) in
             if t_useful t e = 0 then begin
               set_t_tag t e (tage_tag t table pc);
               set_t_ctr t e (if taken then 0 else -1);
               raise Exit
             end
             else set_t_useful t e (t_useful t e - 1)
           done
         with Exit -> ())
      end;
      (* fold outcome into history *)
      t.ghist <-
        Int64.logor
          (Int64.shift_left t.ghist 1)
          (if taken then 1L else 0L)
  | Jal _ -> ()
  | Jalr _ ->
      if not (is_ret insn) then begin
        btb_update t pc target;
        if t.use_ittage then begin
          let idx = (pc_bits pc lxor hist_fold t 24) land (t.ittage_size - 1) in
          set_entry t (entry t.ittage idx) ~tag:pc ~target
        end
      end
  | Lui _ | Auipc _ | Load _ | Store _ | Op_imm _ | Op_imm_w _ | Op _
  | Op_w _ | Mul _ | Mul_w _ | Lr _ | Sc _ | Amo _ | Csr _ | Ecall | Ebreak
  | Mret | Sret | Wfi | Fence | Fence_i | Sfence_vma _ | Fld _ | Fsd _
  | Fp_rrr _ | Fp_fused _ | Fp_sign _ | Fp_minmax _ | Fp_cmp _ | Fsqrt_d _
  | Fcvt_d_l _ | Fcvt_d_lu _ | Fcvt_d_w _ | Fcvt_l_d _ | Fcvt_lu_d _
  | Fcvt_w_d _ | Fmv_x_d _ | Fmv_d_x _ | Fclass_d _ | Illegal _ ->
      ());
  (match insn with
  | Branch _ -> ()
  | _ when taken -> btb_update t pc target
  | _ -> ())

(* Fault injection: flip an address bit in every valid predicted
   target (BTB, micro-BTB, ITTAGE).  Harmless on its own -- branch
   resolution redirects -- so campaign faults pair it with the core's
   redirect-suppression knob to turn wrong predictions into wrong-path
   commits.  Returns the number of entries corrupted. *)
let corrupt_targets (t : t) : int =
  let n = ref 0 in
  let corrupt base size =
    for i = 0 to size - 1 do
      let e = entry base i in
      if not (is_free t e) then begin
        set_target t e (Int64.logxor (target t e) 8L);
        incr n
      end
    done
  in
  corrupt t.btb (t.btb_sets * 2);
  corrupt t.ubtb t.ubtb_size;
  corrupt t.ittage t.ittage_size;
  !n

(* Low-confidence query for PUBS: a branch is unconfident until it has
   a run of >= 4 correct predictions (paper: ~5.9% of instructions end
   up high-priority on sjeng). *)
let unconfident (t : t) ~pc = conf_run t (pc_bits pc land (t.conf_size - 1)) < 4

let mpki t ~instructions =
  if instructions = 0 then 0.0
  else 1000.0 *. float_of_int t.mispredicts /. float_of_int instructions
