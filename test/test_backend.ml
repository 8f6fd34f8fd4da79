(* Backend structures in isolation: ROB ordering and squash, rename
   free-list and move-elimination refcounting, issue-queue policies,
   macro-op fusion patterns, and the assembler DSL. *)

open Riscv

module Uop_helpers = struct
  let make ~seq ~pc ~insn =
    Xiangshan.Uop.make ~seq ~pc ~insn ~second:None ~fusion:None
      ~pred_next:(Int64.add pc 4L)
end

let test_rob_order_and_squash () =
  let rob = Xiangshan.Rob.create ~size:8 in
  for s = 0 to 5 do
    Xiangshan.Rob.push rob (Uop_helpers.make ~seq:s ~pc:0x80000000L ~insn:(Insn.Op_imm (ADD, 1, 0, Int64.of_int s)))
  done;
  Alcotest.(check int) "count" 6 (Xiangshan.Rob.count rob);
  (* squash younger than seq 2 *)
  let squashed = Xiangshan.Rob.squash_younger rob ~after:2 in
  Alcotest.(check int) "squashed" 3 (List.length squashed);
  (* youngest first, for rename rollback *)
  Alcotest.(check (list int)) "youngest-first order" [ 5; 4; 3 ]
    (List.map (fun u -> u.Xiangshan.Uop.seq) squashed);
  Alcotest.(check int) "remaining" 3 (Xiangshan.Rob.count rob);
  (match Xiangshan.Rob.peek_head rob with
  | Some u -> Alcotest.(check int) "head" 0 u.Xiangshan.Uop.seq
  | None -> Alcotest.fail "head missing");
  Xiangshan.Rob.pop_head rob;
  match Xiangshan.Rob.peek_head rob with
  | Some u -> Alcotest.(check int) "next head" 1 u.Xiangshan.Uop.seq
  | None -> Alcotest.fail "head missing"

let test_rename_freelist_and_rollback () =
  let cfg = { Xiangshan.Config.yqh with Xiangshan.Config.int_pregs = 40 } in
  let rn = Xiangshan.Rename.create cfg in
  Alcotest.(check int) "initial free" 8
    (Xiangshan.Rename.free_count rn ~is_fp:false);
  let u = Uop_helpers.make ~seq:0 ~pc:0L ~insn:(Insn.Op_imm (ADD, 5, 5, 1L)) in
  let before = Xiangshan.Rename.lookup rn ~is_fp:false 5 in
  let prd, old_prd = Xiangshan.Rename.alloc rn ~is_fp:false ~arch:5 ~now:0 in
  u.Xiangshan.Uop.arch_rd <- 5;
  u.Xiangshan.Uop.prd <- prd;
  u.Xiangshan.Uop.old_prd <- old_prd;
  Alcotest.(check int) "old mapping recorded" before old_prd;
  Alcotest.(check int) "new mapping installed" prd
    (Xiangshan.Rename.lookup rn ~is_fp:false 5);
  (* rollback restores the old mapping and frees the new register *)
  let free_before = Xiangshan.Rename.free_count rn ~is_fp:false in
  Xiangshan.Rename.rollback rn u;
  Alcotest.(check int) "mapping restored" before
    (Xiangshan.Rename.lookup rn ~is_fp:false 5);
  Alcotest.(check int) "register freed" (free_before + 1)
    (Xiangshan.Rename.free_count rn ~is_fp:false)

let test_move_elimination_refcount () =
  let cfg = { Xiangshan.Config.nh_single with Xiangshan.Config.int_pregs = 40 } in
  let rn = Xiangshan.Rename.create cfg in
  (* mv x6, x5: both arch regs map to one physical register *)
  let p5 = Xiangshan.Rename.lookup rn ~is_fp:false 5 in
  let prd, old6 = Xiangshan.Rename.alias rn ~arch_rd:6 ~arch_rs:5 in
  Alcotest.(check int) "aliased" p5 prd;
  Alcotest.(check int) "same mapping" p5 (Xiangshan.Rename.lookup rn ~is_fp:false 6);
  (* releasing one of the two references must not free the register *)
  let free0 = Xiangshan.Rename.free_count rn ~is_fp:false in
  Xiangshan.Rename.commit_release rn ~is_fp:false ~old_prd:prd;
  Alcotest.(check int) "still held by x5" free0
    (Xiangshan.Rename.free_count rn ~is_fp:false);
  Xiangshan.Rename.commit_release rn ~is_fp:false ~old_prd:prd;
  Alcotest.(check int) "freed on last release" (free0 + 1)
    (Xiangshan.Rename.free_count rn ~is_fp:false);
  ignore old6

let test_iq_policies () =
  let iqc =
    {
      Xiangshan.Config.iq_name = "t";
      iq_size = 8;
      iq_issue = 2;
      iq_classes = [ Xiangshan.Config.ALU ];
    }
  in
  let mk seq prio =
    let u = Uop_helpers.make ~seq ~pc:0L ~insn:(Insn.Op_imm (ADD, 1, 1, 1L)) in
    u.Xiangshan.Uop.priority <- prio;
    u
  in
  let select iq =
    ignore (Xiangshan.Iq.select_counted iq ~ready:(fun _ -> true) : int);
    Array.to_list (Array.sub iq.Xiangshan.Iq.chosen 0 iq.Xiangshan.Iq.n_chosen)
  in
  (* AGE: oldest two of the ready set *)
  let iq = Xiangshan.Iq.create iqc ~policy:Xiangshan.Config.Age in
  List.iter (Xiangshan.Iq.insert iq) [ mk 3 false; mk 1 false; mk 2 true ];
  let sel = select iq in
  Alcotest.(check (list int)) "age order" [ 3; 1 ]
    (List.map (fun u -> u.Xiangshan.Uop.seq) sel);
  (* (slots keep insertion order = age order in the pipeline; here we
     inserted out of order on purpose to check it is insertion order) *)
  let iq2 = Xiangshan.Iq.create iqc ~policy:Xiangshan.Config.Pubs in
  List.iter (Xiangshan.Iq.insert iq2) [ mk 1 false; mk 2 false; mk 3 true ];
  let sel2 = select iq2 in
  Alcotest.(check (list int)) "pubs puts priority first" [ 3; 1 ]
    (List.map (fun u -> u.Xiangshan.Uop.seq) sel2)

(* --- model tests: the array-backed structures against list/Queue
   references --------------------------------------------------------- *)

(* The list-based issue queue the array one replaced, kept as the
   reference: same operations, same policy order. *)
module List_iq = struct
  type t = {
    issue : int;
    policy : Xiangshan.Config.issue_policy;
    mutable slots : Xiangshan.Uop.t list; (* age order *)
  }

  open Xiangshan

  let insert t (u : Uop.t) =
    u.Uop.in_iq <- true;
    t.slots <- t.slots @ [ u ]

  let drop_squashed t =
    t.slots <-
      List.filter
        (fun (u : Uop.t) ->
          if u.Uop.squashed then u.Uop.in_iq <- false;
          not u.Uop.squashed)
        t.slots

  let clear t =
    List.iter (fun (u : Uop.t) -> u.Uop.in_iq <- false) t.slots;
    t.slots <- []

  let rec take n = function
    | [] -> []
    | u :: rest -> if n = 0 then [] else u :: take (n - 1) rest

  let select_counted t ~(ready : Uop.t -> bool) =
    let candidates =
      List.filter (fun u -> u.Uop.state = Uop.Waiting && ready u) t.slots
    in
    let ordered =
      match t.policy with
      | Config.Age -> candidates
      | Config.Pubs ->
          let hi, lo = List.partition (fun u -> u.Uop.priority) candidates in
          hi @ lo
    in
    (take t.issue ordered, List.length candidates)

  let remove t (u : Uop.t) =
    u.Uop.in_iq <- false;
    t.slots <- List.filter (fun v -> v.Uop.seq <> u.Uop.seq) t.slots

  let steal_waiting t =
    match List.find_opt (fun u -> u.Uop.state = Uop.Waiting) t.slots with
    | Some u ->
        remove t u;
        Some u
    | None -> None
end

type iq_op =
  | Insert of bool (* PUBS priority *)
  | Remove of int (* index into the uops created so far *)
  | Set_state of int * int
  | Squash of int
  | Drop_squashed
  | Steal
  | Clear
  | Select of int (* readiness salt *)

let show_iq_op = function
  | Insert p -> Printf.sprintf "insert(%b)" p
  | Remove k -> Printf.sprintf "remove(%d)" k
  | Set_state (k, s) -> Printf.sprintf "state(%d,%d)" k s
  | Squash k -> Printf.sprintf "squash(%d)" k
  | Drop_squashed -> "drop_squashed"
  | Steal -> "steal"
  | Clear -> "clear"
  | Select s -> Printf.sprintf "select(%d)" s

let gen_iq_case =
  QCheck2.Gen.(
    triple (int_range 1 8) (int_range 1 3)
      (list_size (int_range 1 80)
         (frequency
            [
              (5, map (fun p -> Insert p) bool);
              (2, map (fun k -> Remove k) (int_range 0 99));
              (3, map2 (fun k s -> Set_state (k, s)) (int_range 0 99) (int_range 0 2));
              (1, map (fun k -> Squash k) (int_range 0 99));
              (1, pure Drop_squashed);
              (1, pure Steal);
              (1, pure Clear);
              (4, map (fun s -> Select s) (int_range 0 1000));
            ])))

(* Run one op sequence on the array IQ and on the list reference, with
   twin uops (same seq, state, priority) so each side keeps its own
   [in_iq]; every selection's picks, their order and the ready count,
   and after every op the occupancy, the queued seqs and each uop's
   [in_iq], must agree. *)
let iq_matches_reference policy (size, issue, ops) =
  let open Xiangshan in
  let iqc =
    { Config.iq_name = "m"; iq_size = size; iq_issue = issue; iq_classes = [ Config.ALU ] }
  in
  let iq = Iq.create iqc ~policy in
  let model = { List_iq.issue; policy; slots = [] } in
  let real = ref [||] and twin = ref [||] in
  let nth k = k mod Array.length !real in
  let mk seq prio =
    let u = Uop_helpers.make ~seq ~pc:0L ~insn:(Insn.Op_imm (ADD, 1, 1, 1L)) in
    u.Uop.priority <- prio;
    u
  in
  let seqs l = List.map (fun (u : Uop.t) -> u.Uop.seq) l in
  let fail fmt = Printf.ksprintf (fun m -> QCheck2.Test.fail_report m) fmt in
  List.for_all
    (fun op ->
      let ok =
        match op with
        | Insert prio ->
            if Iq.is_full iq then true
            else begin
              let seq = Array.length !real in
              let u = mk seq prio and v = mk seq prio in
              real := Array.append !real [| u |];
              twin := Array.append !twin [| v |];
              Iq.insert iq u;
              List_iq.insert model v;
              true
            end
        | (Remove _ | Set_state _ | Squash _) when Array.length !real = 0 -> true
        | Remove k ->
            Iq.remove iq !real.(nth k);
            List_iq.remove model !twin.(nth k);
            true
        | Set_state (k, s) ->
            let st = [| Uop.Waiting; Uop.Issued; Uop.Completed |].(s) in
            !real.(nth k).Uop.state <- st;
            !twin.(nth k).Uop.state <- st;
            true
        | Squash k ->
            !real.(nth k).Uop.squashed <- true;
            !twin.(nth k).Uop.squashed <- true;
            true
        | Drop_squashed ->
            Iq.drop_squashed iq;
            List_iq.drop_squashed model;
            true
        | Steal -> (
            match (Iq.steal_waiting iq, List_iq.steal_waiting model) with
            | None, None -> true
            | Some u, Some v when u.Uop.seq = v.Uop.seq -> true
            | _ -> fail "steal_waiting disagrees")
        | Clear ->
            Iq.clear iq;
            List_iq.clear model;
            true
        | Select salt ->
            let ready (u : Uop.t) = ((u.Uop.seq * 7919) + salt) land 3 <> 0 in
            let n = Iq.select_counted iq ~ready in
            let picks = Array.to_list (Array.sub iq.Iq.chosen 0 iq.Iq.n_chosen) in
            let mpicks, mn = List_iq.select_counted model ~ready in
            if n <> mn then fail "ready count %d vs %d" n mn
            else if seqs picks <> seqs mpicks then
              fail "picks [%s] vs [%s]"
                (String.concat ";" (List.map string_of_int (seqs picks)))
                (String.concat ";" (List.map string_of_int (seqs mpicks)))
            else true
      in
      let queued = Array.to_list (Array.sub iq.Iq.slots 0 iq.Iq.n) in
      ok
      && (Iq.occupancy iq = List.length model.List_iq.slots
         || fail "%s: occupancy %d vs %d" (show_iq_op op) (Iq.occupancy iq)
              (List.length model.List_iq.slots))
      && (seqs queued = seqs model.List_iq.slots
         || fail "%s: queued seqs differ" (show_iq_op op))
      && Array.for_all2
           (fun (u : Uop.t) (v : Uop.t) -> u.Uop.in_iq = v.Uop.in_iq)
           !real !twin
      || fail "%s: in_iq differs" (show_iq_op op))
    ops

let prop_iq_model policy name =
  QCheck2.Test.make ~count:400
    ~name:(Printf.sprintf "iq: array queue matches the list reference (%s)" name)
    ~print:(fun (size, issue, ops) ->
      Printf.sprintf "size %d issue %d: %s" size issue
        (String.concat " " (List.map show_iq_op ops)))
    gen_iq_case (iq_matches_reference policy)

(* The fetch ring against Stdlib.Queue, with a small capacity so the
   sequences wrap around many times. *)
type ring_op = Push of int | Pop | Ring_clear

let prop_ring_model =
  QCheck2.Test.make ~count:400 ~name:"ring: matches Queue across wrap-around"
    ~print:(fun (cap, ops) ->
      Printf.sprintf "capacity %d: %s" cap
        (String.concat " "
           (List.map
              (function
                | Push x -> Printf.sprintf "push %d" x
                | Pop -> "pop"
                | Ring_clear -> "clear")
              ops)))
    QCheck2.Gen.(
      pair (int_range 1 6)
        (list_size (int_range 1 120)
           (frequency
              [
                (5, map (fun x -> Push x) (int_range 0 1000));
                (4, pure Pop);
                (1, pure Ring_clear);
              ])))
    (fun (cap, ops) ->
      let open Xiangshan in
      let r = Ring.create ~capacity:cap (-1) and q = Queue.create () in
      List.for_all
        (fun op ->
          (match op with
          | Push x ->
              if Queue.length q < cap then begin
                Ring.push r x;
                Queue.add x q
              end
              else if
                match Ring.push r x with
                | () -> true
                | exception Invalid_argument _ -> false
              then QCheck2.Test.fail_report "push into a full ring"
          | Pop -> (
              match Queue.take_opt q with
              | Some x ->
                  if Ring.pop r <> x then QCheck2.Test.fail_report "pop order"
              | None -> (
                  match Ring.pop r with
                  | _ -> QCheck2.Test.fail_report "pop from an empty ring"
                  | exception Invalid_argument _ -> ()))
          | Ring_clear ->
              Ring.clear r;
              Queue.clear q);
          Ring.length r = Queue.length q
          && Ring.is_empty r = Queue.is_empty q
          && List.of_seq (Queue.to_seq q)
             = List.init (Ring.length r) (fun i -> Ring.get r i))
        ops)

let test_fusion_patterns () =
  let f = Xiangshan.Fusion.try_fuse in
  (* lui+addi *)
  (match f (Insn.Lui (5, 0x12345000L)) (Insn.Op_imm (ADD, 5, 5, 0x67AL)) with
  | Some (Xiangshan.Uop.Fused_lui_addi c) ->
      Alcotest.(check int64) "constant" 0x1234567AL c
  | _ -> Alcotest.fail "lui+addi must fuse");
  (* lui+addiw (the 32-bit li idiom) *)
  (match f (Insn.Lui (5, 0x80000000L)) (Insn.Op_imm_w (ADDW, 5, 5, -1L)) with
  | Some (Xiangshan.Uop.Fused_lui_addi c) ->
      Alcotest.(check int64) "sext32 constant" 0x7FFFFFFFL c
  | _ -> Alcotest.fail "lui+addiw must fuse");
  (* zext.w *)
  (match f (Insn.Op_imm (SLL, 7, 3, 32L)) (Insn.Op_imm (SRL, 7, 7, 32L)) with
  | Some Xiangshan.Uop.Fused_zext_w -> ()
  | _ -> Alcotest.fail "slli+srli must fuse to zext.w");
  (* shNadd *)
  (match f (Insn.Op_imm (SLL, 7, 3, 3L)) (Insn.Op (ADD, 7, 7, 9)) with
  | Some (Xiangshan.Uop.Fused_sh_add 3) -> ()
  | _ -> Alcotest.fail "slli+add must fuse to sh3add");
  (* must NOT fuse when the intermediate register escapes *)
  (match f (Insn.Lui (5, 0x1000L)) (Insn.Op_imm (ADD, 6, 5, 1L)) with
  | None -> ()
  | Some _ -> Alcotest.fail "different rd must not fuse");
  match f (Insn.Op_imm (SLL, 7, 3, 4L)) (Insn.Op (ADD, 7, 7, 9)) with
  | None -> ()
  | Some _ -> Alcotest.fail "shift of 4 is not a shNadd"

(* --- assembler DSL ------------------------------------------------------ *)

let run_items items =
  let prog = Asm.assemble items in
  let m = Iss.Interp.create ~hartid:0 () in
  Iss.Interp.load_program m prog;
  let _ = Iss.Interp.run ~max_insns:10_000 m in
  m

let li_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"asm: li materialises any constant"
    QCheck2.Gen.(
      oneof
        [
          map Int64.of_int int;
          map Int64.of_int (int_range (-5000) 5000);
          oneofl [ 0L; -1L; Int64.min_int; Int64.max_int; 0x8000_0000L ];
        ])
    (fun v ->
      let m =
        run_items
          Asm.(
            [ li a0 v ]
            @ [
                i (Insn.Op_imm (AND, a0, a0, -1L));
                label "h";
                j "h";
              ])
      in
      (* the ISS stops on the instruction budget in the halt loop *)
      Arch_state.get_reg m.Iss.Interp.st Asm.a0 = v)

let test_asm_errors () =
  (* branch out of range *)
  (try
     let items =
       Asm.label "a"
       :: List.init 2000 (fun _ -> Asm.i (Insn.Op_imm (ADD, 0, 0, 0L)))
       @ [ Asm.beq 0 0 "a" ]
     in
     ignore (Asm.assemble items);
     Alcotest.fail "branch out of range must be rejected"
   with Asm.Asm_error _ -> ());
  (* undefined label *)
  (try
     ignore (Asm.assemble [ Asm.j "nowhere" ]);
     Alcotest.fail "undefined label must be rejected"
   with Asm.Asm_error _ -> ());
  (* duplicate label *)
  try
    ignore (Asm.assemble [ Asm.label "x"; Asm.label "x" ]);
    Alcotest.fail "duplicate label must be rejected"
  with Asm.Asm_error _ -> ()

let test_asm_la () =
  let m =
    run_items
      Asm.(
        [
          la a0 "data";
          i (Insn.Load (LD, a1, a0, 0L));
          label "h";
          j "h";
          label "data";
          dword 0xFEEDFACECAFEBEEFL;
        ])
  in
  Alcotest.(check int64) "la + ld" 0xFEEDFACECAFEBEEFL
    (Arch_state.get_reg m.Iss.Interp.st Asm.a1)

let tests =
  [
    Alcotest.test_case "ROB order and squash" `Quick test_rob_order_and_squash;
    Alcotest.test_case "rename free list and rollback" `Quick
      test_rename_freelist_and_rollback;
    Alcotest.test_case "move-elimination refcounting" `Quick
      test_move_elimination_refcount;
    Alcotest.test_case "issue-queue AGE and PUBS policies" `Quick
      test_iq_policies;
    Alcotest.test_case "macro-op fusion patterns" `Quick test_fusion_patterns;
    Alcotest.test_case "assembler error reporting" `Quick test_asm_errors;
    Alcotest.test_case "assembler la/data" `Quick test_asm_la;
    QCheck_alcotest.to_alcotest (prop_iq_model Xiangshan.Config.Age "age");
    QCheck_alcotest.to_alcotest (prop_iq_model Xiangshan.Config.Pubs "pubs");
    QCheck_alcotest.to_alcotest prop_ring_model;
    QCheck_alcotest.to_alcotest li_roundtrip;
  ]
