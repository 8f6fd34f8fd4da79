(* REF conformance: the two Ref_model backends (the ISS interpreter
   and the NEMU block-compiled non-autonomous core) must be
   observationally identical -- same commit stream stepped standalone,
   same response to the DRAV control plane, same verdicts and
   rule-fire counts under DiffTest, and interchangeable in the
   fault-injection workflow. *)

open Riscv

let both = [ Minjie.Ref_model.Iss; Minjie.Ref_model.Nemu ]

let make kind prog = Minjie.Ref_model.create ~kind ~hartid:0 ~prog ()

let show_commit (c : Minjie.Ref_model.commit) =
  Printf.sprintf "pc=0x%Lx next=0x%Lx insn=%s trap=%s load=%s store=%s" c.pc
    c.next_pc (Insn.show c.insn)
    (match c.trap with
    | Some t -> Trap.show_exc t.Minjie.Ref_model.exc
    | None -> "-")
    (match c.load with
    | Some a -> Printf.sprintf "0x%Lx=0x%Lx" a.paddr a.value
    | None -> "-")
    (match c.store with
    | Some a -> Printf.sprintf "0x%Lx=0x%Lx" a.paddr a.value
    | None -> "-")

(* Step both REFs to program exit, requiring every commit record --
   pc, next pc, decoded instruction, traps, memory accesses, CSR
   reads -- to match field for field. *)
let lockstep ?(max_insns = 2_000_000) name prog =
  let a = make Minjie.Ref_model.Iss prog
  and b = make Minjie.Ref_model.Nemu prog in
  let n = ref 0 and running = ref true in
  while !running do
    (match (a.Minjie.Ref_model.step (), b.Minjie.Ref_model.step ()) with
    | Minjie.Ref_model.Exited, Minjie.Ref_model.Exited -> running := false
    | Minjie.Ref_model.Committed ca, Minjie.Ref_model.Committed cb ->
        if ca <> cb then
          Alcotest.failf "%s: commit %d diverges\n  iss:  %s\n  nemu: %s" name
            !n (show_commit ca) (show_commit cb)
    | Minjie.Ref_model.Exited, Minjie.Ref_model.Committed c ->
        Alcotest.failf "%s: iss exited at %d, nemu still commits %s" name !n
          (show_commit c)
    | Minjie.Ref_model.Committed c, Minjie.Ref_model.Exited ->
        Alcotest.failf "%s: nemu exited at %d, iss still commits %s" name !n
          (show_commit c));
    incr n;
    if !n > max_insns then Alcotest.failf "%s: no exit in %d insns" name !n
  done;
  Alcotest.(check (option int))
    (name ^ " exit codes")
    (a.Minjie.Ref_model.exit_code ())
    (b.Minjie.Ref_model.exit_code ());
  for x = 1 to 31 do
    if a.Minjie.Ref_model.get_reg x <> b.Minjie.Ref_model.get_reg x then
      Alcotest.failf "%s: final x%d: iss 0x%Lx nemu 0x%Lx" name x
        (a.Minjie.Ref_model.get_reg x)
        (b.Minjie.Ref_model.get_reg x)
  done

let test_lockstep_fuzz () =
  for seed = 1 to 12 do
    lockstep
      (Printf.sprintf "testgen seed %d" seed)
      (Workloads.Testgen.program ~seed ())
  done

let test_lockstep_workloads () =
  List.iter
    (fun wname ->
      let w = Minjie.Campaign.find_workload wname in
      lockstep wname (w.Workloads.Wl_common.program ~scale:w.small))
    [ "coremark_like"; "mcf_like"; "vm_kernel"; "bwaves_like" ]

(* The control plane must behave identically: patches land in the
   same registers, forced traps redirect both backends to the same
   handler, and the commit streams re-converge afterwards. *)
let test_control_plane () =
  let prog =
    (Minjie.Campaign.find_workload "coremark_like").Workloads.Wl_common.program
      ~scale:1
  in
  let a = make Minjie.Ref_model.Iss prog
  and b = make Minjie.Ref_model.Nemu prog in
  let step_both what =
    match (a.Minjie.Ref_model.step (), b.Minjie.Ref_model.step ()) with
    | Minjie.Ref_model.Committed ca, Minjie.Ref_model.Committed cb ->
        if ca <> cb then
          Alcotest.failf "%s: commits diverge\n  iss:  %s\n  nemu: %s" what
            (show_commit ca) (show_commit cb);
        ca
    | _ -> Alcotest.failf "%s: unexpected exit" what
  in
  for _ = 1 to 50 do
    ignore (step_both "warm-up")
  done;
  (* register patch: visible to both immediately and to the next
     commit (NEMU's compiled routines read registers at call time) *)
  List.iter
    (fun (r : Minjie.Ref_model.t) ->
      r.Minjie.Ref_model.patch_reg 7 0x1234_5678L)
    [ a; b ];
  Alcotest.(check int64) "patched x7 (iss)" 0x1234_5678L
    (a.Minjie.Ref_model.get_reg 7);
  Alcotest.(check int64) "patched x7 (nemu)" 0x1234_5678L
    (b.Minjie.Ref_model.get_reg 7);
  ignore (step_both "after patch_reg");
  (* counter sync *)
  List.iter
    (fun (r : Minjie.Ref_model.t) ->
      r.Minjie.Ref_model.set_mcycle 9999L;
      r.Minjie.Ref_model.set_time 4242L;
      r.Minjie.Ref_model.set_counters ~cycle:10_000L ~instret:777L)
    [ a; b ];
  ignore (step_both "after counter sync");
  (* forced exception: both must trap on the next step, committing
     the same trap record and landing on the same handler pc *)
  List.iter
    (fun (r : Minjie.Ref_model.t) ->
      r.Minjie.Ref_model.force_exception Trap.Load_page_fault 0xdead_0000L)
    [ a; b ];
  let c = step_both "forced page fault" in
  (match c.Minjie.Ref_model.trap with
  | Some t ->
      Alcotest.(check bool)
        "forced trap cause" true
        (Trap.equal_exc t.Minjie.Ref_model.exc Trap.Load_page_fault)
  | None -> Alcotest.fail "forced page fault produced no trap commit");
  (* forced interrupt, with the pending bit mirrored first *)
  List.iter
    (fun (r : Minjie.Ref_model.t) ->
      r.Minjie.Ref_model.set_mip_bit (Trap.irq_code Trap.Mtip) true;
      r.Minjie.Ref_model.force_interrupt Trap.Mtip)
    [ a; b ];
  let c = step_both "forced interrupt" in
  (match c.Minjie.Ref_model.interrupt with
  | Some irq ->
      Alcotest.(check bool) "forced irq" true (Trap.equal_irq irq Trap.Mtip)
  | None -> Alcotest.fail "forced interrupt produced no interrupt commit");
  (* streams stay converged after the control-plane traffic *)
  for _ = 1 to 200 do
    ignore (step_both "post-control-plane")
  done

(* Memory patches must invalidate any NEMU uop block compiled from
   the patched page: patch the next instruction's bytes and require
   the new instruction to be the one committed. *)
let test_patch_mem_code () =
  let prog =
    (Minjie.Campaign.find_workload "coremark_like").Workloads.Wl_common.program
      ~scale:1
  in
  List.iter
    (fun kind ->
      let r = make kind prog in
      let c =
        match r.Minjie.Ref_model.step () with
        | Minjie.Ref_model.Committed c -> c
        | Minjie.Ref_model.Exited -> Alcotest.fail "exited on first step"
      in
      (* overwrite the already-compiled next instruction with
         addi x31, x0, 1  (0x00100f93) *)
      r.Minjie.Ref_model.patch_mem ~paddr:c.Minjie.Ref_model.next_pc ~size:4
        ~value:0x0010_0f93L;
      (match r.Minjie.Ref_model.step () with
      | Minjie.Ref_model.Committed c2 -> (
          match c2.Minjie.Ref_model.insn with
          | Insn.Op_imm (Insn.ADD, 31, 0, 1L) -> ()
          | i ->
              Alcotest.failf "%s REF executed stale code: %s"
                (Minjie.Ref_model.kind_name kind)
                (Insn.show i))
      | Minjie.Ref_model.Exited -> Alcotest.fail "exited after patch");
      Alcotest.(check int64)
        (Minjie.Ref_model.kind_name kind ^ " patched code executed")
        1L
        (r.Minjie.Ref_model.get_reg 31))
    both

(* --- REF-mode jump-site inline caches ---------------------------------

   The NEMU REF links taken jumps block-to-block through per-site
   inline caches (the REF analogue of trace chaining).  The linking
   must be commit-stream invisible, actually exercised on indirect
   calls, disabled cleanly, and safely invalidated by patch_mem
   (generation bump), including for blocks reachable only through an
   inline cache. *)

let test_ref_ic_lockstep () =
  lockstep "indirect calls" Test_engines.indirect_call_program;
  lockstep "self-modifying + fence.i" Test_engines.selfmod_fencei_program

let test_ref_ic_counters () =
  let run mega =
    let r = Nemu.Ref_core.create ~megablocks:mega () in
    Nemu.Ref_core.load_program r Test_engines.indirect_call_program;
    let _ = Nemu.Ref_core.run r in
    Alcotest.(check (option int))
      (Printf.sprintf "exit (ic %b)" mega)
      (Some 120) (Nemu.Ref_core.exit_code r);
    r
  in
  let r = run true in
  Alcotest.(check bool)
    (Printf.sprintf "ic hits %d > misses %d" r.Nemu.Ref_core.ic_hits
       r.Nemu.Ref_core.ic_misses)
    true
    (r.Nemu.Ref_core.ic_hits > r.Nemu.Ref_core.ic_misses);
  let r0 = run false in
  Alcotest.(check int) "ic off: no hits" 0 r0.Nemu.Ref_core.ic_hits

let test_ref_ic_patch_mem () =
  let prog = Test_engines.indirect_call_program in
  let a = make Minjie.Ref_model.Iss prog
  and b = make Minjie.Ref_model.Nemu prog in
  let step_both what =
    match (a.Minjie.Ref_model.step (), b.Minjie.Ref_model.step ()) with
    | Minjie.Ref_model.Committed ca, Minjie.Ref_model.Committed cb ->
        if ca <> cb then
          Alcotest.failf "%s: commits diverge\n  iss:  %s\n  nemu: %s" what
            (show_commit ca) (show_commit cb);
        true
    | Minjie.Ref_model.Exited, Minjie.Ref_model.Exited -> false
    | _ -> Alcotest.failf "%s: one REF exited early" what
  in
  (* enough steps that the call-site inline caches are linked to both
     callees *)
  for _ = 1 to 40 do
    ignore (step_both "warm-up")
  done;
  (* patch f1's first instruction (addi a0,a0,1 -> addi a0,a0,5)
     through the DRAV write path: the NEMU REF must not execute the
     stale linked block *)
  let f1 = Riscv.Asm.label_addr prog "f1" in
  List.iter
    (fun (r : Minjie.Ref_model.t) ->
      r.Minjie.Ref_model.patch_mem ~paddr:f1 ~size:4 ~value:0x0055_0513L)
    [ a; b ];
  while step_both "after patch" do
    ()
  done;
  Alcotest.(check (option int))
    "exit codes agree after patching a linked callee"
    (a.Minjie.Ref_model.exit_code ())
    (b.Minjie.Ref_model.exit_code ())

(* Same DUT, either REF: DiffTest must reach the same verdict with
   the same rule-fire profile and commit count. *)
let difftest_profile kind prog =
  let soc = Xiangshan.Soc.create Xiangshan.Config.yqh in
  Xiangshan.Soc.load_program soc prog;
  let dt = Minjie.Difftest.create ~ref_kind:kind ~prog soc in
  let status = Minjie.Difftest.run ~max_cycles:30_000_000 dt in
  let code =
    match status with
    | Minjie.Difftest.Finished c -> c
    | Minjie.Difftest.Failed f ->
        Alcotest.failf "difftest under %s REF failed: %s (%s)"
          (Minjie.Ref_model.kind_name kind)
          f.Minjie.Rule.f_msg f.Minjie.Rule.f_rule
    | Minjie.Difftest.Running -> Alcotest.fail "difftest timed out"
  in
  (code, Minjie.Difftest.commits_checked dt, Minjie.Difftest.rule_fire_counts dt)

let test_difftest_equivalence () =
  List.iter
    (fun wname ->
      let w = Minjie.Campaign.find_workload wname in
      let prog = w.Workloads.Wl_common.program ~scale:1 in
      let code_i, commits_i, fires_i =
        difftest_profile Minjie.Ref_model.Iss prog
      and code_n, commits_n, fires_n =
        difftest_profile Minjie.Ref_model.Nemu prog
      in
      Alcotest.(check int) (wname ^ " exit code") code_i code_n;
      Alcotest.(check int) (wname ^ " commits checked") commits_i commits_n;
      Alcotest.(check (list (pair string int)))
        (wname ^ " rule fires") fires_i fires_n)
    [ "coremark_like"; "vm_kernel" ]

(* The campaign smoke subset must detect every fault with the
   expected rule under either REF backend. *)
let test_campaign_smoke_both_refs () =
  List.iter
    (fun fname ->
      let fault = Minjie.Fault.find fname in
      List.iter
        (fun kind ->
          let cell = Minjie.Campaign.run_cell ~ref_kind:kind ~fault ~seed:1 () in
          if not cell.Minjie.Campaign.c_ok then
            Alcotest.failf "%s under %s REF: %s" fname
              (Minjie.Ref_model.kind_name kind)
              (Minjie.Campaign.string_of_cell cell))
        both)
    [ "csr-mtvec-corrupt"; "rob-commit-reorder"; "lsu-sb-drop" ]

(* The DiffTest compare: perturb one compared field of a DUT state at a
   time.  The ISS REF ([Arch_state.diff]) and the NEMU REF
   ([Ref_core.diff_against]) must both name exactly that field first,
   in byte-identical messages; x0 and the timing-dependent counters
   must not fire.  The CSR perturbations below are written against the
   record fields, independently of [Csr.compared], so a table entry
   reading the wrong field fails here. *)
let csr_perturbations : (string * (Csr.t -> unit)) list =
  let flip get set c = set c (Int64.logxor (get c) 0x10L) in
  [
    ("priv", fun c -> c.Csr.priv <- (if c.Csr.priv = Csr.M then Csr.S else Csr.M));
    ("mstatus", flip (fun c -> c.Csr.reg_mstatus) (fun c v -> c.Csr.reg_mstatus <- v));
    ("mepc", flip (fun c -> c.Csr.reg_mepc) (fun c v -> c.Csr.reg_mepc <- v));
    ("mcause", flip (fun c -> c.Csr.reg_mcause) (fun c v -> c.Csr.reg_mcause <- v));
    ("mtval", flip (fun c -> c.Csr.reg_mtval) (fun c v -> c.Csr.reg_mtval <- v));
    ("mtvec", flip (fun c -> c.Csr.reg_mtvec) (fun c v -> c.Csr.reg_mtvec <- v));
    ("mscratch", flip (fun c -> c.Csr.reg_mscratch) (fun c v -> c.Csr.reg_mscratch <- v));
    ("medeleg", flip (fun c -> c.Csr.reg_medeleg) (fun c v -> c.Csr.reg_medeleg <- v));
    ("mideleg", flip (fun c -> c.Csr.reg_mideleg) (fun c v -> c.Csr.reg_mideleg <- v));
    ("mie", flip (fun c -> c.Csr.reg_mie) (fun c v -> c.Csr.reg_mie <- v));
    ("sepc", flip (fun c -> c.Csr.reg_sepc) (fun c v -> c.Csr.reg_sepc <- v));
    ("scause", flip (fun c -> c.Csr.reg_scause) (fun c v -> c.Csr.reg_scause <- v));
    ("stval", flip (fun c -> c.Csr.reg_stval) (fun c v -> c.Csr.reg_stval <- v));
    ("stvec", flip (fun c -> c.Csr.reg_stvec) (fun c v -> c.Csr.reg_stvec <- v));
    ("sscratch", flip (fun c -> c.Csr.reg_sscratch) (fun c v -> c.Csr.reg_sscratch <- v));
    ("satp", flip (fun c -> c.Csr.reg_satp) (fun c v -> c.Csr.reg_satp <- v));
  ]

let test_compare_field_coverage () =
  let prog =
    (Minjie.Campaign.find_workload "bwaves_like").Workloads.Wl_common.program
      ~scale:1
  in
  let iss = Iss.Interp.create ~autonomous:false ~hartid:0 () in
  Iss.Interp.load_program iss prog;
  let nemu = Nemu.Ref_core.create ~hartid:0 () in
  Nemu.Ref_core.load_program nemu prog;
  for _ = 1 to 3000 do
    ignore (Iss.Interp.step iss);
    ignore (Nemu.Ref_core.step nemu)
  done;
  let iss_ref = Minjie.Ref_model.of_iss iss
  and nemu_ref = Minjie.Ref_model.of_nemu nemu in
  let reports dut =
    ( Arch_state.first_diff dut iss.Iss.Interp.st,
      Nemu.Ref_core.first_diff nemu dut,
      iss_ref.Minjie.Ref_model.diff_against dut,
      nemu_ref.Minjie.Ref_model.diff_against dut )
  in
  let expect_quiet what perturb =
    let dut = Arch_state.copy iss.Iss.Interp.st in
    perturb dut;
    match reports dut with
    | -1, -1, None, None -> ()
    | fi, fn, mi, mn ->
        Alcotest.failf "%s: expected no mismatch, got %d/%d %s / %s" what fi fn
          (Option.value mi ~default:"-")
          (Option.value mn ~default:"-")
  in
  expect_quiet "unperturbed" ignore;
  let expect what field prefix perturb =
    let dut = Arch_state.copy iss.Iss.Interp.st in
    perturb dut;
    let fi, fn, mi, mn = reports dut in
    Alcotest.(check int) (what ^ ": ISS field") field fi;
    Alcotest.(check int) (what ^ ": NEMU field") field fn;
    match (mi, mn) with
    | Some a, Some b ->
        Alcotest.(check string) (what ^ ": identical messages") a b;
        if not (String.starts_with ~prefix a) then
          Alcotest.failf "%s: message %S does not start with %S" what a prefix
    | _ -> Alcotest.failf "%s: a REF reported no mismatch" what
  in
  let flip a i = a.(i) <- Int64.logxor a.(i) 0x10L in
  expect "pc" 0 "pc: " (fun d -> d.Arch_state.pc <- Int64.add d.Arch_state.pc 4L);
  for i = 1 to 31 do
    expect (Printf.sprintf "x%d" i) i (Printf.sprintf "x%d(" i) (fun d ->
        flip d.Arch_state.regs i)
  done;
  for i = 0 to 31 do
    expect (Printf.sprintf "f%d" i) (Arch_state.field_freg i)
      (Printf.sprintf "f%d: " i) (fun d -> flip d.Arch_state.fregs i)
  done;
  Alcotest.(check (list string))
    "compared CSRs, in report order"
    (List.map fst csr_perturbations)
    (Array.to_list (Array.map fst Csr.compared));
  List.iteri
    (fun k (name, perturb) ->
      expect ("csr " ^ name) (Arch_state.field_csr k)
        (Printf.sprintf "csr %s: " name)
        (fun d -> perturb d.Arch_state.csr))
    csr_perturbations;
  Alcotest.(check int) "field count" (Arch_state.field_csr 16) Arch_state.field_count;
  expect_quiet "x0" (fun d -> d.Arch_state.regs.(0) <- 0x5L);
  expect_quiet "mcycle" (fun d ->
      d.Arch_state.csr.Csr.reg_mcycle <- Int64.add d.Arch_state.csr.Csr.reg_mcycle 7L);
  expect_quiet "minstret" (fun d ->
      d.Arch_state.csr.Csr.reg_minstret <-
        Int64.add d.Arch_state.csr.Csr.reg_minstret 7L);
  expect_quiet "mip" (fun d ->
      d.Arch_state.csr.Csr.reg_mip <- Int64.logxor d.Arch_state.csr.Csr.reg_mip 0x80L)

let tests =
  [
    Alcotest.test_case "commit-stream lockstep over fuzz programs" `Slow
      test_lockstep_fuzz;
    Alcotest.test_case "commit-stream lockstep over workloads" `Slow
      test_lockstep_workloads;
    Alcotest.test_case "control-plane parity" `Quick test_control_plane;
    Alcotest.test_case "patch_mem invalidates compiled code" `Quick
      test_patch_mem_code;
    Alcotest.test_case "REF inline caches: lockstep on indirect calls" `Quick
      test_ref_ic_lockstep;
    Alcotest.test_case "REF inline caches: hit counters and clean disable"
      `Quick test_ref_ic_counters;
    Alcotest.test_case "REF inline caches: patch_mem invalidates linked blocks"
      `Quick test_ref_ic_patch_mem;
    Alcotest.test_case "difftest verdicts and rule fires agree" `Slow
      test_difftest_equivalence;
    Alcotest.test_case "campaign smoke subset under both REFs" `Slow
      test_campaign_smoke_both_refs;
    Alcotest.test_case "state compare: every field, both REFs, one message"
      `Quick test_compare_field_coverage;
  ]
