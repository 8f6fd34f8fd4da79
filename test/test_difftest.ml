(* DiffTest / DRAV: clean verification across configurations (the
   N-to-1 DUT/REF correspondence), the diff-rules on their dedicated
   scenarios, and injected-bug detection. *)

let run_difftest ?(max_cycles = 30_000_000) ?inject cfg prog =
  let soc = Xiangshan.Soc.create cfg in
  Xiangshan.Soc.load_program soc prog;
  (match inject with Some f -> f soc | None -> ());
  let dt = Minjie.Difftest.create ~prog soc in
  (Minjie.Difftest.run ~max_cycles dt, dt)

let check_finished name (status, _) =
  match status with
  | Minjie.Difftest.Finished _ -> ()
  | Minjie.Difftest.Failed f ->
      Alcotest.failf "%s: difftest failed at cycle %d pc=0x%Lx (%s): %s" name
        f.Minjie.Rule.f_cycle f.Minjie.Rule.f_pc f.Minjie.Rule.f_rule
        f.Minjie.Rule.f_msg
  | Minjie.Difftest.Running -> Alcotest.failf "%s: difftest timed out" name

(* One REF + one rule set verifies every DUT configuration: the
   paper's N-to-1 correspondence (Figure 1c). *)
let n_to_1_case cfg =
  Alcotest.test_case
    ("one REF verifies " ^ cfg.Xiangshan.Config.cfg_name)
    `Slow
    (fun () ->
      List.iter
        (fun (w : Workloads.Wl_common.t) ->
          let prog = w.program ~scale:1 in
          check_finished
            (cfg.Xiangshan.Config.cfg_name ^ "/" ^ w.wl_name)
            (run_difftest cfg prog))
        [
          Workloads.Suite.find "coremark_like";
          Workloads.Suite.find "sjeng_like";
          Workloads.Suite.find "bwaves_like";
        ])

let configs_to_verify =
  [
    Xiangshan.Config.yqh;
    Xiangshan.Config.nh_single;
    Xiangshan.Config.nh_fpga_250c_2mb;
    {
      Xiangshan.Config.yqh with
      Xiangshan.Config.cfg_name = "YQH-PUBS";
      issue_policy = Xiangshan.Config.Pubs;
    };
  ]

let test_page_fault_rule () =
  let prog = Workloads.Vm_kernel.program ~scale:2 () in
  let status, dt = run_difftest Xiangshan.Config.yqh prog in
  check_finished "vm_kernel" (status, dt);
  let fires = List.assoc "page-fault-forcing" (Minjie.Difftest.rule_fire_counts dt) in
  Alcotest.(check bool)
    (Printf.sprintf "page-fault rule fired (%d)" fires)
    true (fires > 0)

let test_user_mode_delegation () =
  (* three privilege levels, medeleg'd page faults and U-ecalls,
     S-mode lazy allocation: verified by the same REF and rules *)
  let prog = Workloads.User_mode.program ~scale:2 () in
  let status, dt = run_difftest Xiangshan.Config.yqh prog in
  check_finished "user_mode" (status, dt);
  let fires =
    List.assoc "page-fault-forcing" (Minjie.Difftest.rule_fire_counts dt)
  in
  Alcotest.(check bool) "delegated faults forced" true (fires > 0)

let test_interrupt_and_csr_rules () =
  let prog = Workloads.Timer.program ~scale:2 in
  let status, dt = run_difftest Xiangshan.Config.yqh prog in
  check_finished "timer" (status, dt);
  let fires n = List.assoc n (Minjie.Difftest.rule_fire_counts dt) in
  Alcotest.(check bool) "interrupts forced" true (fires "interrupt-forcing" > 0);
  Alcotest.(check bool) "mmio loads patched" true (fires "mmio-load-trust" > 0)

let test_sc_and_global_memory_rules () =
  let prog = Workloads.Smp.lrsc_contend ~scale:2 in
  let status, dt = run_difftest Xiangshan.Config.nh prog in
  check_finished "smp_lrsc" (status, dt);
  let fires n = List.assoc n (Minjie.Difftest.rule_fire_counts dt) in
  Alcotest.(check bool) "sc failures forced" true
    (fires "sc-failure-forcing" > 0);
  Alcotest.(check bool) "global memory patched" true
    (fires "global-memory-load" > 0)

let test_spinlock_correct_total () =
  let prog = Workloads.Smp.spinlock ~scale:1 in
  let status, _ = run_difftest Xiangshan.Config.nh prog in
  match status with
  | Minjie.Difftest.Finished code ->
      Alcotest.(check int) "2 harts x 50 increments" 100 code
  | _ -> Alcotest.fail "spinlock did not finish"

(* --- injected bugs must be caught ------------------------------------- *)

let test_catches_corrupted_commit () =
  (* flip a committed register value mid-run: the state comparison
     must flag it *)
  let prog = (Workloads.Suite.find "coremark_like").program ~scale:1 in
  let soc = Xiangshan.Soc.create Xiangshan.Config.yqh in
  Xiangshan.Soc.load_program soc prog;
  let dt = Minjie.Difftest.create ~prog soc in
  let corrupted = ref false in
  let status = ref Minjie.Difftest.Running in
  let cycles = ref 0 in
  while
    (match Minjie.Difftest.status dt with
    | Minjie.Difftest.Running -> true
    | s ->
        status := s;
        false)
    && !cycles < 10_000_000
  do
    incr cycles;
    if !cycles = 5000 && not !corrupted then begin
      corrupted := true;
      let arch = soc.Xiangshan.Soc.cores.(0).Xiangshan.Core.arch in
      Riscv.Arch_state.set_reg arch 9
        (Int64.add (Riscv.Arch_state.get_reg arch 9) 1L)
    end;
    Minjie.Difftest.tick dt
  done;
  match Minjie.Difftest.status dt with
  | Minjie.Difftest.Failed f ->
      Alcotest.(check string) "caught by state compare" "state-compare"
        f.Minjie.Rule.f_rule
  | _ -> Alcotest.fail "corruption not caught"

(* Both §IV-C bugs now live in the fault registry; the tests install
   them through the same API the campaign uses, and the accepted-rule
   lists come from the registry entry rather than being duplicated
   here. *)
let run_registry_fault name prog =
  let fault = Minjie.Fault.find name in
  let status, _ =
    run_difftest Xiangshan.Config.nh prog ~inject:(fun soc ->
        fault.Minjie.Fault.f_install ~seed:0 ~trigger:fault.Minjie.Fault.f_trigger
          soc)
  in
  match status with
  | Minjie.Difftest.Failed f ->
      Alcotest.(check bool)
        ("caught by " ^ f.Minjie.Rule.f_rule)
        true
        (List.mem f.Minjie.Rule.f_rule fault.Minjie.Fault.f_expected_rules)
  | Minjie.Difftest.Finished _ -> Alcotest.fail "bug escaped"
  | Minjie.Difftest.Running -> Alcotest.fail "timeout without detection"

let test_catches_l2_race_bug () =
  run_registry_fault "cache-mshr-race" (Workloads.Smp.lrsc_contend ~scale:4)

let test_catches_skip_probe_bug () =
  run_registry_fault "cache-skip-probe" (Workloads.Smp.spinlock ~scale:4)

(* global memory unit behaviour *)
let test_global_memory_history () =
  let g = Minjie.Global_memory.create () in
  Minjie.Global_memory.record g ~cycle:100 ~paddr:0x1000L ~size:8 ~value:1L;
  Minjie.Global_memory.record g ~cycle:200 ~paddr:0x1000L ~size:8 ~value:2L;
  (* current value always legal *)
  Alcotest.(check bool) "current" true
    (Minjie.Global_memory.compatible g ~at:300 ~paddr:0x1000L ~size:8 ~value:2L);
  (* the old value is legal only near its overwrite *)
  Alcotest.(check bool) "old value at overwrite time" true
    (Minjie.Global_memory.compatible g ~at:199 ~paddr:0x1000L ~size:8 ~value:1L);
  Alcotest.(check bool) "stale long after overwrite" false
    (Minjie.Global_memory.compatible g ~at:5000 ~paddr:0x1000L ~size:8 ~value:1L);
  (* a value never stored anywhere: bytes unconstrained -> initial image *)
  Alcotest.(check bool) "untouched address" true
    (Minjie.Global_memory.compatible g ~at:300 ~paddr:0x2000L ~size:8 ~value:99L);
  Alcotest.(check (option int64)) "lookup" (Some 2L)
    (Minjie.Global_memory.lookup g ~paddr:0x1000L ~size:8)

(* The livelock guards, driven through the standard rule list in order
   with synthetic probes.  Each forcing rule counts its own consecutive
   forces per (hart, pc): page-fault-forcing's reset on a non-trapping
   commit must not clear sc-failure-forcing's count, and an SC
   succeeding at that pc does. *)
let test_force_guards_are_per_rule () =
  let prog = (Workloads.Suite.find "coremark_like").program ~scale:1 in
  let probe ?trap ?(sc_failed = false) insn =
    {
      Xiangshan.Probe.p_hartid = 0;
      p_cycle = 100;
      p_pc = 0x8000_0100L;
      p_insn = insn;
      p_second = None;
      p_next_pc = 0x8000_0104L;
      p_trap = trap;
      p_interrupt = None;
      p_load = None;
      p_store = None;
      p_sc_failed = sc_failed;
      p_csr_read = None;
      p_mmio = false;
      p_instret = 0L;
    }
  in
  let sc = Riscv.Insn.Sc (Riscv.Insn.Width_w, 10, 11, 12) in
  let load = Riscv.Insn.Load (Riscv.Insn.LW, 10, 11, 0L) in
  (* a fresh DiffTest context and standard rule list per scenario;
     returns the rule that failed after each probe, if any *)
  let drive probes =
    let soc = Xiangshan.Soc.create Xiangshan.Config.yqh in
    Xiangshan.Soc.load_program soc prog;
    let ctx = Minjie.Difftest.ctx (Minjie.Difftest.create ~prog soc) in
    let rules = Minjie.Rules.standard () in
    List.mapi
      (fun i p ->
        List.iter
          (fun (r : Minjie.Rule.t) ->
            match r.Minjie.Rule.pre with
            | Some f -> ignore (f ctx ~hart:0 p)
            | None -> ())
          rules;
        match ctx.Minjie.Rule.failure with
        | Some f -> Some (i, f.Minjie.Rule.f_rule)
        | None -> None)
      probes
    |> List.find_map Fun.id
  in
  let n = Minjie.Rule.max_consecutive_forces in
  let repeat k p = List.init k (fun _ -> p) in
  let failing_sc = probe ~sc_failed:true sc in
  Alcotest.(check (option (pair int string)))
    "consecutive forced SC failures at one pc trip the SC guard"
    (Some (n, "sc-failure-forcing"))
    (drive (repeat 1000 failing_sc));
  Alcotest.(check (option (pair int string)))
    "an SC succeeding at that pc resets the count" None
    (drive (repeat n failing_sc @ [ probe sc ] @ repeat n failing_sc));
  Alcotest.(check (option (pair int string)))
    "other commits at that pc do not reset the SC count"
    (Some (n + 2, "sc-failure-forcing"))
    (drive
       (repeat n failing_sc @ [ probe load; probe load ] @ repeat n failing_sc));
  Alcotest.(check (option (pair int string)))
    "an SC that traps does not reset the SC count"
    (Some (n + 1, "sc-failure-forcing"))
    (drive
       (repeat n failing_sc
       @ [ probe ~trap:(Riscv.Trap.Store_page_fault, 0x1000L) sc ]
       @ repeat n failing_sc));
  let trapping = probe ~trap:(Riscv.Trap.Load_page_fault, 0x1000L) load in
  Alcotest.(check (option (pair int string)))
    "consecutive forced traps at one pc trip the page-fault guard"
    (Some (n, "page-fault-forcing"))
    (drive (repeat (n + 1) trapping));
  Alcotest.(check (option (pair int string)))
    "a non-trapping commit at that pc resets the page-fault count" None
    (drive (repeat n trapping @ [ probe load ] @ repeat n trapping))

let tests =
  List.map n_to_1_case configs_to_verify
  @ [
      Alcotest.test_case "page-fault diff-rule (Figure 3)" `Slow
        test_page_fault_rule;
      Alcotest.test_case "U/S/M privilege stack with delegation" `Slow
        test_user_mode_delegation;
      Alcotest.test_case "interrupt + CSR diff-rules" `Slow
        test_interrupt_and_csr_rules;
      Alcotest.test_case "SC + Global-Memory diff-rules" `Slow
        test_sc_and_global_memory_rules;
      Alcotest.test_case "SMP spinlock verified total" `Slow
        test_spinlock_correct_total;
      Alcotest.test_case "catches corrupted commit" `Quick
        test_catches_corrupted_commit;
      Alcotest.test_case "catches injected L2 race (§IV-C)" `Slow
        test_catches_l2_race_bug;
      Alcotest.test_case "catches skip-probe coherence bug" `Slow
        test_catches_skip_probe_bug;
      Alcotest.test_case "Global Memory history semantics" `Quick
        test_global_memory_history;
      Alcotest.test_case "livelock guards are per rule" `Quick
        test_force_guards_are_per_rule;
    ]
