(* LightSSS: snapshot/replay determinism, cost characteristics
   (fork-like vs full-image), and the two-slot manager policy. *)

let make_difftest ?ref_kind prog cfg =
  let soc = Xiangshan.Soc.create cfg in
  Xiangshan.Soc.load_program soc prog;
  Minjie.Difftest.create ?ref_kind ~prog soc

let tick_n dt n =
  for _ = 1 to n do
    Minjie.Difftest.tick dt
  done

(* Everything a replay must reproduce: the cycle count, every hart's
   architectural state and the merged counters. *)
type observed = {
  cycle : int;
  archs : Riscv.Arch_state.t array;
  counters : (string * int) list;
}

let observe dt =
  let soc = Minjie.Difftest.soc dt in
  {
    cycle = soc.Xiangshan.Soc.now;
    archs =
      Array.map
        (fun (c : Xiangshan.Core.t) ->
          Riscv.Arch_state.copy c.Xiangshan.Core.arch)
        soc.Xiangshan.Soc.cores;
    counters = Minjie.Workflow.soc_counters soc;
  }

let check_same what (a : observed) (b : observed) =
  Alcotest.(check int) (what ^ ": cycle") a.cycle b.cycle;
  Array.iteri
    (fun i st ->
      match Riscv.Arch_state.diff st b.archs.(i) with
      | None -> ()
      | Some msg -> Alcotest.failf "%s: hart %d diverged: %s" what i msg)
    a.archs;
  Alcotest.(check (list (pair string int)))
    (what ^ ": counters") a.counters b.counters

(* The content of every COW store, ignoring whether an all-zero page is
   allocated. *)
let stores_digest dt =
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          (List.map
             (fun (st : Riscv.Cow_store.t) ->
               let live =
                 Array.sub st.Riscv.Cow_store.live 0 st.Riscv.Cow_store.n_live
               in
               Array.sort compare live;
               String.concat ","
                 (Array.to_list
                    (Array.map
                       (fun idx ->
                         let d = Riscv.Cow_store.read_page st idx in
                         if Bytes.for_all (fun c -> c = '\000') d then ""
                         else
                           Printf.sprintf "%d:%s" idx
                             (Digest.to_hex (Digest.bytes d)))
                       live)))
             (Minjie.Workflow.stores_of dt))))

let test_replay_determinism () =
  (* run to cycle A, snapshot, run to B; restore and re-run: the
     restored instance must reach the same architectural state *)
  let prog = (Workloads.Suite.find "coremark_like").program ~scale:1 in
  let dt = make_difftest prog Xiangshan.Config.yqh in
  let subject = Minjie.Workflow.subject_of dt in
  for _ = 1 to 3000 do
    Minjie.Difftest.tick dt
  done;
  let snap = Lightsss.snapshot subject ~cycle:3000 in
  for _ = 1 to 2000 do
    Minjie.Difftest.tick dt
  done;
  let ref_state =
    Riscv.Arch_state.copy (Minjie.Difftest.soc dt).Xiangshan.Soc.cores.(0).Xiangshan.Core.arch
  in
  (* restore and replay the same 2000 cycles *)
  let dt' = Minjie.Workflow.restore_shared dt snap in
  for _ = 1 to 2000 do
    Minjie.Difftest.tick dt'
  done;
  let replay_state =
    (Minjie.Difftest.soc dt').Xiangshan.Soc.cores.(0).Xiangshan.Core.arch
  in
  (match Riscv.Arch_state.diff ref_state replay_state with
  | None -> ()
  | Some msg -> Alcotest.failf "replay diverged: %s" msg);
  (* the original instance is unaffected by the replay *)
  (match Minjie.Difftest.status dt with
  | Minjie.Difftest.Failed f -> Alcotest.failf "original failed: %s" f.f_msg
  | _ -> ());
  Lightsss.release snap

(* Replay from a snapshot must reproduce the original run exactly over
   the same window, as often as it is restored, and neither side's
   table writes may reach the other: the live run's stores are
   untouched by a replay, and a restored copy starts from the stores as
   they were at snapshot time, not as the live run left them. *)
let replay_exactness ~cfg ~prog ~warm ~window () =
  let dt = make_difftest ~ref_kind:Minjie.Ref_model.Nemu prog cfg in
  let subject = Minjie.Workflow.subject_of dt in
  tick_n dt warm;
  let at_snapshot = stores_digest dt in
  let snap = Lightsss.snapshot subject ~cycle:warm in
  Alcotest.(check string) "snapshotting writes nothing" at_snapshot
    (stores_digest dt);
  tick_n dt window;
  let original = observe dt in
  let live_after = stores_digest dt in
  Alcotest.(check bool) "the window wrote the stores" true
    (live_after <> at_snapshot);
  let replay () =
    let dt' = Minjie.Workflow.restore_shared dt snap in
    Alcotest.(check string) "restored stores are the snapshot's" at_snapshot
      (stores_digest dt');
    tick_n dt' window;
    (match Minjie.Difftest.status dt' with
    | Minjie.Difftest.Failed f -> Alcotest.failf "replay failed: %s" f.f_msg
    | Minjie.Difftest.Running | Minjie.Difftest.Finished _ -> ());
    observe dt'
  in
  let first = replay () in
  check_same "replay vs original" original first;
  Alcotest.(check string) "replay left the live stores alone" live_after
    (stores_digest dt);
  check_same "second restore" first (replay ());
  (* the original instance runs on unaffected *)
  tick_n dt 500;
  (match Minjie.Difftest.status dt with
  | Minjie.Difftest.Failed f -> Alcotest.failf "original failed: %s" f.f_msg
  | Minjie.Difftest.Running | Minjie.Difftest.Finished _ -> ());
  Lightsss.release snap

let test_replay_exact_yqh =
  let mcf = Workloads.Suite.find "mcf_like" in
  replay_exactness ~cfg:Xiangshan.Config.yqh
    ~prog:(mcf.program ~scale:mcf.small)
    ~warm:20_000 ~window:4000

let test_replay_exact_nh =
  let lrsc = Minjie.Campaign.find_workload "smp_lrsc" in
  replay_exactness ~cfg:Xiangshan.Config.nh ~prog:(lrsc.program ~scale:32)
    ~warm:6000 ~window:4000

(* Snapshots are pure observation: taking them every 2000 cycles or
   (effectively) never must give the same outcome and counters. *)
let test_snapshot_purity () =
  let mcf = Workloads.Suite.find "mcf_like" in
  let lrsc = Minjie.Campaign.find_workload "smp_lrsc" in
  List.iter
    (fun (name, cfg, prog, max_cycles) ->
      let run interval =
        Minjie.Workflow.run_collect ~snapshot_interval:interval ~max_cycles
          ~ref_kind:Minjie.Ref_model.Nemu ~prog cfg
      in
      let verdict = function
        | Minjie.Workflow.Verified code, counters -> (code, counters)
        | Minjie.Workflow.Debugged r, _ ->
            Alcotest.failf "%s: unexpected failure: %s" name
              r.first_failure.f_msg
      in
      let code, counters = verdict (run 2000) in
      let code', counters' = verdict (run 1_000_000_000) in
      Alcotest.(check int) (name ^ ": outcome") code' code;
      Alcotest.(check (list (pair string int)))
        (name ^ ": counters") counters' counters)
    [
      ( "mcf_like/YQH",
        Xiangshan.Config.yqh,
        mcf.program ~scale:mcf.small,
        40_000 );
      ("smp_lrsc/NH", Xiangshan.Config.nh, lrsc.program ~scale:32, 20_000);
    ]

let test_restore_store_count_mismatch () =
  let prog = (Workloads.Suite.find "coremark_like").program ~scale:1 in
  let dt = make_difftest prog Xiangshan.Config.yqh in
  tick_n dt 100;
  let snap = Lightsss.snapshot (Minjie.Workflow.subject_of dt) ~cycle:100 in
  let n = List.length (Minjie.Workflow.stores_of dt) in
  (match
     Lightsss.restore_with snap ~stores_of:(fun dt' ->
         List.tl (Minjie.Workflow.stores_of dt'))
   with
  | _ -> Alcotest.fail "a short store enumeration must be rejected"
  | exception Invalid_argument msg ->
      let mentions k =
        List.mem (string_of_int k)
          (String.split_on_char ' ' msg)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%S names %d and %d" msg n (n - 1))
        true
        (mentions n && mentions (n - 1)));
  Lightsss.release snap

let test_snapshot_is_lightweight () =
  (* fork-like: the image excludes the memory pages, so its size is
     O(metadata); the SSS baseline includes them *)
  let prog = (Workloads.Suite.find "mcf_like").program ~scale:1 in
  let dt = make_difftest prog Xiangshan.Config.yqh in
  for _ = 1 to 500_000 do
    Minjie.Difftest.tick dt
  done;
  let subject = Minjie.Workflow.subject_of dt in
  let snap = Lightsss.snapshot subject ~cycle:500_000 in
  let sss_bytes = Lightsss.full_image_snapshot subject in
  Alcotest.(check bool)
    (Printf.sprintf "light image %d << SSS image %d" snap.Lightsss.image_bytes
       sss_bytes)
    true
    (snap.Lightsss.image_bytes * 2 < sss_bytes);
  (* cache lines, predictor and TLB tables are COW-paged, not marshalled *)
  Alcotest.(check bool)
    (Printf.sprintf "light image %d <= 256 KB" snap.Lightsss.image_bytes)
    true
    (snap.Lightsss.image_bytes <= 256 * 1024);
  Lightsss.release snap

let test_two_slot_manager () =
  let prog = (Workloads.Suite.find "coremark_like").program ~scale:1 in
  let dt = make_difftest prog Xiangshan.Config.yqh in
  let subject = Minjie.Workflow.subject_of dt in
  let mgr = Lightsss.manager ~interval:1000 subject in
  for cycle = 1 to 5500 do
    Minjie.Difftest.tick dt;
    Lightsss.tick mgr ~cycle
  done;
  Alcotest.(check int) "snapshots taken" 6 mgr.Lightsss.snapshots_taken;
  (* only two retained; the replay point is the older one *)
  Alcotest.(check int) "slots" 2 (List.length mgr.Lightsss.slots);
  match Lightsss.replay_point mgr with
  | Some s ->
      (* snapshots land at cycles 1, 1001, ..., 5001; the replay point
         is the older of the last two *)
      Alcotest.(check int) "replay at 4001" 4001 s.Lightsss.snap_cycle
  | None -> Alcotest.fail "no replay point"

(* --- edge cases around the two-slot policy --------------------------- *)

let test_replay_point_edges () =
  (* no snapshot yet -> no replay point; a single snapshot -> itself *)
  let prog = (Workloads.Suite.find "coremark_like").program ~scale:1 in
  let dt = make_difftest prog Xiangshan.Config.yqh in
  let subject = Minjie.Workflow.subject_of dt in
  let mgr = Lightsss.manager ~interval:1000 subject in
  Alcotest.(check bool) "no snapshot, no replay point" true
    (Lightsss.replay_point mgr = None);
  Lightsss.tick mgr ~cycle:0;
  Alcotest.(check int) "one snapshot" 1 mgr.Lightsss.snapshots_taken;
  (match Lightsss.replay_point mgr with
  | Some s -> Alcotest.(check int) "single slot is the replay point" 0
      s.Lightsss.snap_cycle
  | None -> Alcotest.fail "single snapshot must be the replay point")

let test_failure_inside_first_interval () =
  (* the skip-probe fault is detected within ~200 cycles; with a huge
     snapshot interval the only snapshot is the one at cycle 0, and
     the workflow must replay from it and still reproduce *)
  let fault = Minjie.Fault.find "cache-skip-probe" in
  let prog = Workloads.Smp.spinlock ~scale:4 in
  match
    Minjie.Workflow.run_verified ~snapshot_interval:100_000 ~prog
      ~inject:(fun soc ->
        fault.Minjie.Fault.f_install ~seed:0
          ~trigger:fault.Minjie.Fault.f_trigger soc)
      Xiangshan.Config.nh
  with
  | Minjie.Workflow.Verified _ -> Alcotest.fail "bug escaped"
  | Minjie.Workflow.Debugged r ->
      Alcotest.(check int) "replay starts at the cycle-0 snapshot" 0
        r.replay_from_cycle;
      (match r.replay_failure with
      | Some f ->
          Alcotest.(check int) "reproduced at the same cycle"
            r.first_failure.f_cycle f.f_cycle
      | None -> Alcotest.fail "failure did not reproduce from cycle 0")

let test_two_replay_archdb_determinism () =
  (* running the same faulty cell twice must produce byte-identical
     diagnoses: same failure, same replay point, same ArchDB volume *)
  let fault = Minjie.Fault.find "cache-mshr-race" in
  let run () =
    match
      Minjie.Workflow.run_verified ~prog:(Workloads.Smp.lrsc_contend ~scale:6)
        ~inject:(fun soc ->
          fault.Minjie.Fault.f_install ~seed:0
            ~trigger:fault.Minjie.Fault.f_trigger soc)
        Xiangshan.Config.nh
    with
    | Minjie.Workflow.Verified _ -> Alcotest.fail "bug escaped"
    | Minjie.Workflow.Debugged r -> r
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same failure cycle" a.Minjie.Workflow.first_failure.f_cycle
    b.Minjie.Workflow.first_failure.f_cycle;
  Alcotest.(check string) "same rule" a.Minjie.Workflow.first_failure.f_rule
    b.Minjie.Workflow.first_failure.f_rule;
  Alcotest.(check int) "same replay point" a.Minjie.Workflow.replay_from_cycle
    b.Minjie.Workflow.replay_from_cycle;
  Alcotest.(check int) "same ArchDB commit volume"
    (Minjie.Archdb.count a.Minjie.Workflow.db.Minjie.Archdb.commits)
    (Minjie.Archdb.count b.Minjie.Workflow.db.Minjie.Archdb.commits);
  Alcotest.(check int) "same ArchDB cache-event volume"
    (Minjie.Archdb.count a.Minjie.Workflow.db.Minjie.Archdb.cache_events)
    (Minjie.Archdb.count b.Minjie.Workflow.db.Minjie.Archdb.cache_events)

let test_workflow_clean () =
  let prog = (Workloads.Suite.find "sjeng_like").program ~scale:1 in
  match Minjie.Workflow.run_verified ~prog Xiangshan.Config.yqh with
  | Minjie.Workflow.Verified code ->
      Alcotest.(check bool) "verified" true (code >= 0)
  | Minjie.Workflow.Debugged r ->
      Alcotest.failf "unexpected failure: %s" r.first_failure.f_msg

let test_workflow_debugs_injected_bug () =
  let fault = Minjie.Fault.find "cache-mshr-race" in
  let prog = Workloads.Smp.lrsc_contend ~scale:6 in
  match
    Minjie.Workflow.run_verified ~prog
      ~inject:(fun soc ->
        fault.Minjie.Fault.f_install ~seed:0
          ~trigger:fault.Minjie.Fault.f_trigger soc)
      Xiangshan.Config.nh
  with
  | Minjie.Workflow.Verified _ -> Alcotest.fail "bug escaped the workflow"
  | Minjie.Workflow.Debugged r ->
      Alcotest.(check bool) "failure reproduced in replay" true
        (r.replay_failure <> None);
      (* replay determinism: the failure reproduces at the exact cycle *)
      (match r.replay_failure with
      | Some f ->
          Alcotest.(check int) "same failure cycle" r.first_failure.f_cycle
            f.f_cycle
      | None -> ());
      (* ArchDB captured the debug-mode region of interest *)
      Alcotest.(check bool) "commits recorded" true
        (Minjie.Archdb.count r.db.Minjie.Archdb.commits > 0);
      Alcotest.(check bool) "cache transactions recorded" true
        (Minjie.Archdb.count r.db.Minjie.Archdb.cache_events > 0);
      (* the §IV-C signature: overlapping Acquire/Probe windows *)
      Alcotest.(check bool) "acquire/probe overlap found" true
        (r.overlaps <> [])

let tests =
  [
    Alcotest.test_case "snapshot/replay determinism" `Slow
      test_replay_determinism;
    Alcotest.test_case "replay is exact (mcf_like/YQH)" `Slow
      test_replay_exact_yqh;
    Alcotest.test_case "replay is exact (smp_lrsc/NH, 2 harts)" `Slow
      test_replay_exact_nh;
    Alcotest.test_case "snapshots do not perturb the run" `Slow
      test_snapshot_purity;
    Alcotest.test_case "restore rejects a store-count mismatch" `Quick
      test_restore_store_count_mismatch;
    Alcotest.test_case "snapshot is fork-like lightweight" `Quick
      test_snapshot_is_lightweight;
    Alcotest.test_case "two-slot manager policy" `Quick test_two_slot_manager;
    Alcotest.test_case "replay-point edge cases" `Quick test_replay_point_edges;
    Alcotest.test_case "failure inside the first interval" `Slow
      test_failure_inside_first_interval;
    Alcotest.test_case "two-replay ArchDB determinism" `Slow
      test_two_replay_archdb_determinism;
    Alcotest.test_case "workflow: clean run verifies" `Slow test_workflow_clean;
    Alcotest.test_case "workflow: debugs the injected L2 bug (§IV-C)" `Slow
      test_workflow_debugs_injected_bug;
  ]
