(* "Put it all together" (§III-E, §IV-C): the MINJIE verification
   workflow.

   A DUT runs in fast mode under DiffTest with LightSSS taking
   periodic snapshots.  When DiffTest reports a mismatch, the older of
   the two retained snapshots is restored and the last <= 2N cycles
   are replayed with debugging enabled -- ArchDB capturing every
   commit, store drain and coherence transaction -- and the report
   localises the bug (for the §IV-C case study: the Acquire/Probe
   overlap on the corrupted block). *)

type debug_report = {
  first_failure : Rule.failure;
  replay_failure : Rule.failure option;
  replay_from_cycle : int;
  replay_cycles : int;
  db : Archdb.t;
  overlaps : Archdb.overlap list; (* §IV-C race signature *)
  drains_near_failure : Xiangshan.Probe.store_drain list;
  snapshots_taken : int;
  snapshot_seconds : float;
  replay_traces : Perf.Pipetrace.t array;
      (* with ~perf:true, per-hart pipeline trace windows around the
         failure, captured during the debug-mode replay *)
}

type outcome =
  | Verified of int (* exit code; no mismatch found *)
  | Debugged of debug_report

let stores_of (dt : Difftest.t) : Riscv.Cow_store.t list =
  Xiangshan.Soc.cow_stores (Difftest.soc dt)
  @ List.concat_map
      (fun (r : Ref_model.t) ->
        List.map
          (fun (m : Riscv.Memory.t) -> m.Riscv.Memory.store)
          (r.Ref_model.memories ()))
      (Array.to_list (Difftest.refs dt))

(* Left out of every image: the Global Memory grows with the stored
   footprint and, like fork-shared pages, is shared with the replayed
   instance instead of being copied; the REFs' derived caches (NEMU's
   uop cache) are rebuilt flushed after restore. *)
let subject_of (dt : Difftest.t) : Difftest.t Lightsss.subject =
  let gm = Difftest.global_mem dt in
  let refs = Array.to_list (Difftest.refs dt) in
  let stash = ref None in
  {
    Lightsss.stores = stores_of dt;
    roots = dt;
    detach_heavy =
      (fun () ->
        let words = gm.Global_memory.words in
        gm.Global_memory.words <- Global_memory.Word_table.create 1;
        let reattach =
          List.map (fun (r : Ref_model.t) -> r.Ref_model.detach_derived ()) refs
        in
        stash := Some (words, reattach));
    reattach_heavy =
      (fun () ->
        match !stash with
        | Some (words, reattach) ->
            gm.Global_memory.words <- words;
            List.iter (fun f -> f ()) reattach;
            stash := None
        | None -> ());
  }

(* Restore a snapshot of [dt], sharing the live Global Memory (a
   superset of its state at snapshot time, which only makes the legal
   set larger in the replayed window). *)
let restore_shared (dt : Difftest.t) (snap : Lightsss.snapshot) : Difftest.t =
  let dt' : Difftest.t = Lightsss.restore_with snap ~stores_of in
  (Difftest.global_mem dt').Global_memory.words <-
    (Difftest.global_mem dt).Global_memory.words;
  Array.iter
    (fun (r : Ref_model.t) -> r.Ref_model.rebuild_derived ())
    (Difftest.refs dt');
  dt'

(* Per-hart counter snapshots merged by name (summed across harts) and
   sorted: the interchange form the fuzzer's coverage map folds.  A
   fresh SoC starts every counter at zero, so the final snapshot IS
   the run's delta. *)
let soc_counters (soc : Xiangshan.Soc.t) : (string * int) list =
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 256 in
  Array.iteri
    (fun i _ ->
      List.iter
        (fun (k, v) ->
          let prev = Option.value (Hashtbl.find_opt tbl k) ~default:0 in
          Hashtbl.replace tbl k (prev + v))
        (Xiangshan.Soc.counter_snapshot soc ~hartid:i))
    soc.Xiangshan.Soc.cores;
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* Run [prog] on a SoC built from [cfg] under DiffTest + LightSSS.
   [inject] can plant a fault after construction (used by the tests
   and the debugging example).  [run_collect] additionally returns the
   DUT's merged final counter snapshot (taken from the original
   instance, not a debug replay). *)
let run_collect ?(snapshot_interval = 2000) ?(max_cycles = 20_000_000)
    ?(inject = fun (_ : Xiangshan.Soc.t) -> ()) ?ref_kind ?(perf = false)
    ~(prog : Riscv.Asm.program) (cfg : Xiangshan.Config.t) :
    outcome * (string * int) list =
  let soc = Xiangshan.Soc.create cfg in
  Xiangshan.Soc.load_program soc prog;
  inject soc;
  (* counters are always on (pure observation); [perf] additionally
     attaches pipeline tracers, which ride inside LightSSS snapshots
     so a debug replay reproduces the trace window around the failure *)
  if perf then ignore (Xiangshan.Soc.attach_tracers soc);
  let dt = Difftest.create ?ref_kind ~prog soc in
  let subject = subject_of dt in
  let mgr = Lightsss.manager ~interval:snapshot_interval subject in
  let start = soc.Xiangshan.Soc.now in
  let running () =
    match Difftest.status dt with
    | Difftest.Running -> soc.Xiangshan.Soc.now - start < max_cycles
    | Difftest.Finished _ | Difftest.Failed _ -> false
  in
  while running () do
    Lightsss.tick mgr ~cycle:soc.Xiangshan.Soc.now;
    Difftest.tick dt
  done;
  let outcome =
    match Difftest.status dt with
  | Difftest.Running | Difftest.Finished _ ->
      Verified
        (match Difftest.status dt with
        | Difftest.Finished c -> c
        | Difftest.Running | Difftest.Failed _ -> -1)
  | Difftest.Failed first_failure -> (
      (* restore the older snapshot and replay in debug mode *)
      match Lightsss.replay_point mgr with
      | None ->
          Debugged
            {
              first_failure;
              replay_failure = None;
              replay_from_cycle = 0;
              replay_cycles = 0;
              db = Archdb.create ();
              overlaps = [];
              drains_near_failure = [];
              snapshots_taken = mgr.Lightsss.snapshots_taken;
              snapshot_seconds = mgr.Lightsss.total_snapshot_seconds;
              replay_traces = [||];
            }
      | Some snap ->
          let dt' : Difftest.t = restore_shared dt snap in
          (* debug mode: ArchDB + debug log on the replayed instance *)
          let db = Archdb.create () in
          Archdb.attach db (Difftest.soc dt');
          Difftest.enable_debug dt';
          let replay_start = (Difftest.soc dt').Xiangshan.Soc.now in
          let budget = (2 * snapshot_interval) + 10_000 in
          let rec go () =
            match Difftest.status dt' with
            | Difftest.Running
              when (Difftest.soc dt').Xiangshan.Soc.now - replay_start < budget
              ->
                Difftest.tick dt';
                go ()
            | Difftest.Running | Difftest.Finished _ | Difftest.Failed _ -> ()
          in
          go ();
          let replay_failure =
            match Difftest.status dt' with
            | Difftest.Failed f -> Some f
            | Difftest.Running | Difftest.Finished _ -> None
          in
          let overlaps = Archdb.acquire_probe_overlaps db ~window:60 in
          let drains_near_failure =
            match replay_failure with
            | Some f when f.Rule.f_pc <> 0L ->
                Archdb.drains_for_line db ~addr:f.Rule.f_pc
            | Some _ | None -> []
          in
          (* persist the replayed instance's final counters; the trace
             windows were restored from the snapshot and replayed to
             the failure *)
          Archdb.record_counters db (Difftest.soc dt');
          let replay_traces =
            if perf then
              Array.map
                (fun (c : Xiangshan.Core.t) ->
                  match c.Xiangshan.Core.tracer with
                  | Some tr -> tr
                  | None -> Perf.Pipetrace.create ~capacity:16 ())
                (Difftest.soc dt').Xiangshan.Soc.cores
            else [||]
          in
          Debugged
            {
              first_failure;
              replay_failure;
              replay_from_cycle = snap.Lightsss.snap_cycle;
              replay_cycles =
                (Difftest.soc dt').Xiangshan.Soc.now - replay_start;
              db;
              overlaps;
              drains_near_failure;
              snapshots_taken = mgr.Lightsss.snapshots_taken;
              snapshot_seconds = mgr.Lightsss.total_snapshot_seconds;
              replay_traces;
            })
  in
  (outcome, soc_counters soc)

let run_verified ?snapshot_interval ?max_cycles ?inject ?ref_kind ?perf
    ~(prog : Riscv.Asm.program) (cfg : Xiangshan.Config.t) : outcome =
  fst
    (run_collect ?snapshot_interval ?max_cycles ?inject ?ref_kind ?perf ~prog
       cfg)
