(* cosim: the verified fast-mode loop of Workflow.run_collect, rebuilt
   from Difftest.create / Difftest.tick / Lightsss so the traced run can
   time each layer from outside.  NEMU is the REF; LightSSS snapshots
   every 2000 cycles.  Two parts: mcf_like on YQH, then smp_lrsc on NH
   (two harts, so global-memory-load / sc-failure-forcing fire and the
   snapshot image is larger). *)

let interval = 2000

type part = {
  tag : string;  (** "yqh" | "nh": suffix of the per-part metrics *)
  label : string;
  cfg : Xiangshan.Config.t;
  prog : Riscv.Asm.program;
  max_cycles : int;
}

let parts ~slice =
  let mcf = Workloads.Suite.find "mcf_like" in
  let lrsc = Minjie.Campaign.find_workload "smp_lrsc" in
  [
    {
      tag = "yqh";
      label = "mcf_like/YQH";
      cfg = Xiangshan.Config.yqh;
      prog = mcf.program ~scale:mcf.small;
      max_cycles = (if slice then 150_000 else max_int);
    };
    {
      tag = "nh";
      label = "smp_lrsc/NH";
      cfg = Xiangshan.Config.nh;
      prog = lrsc.program ~scale:32;
      max_cycles = (if slice then 30_000 else max_int);
    };
  ]

type run = { dt : Minjie.Difftest.t; mgr : Minjie.Difftest.t Lightsss.manager }

let start p =
  let soc = Xiangshan.Soc.create p.cfg in
  Xiangshan.Soc.load_program soc p.prog;
  let dt = Minjie.Difftest.create ~ref_kind:Minjie.Ref_model.Nemu ~prog:p.prog soc in
  { dt; mgr = Lightsss.manager ~interval (Minjie.Workflow.subject_of dt) }

let cycle r = (Minjie.Difftest.soc r.dt).Xiangshan.Soc.now

let running p r =
  match Minjie.Difftest.status r.dt with
  | Minjie.Difftest.Running -> cycle r < p.max_cycles
  | Minjie.Difftest.Finished _ | Minjie.Difftest.Failed _ -> false

(* Pin every simulated statistic of a finished part; a DiffTest failure
   is a verification mismatch. *)
let check ctx ~slice p r =
  let key = Printf.sprintf "cosim/%s/%s" (if slice then "slice" else "full") p.tag in
  let soc = Minjie.Difftest.soc r.dt in
  let ok =
    match Minjie.Difftest.status r.dt with
    | Minjie.Difftest.Failed f ->
        Ctx.error ctx
          (Printf.sprintf "%s: DiffTest mismatch: %s" p.label
             (Minjie.Rule.string_of_failure f));
        false
    | Minjie.Difftest.Finished c ->
        Ctx.pin_int ctx (key ^ ".exit") c;
        true
    | Minjie.Difftest.Running ->
        Ctx.pin ctx (key ^ ".exit") "running";
        true
  in
  Ctx.attempt ctx ok;
  Ctx.pin_int ctx (key ^ ".cycles") soc.Xiangshan.Soc.now;
  Ctx.pin_int ctx (key ^ ".commits") (Minjie.Difftest.commits_checked r.dt);
  Ctx.pin_int ctx (key ^ ".snapshots") r.mgr.Lightsss.snapshots_taken;
  Ctx.pin ctx (key ^ ".rule_fires")
    (Ctx.alist_string (Minjie.Difftest.rule_fire_counts r.dt));
  Ctx.pin ctx (key ^ ".counters")
    (Ctx.digest [ Ctx.alist_string (Minjie.Workflow.soc_counters soc) ])

(* The fast-mode loop exactly as Workflow.run_collect drives it, up to
   cycle [until]. *)
let advance p r ~until =
  while running p r && cycle r < until do
    Lightsss.tick r.mgr ~cycle:(cycle r);
    Minjie.Difftest.tick r.dt
  done

(* One part, untraced, from instance creation to the end. *)
let run_plain ctx ~slice p =
  let (r, secs) =
    Stat.time (fun () ->
        let r = start p in
        advance p r ~until:max_int;
        r)
  in
  check ctx ~slice p r;
  (cycle r, secs)

type spans = {
  mutable create : float;  (** Soc.create + Difftest.create *)
  mutable lightsss : float;
  mutable snaps : float list;  (** seconds per snapshot call *)
  mutable image_bytes : int list;
  mutable difftest : float;  (** Difftest.tick chunks *)
  mutable soc : float;  (** twin Soc.tick chunks *)
  mutable ref_step : float;  (** standalone Ref_model.step chunks *)
  mutable ref_insns : int;  (** instructions the standalone REFs stepped *)
  mutable cycles : int;
  mutable commits : int;
  mutable split_wall : float;  (** traced loop wall, shadow spans excluded *)
  mutable full_wall : float;  (** traced loop wall, shadow spans included *)
}

let hart_instrs soc =
  Array.mapi
    (fun i _ -> List.assoc "core.instrs" (Xiangshan.Soc.counter_snapshot soc ~hartid:i))
    soc.Xiangshan.Soc.cores

(* Step hart [i]'s standalone REF over [n] instructions, restarting the
   program when it exits, so REF cost is measured for the instruction
   count that hart retired. *)
let step_ref p refs i n =
  let k = ref 0 in
  while !k < n do
    match refs.(i).Minjie.Ref_model.step () with
    | Minjie.Ref_model.Committed _ -> incr k
    | Minjie.Ref_model.Exited ->
        refs.(i) <- Minjie.Ref_model.create ~kind:Minjie.Ref_model.Nemu ~hartid:i ~prog:p.prog ()
  done

(* The traced loop: chunks end where the next snapshot falls due, so
   every snapshot is one timed Lightsss.tick call and each chunk of
   Difftest.tick is one span.  After each chunk a DUT-only twin SoC is
   ticked over the same cycles and one standalone REF per hart steps the
   instructions that hart retired; those shadow spans split the DiffTest
   span into Soc.tick, REF step and DiffTest's own checking.  The split
   is only valid while the twin stays in lockstep with the DUT and the
   shadows fit inside the DiffTest span, so either failing makes the run
   incorrect. *)
let run_traced ctx ~slice p =
  let s =
    {
      create = 0.0;
      lightsss = 0.0;
      snaps = [];
      image_bytes = [];
      difftest = 0.0;
      soc = 0.0;
      ref_step = 0.0;
      ref_insns = 0;
      cycles = 0;
      commits = 0;
      split_wall = 0.0;
      full_wall = 0.0;
    }
  in
  let twin = Xiangshan.Soc.create p.cfg in
  Xiangshan.Soc.load_program twin p.prog;
  let refs =
    Array.init (Array.length twin.Xiangshan.Soc.cores) (fun i ->
        Minjie.Ref_model.create ~kind:Minjie.Ref_model.Nemu ~hartid:i ~prog:p.prog ())
  in
  let t_all = Stat.now () in
  let r = start p in
  s.create <- Stat.now () -. t_all;
  let shadow = ref 0.0 in
  while running p r do
    let c0 = cycle r in
    if c0 - r.mgr.Lightsss.last_snap_cycle >= interval then begin
      let t = Stat.now () in
      Lightsss.tick r.mgr ~cycle:c0;
      let d = Stat.now () -. t in
      s.lightsss <- s.lightsss +. d;
      s.snaps <- d :: s.snaps;
      match r.mgr.Lightsss.slots with
      | snap :: _ -> s.image_bytes <- snap.Lightsss.image_bytes :: s.image_bytes
      | [] -> ()
    end;
    let until = min (r.mgr.Lightsss.last_snap_cycle + interval) p.max_cycles in
    let i0 = hart_instrs (Minjie.Difftest.soc r.dt) in
    let t = Stat.now () in
    advance p r ~until;
    s.difftest <- s.difftest +. (Stat.now () -. t);
    let retired = Array.map2 ( - ) (hart_instrs (Minjie.Difftest.soc r.dt)) i0 in
    let n = cycle r - c0 in
    let t = Stat.now () in
    for _ = 1 to n do
      if not (Xiangshan.Soc.exited twin) then Xiangshan.Soc.tick twin
    done;
    let t1 = Stat.now () in
    s.soc <- s.soc +. (t1 -. t);
    Array.iteri (fun i k -> step_ref p refs i k) retired;
    let t2 = Stat.now () in
    s.ref_step <- s.ref_step +. (t2 -. t1);
    s.ref_insns <- s.ref_insns + Array.fold_left ( + ) 0 retired;
    shadow := !shadow +. (t2 -. t)
  done;
  s.full_wall <- Stat.now () -. t_all;
  s.split_wall <- s.full_wall -. !shadow;
  s.cycles <- cycle r;
  s.commits <- Minjie.Difftest.commits_checked r.dt;
  check ctx ~slice p r;
  let dut = Minjie.Difftest.soc r.dt in
  if twin.Xiangshan.Soc.now <> cycle r
     || Minjie.Workflow.soc_counters twin <> Minjie.Workflow.soc_counters dut
  then
    Ctx.error ctx
      (Printf.sprintf "cosim trace %s: twin SoC left lockstep (cycle %d vs %d)" p.label
         twin.Xiangshan.Soc.now (cycle r));
  let self = s.difftest -. s.soc -. s.ref_step in
  if self < 0.0 then
    Ctx.error ctx
      (Printf.sprintf
         "cosim trace %s: Soc.tick %.4fs + REF %.4fs shadows exceed the DiffTest span %.4fs"
         p.label s.soc s.ref_step s.difftest);
  s

type input = { slice : bool; parts : part list }

let setup ~slice = { slice; parts = parts ~slice }

(* Tolerance on |sum of layer self times - traced wall| / traced wall,
   both without the shadow spans.  The layers cover every span of the
   loop, so this bounds only the time no span covers (loop control and
   clock reads); the split itself is checked by the lockstep and
   non-negative self-time tests in [run_traced]. *)
let sum_tolerance = 0.05

let trace ctx (inp : input) =
  let slice = inp.slice in
  begin
    let traced = List.map (fun p -> (p, run_traced ctx ~slice p)) inp.parts in
    (* same work, untraced, for the overhead figure (run_plain's
       first unit above already warmed every code path) *)
    let plain_wall =
      List.fold_left (fun acc p -> acc +. snd (run_plain ctx ~slice p)) 0.0 inp.parts
    in
    let sum f = List.fold_left (fun acc (_, s) -> acc +. f s) 0.0 traced in
    let split_wall = sum (fun s -> s.split_wall) and full_wall = sum (fun s -> s.full_wall) in
    let l = sum (fun s -> s.lightsss) and d = sum (fun s -> s.difftest) in
    let create = sum (fun s -> s.create) in
    let soc = sum (fun s -> s.soc) and refs = sum (fun s -> s.ref_step) in
    let ref_insns = sum (fun s -> float_of_int s.ref_insns) in
    let cycles = sum (fun s -> float_of_int s.cycles) in
    let commits = sum (fun s -> float_of_int s.commits) in
    let self = d -. soc -. refs in
    let layers = create +. l +. soc +. refs +. self in
    let gap = Float.abs (layers -. split_wall) /. split_wall in
    if gap > sum_tolerance then
      Ctx.error ctx
        (Printf.sprintf "cosim trace: layers sum to %.4fs, traced wall %.4fs (gap %.1f%% > %.0f%%)"
           layers split_wall (100. *. gap) (100. *. sum_tolerance));
    List.iter
      (fun (p, s) ->
        let m name unit v = Ctx.metric ctx (Printf.sprintf "lightsss.%s.%s" name p.tag) unit v in
        m "snapshot_s" "s" s.lightsss;
        m "snapshot_ms_p50" "ms" (1e3 *. Stat.median s.snaps);
        m "image_bytes" "bytes" (Stat.median (List.map float_of_int s.image_bytes));
        m "snapshots" "count" (float_of_int (List.length s.snaps));
        Ctx.detail ctx ("cosim.snapshot_s." ^ p.tag) (Stat.summary_json (Stat.summarize s.snaps));
        Ctx.detail ctx ("cosim.split." ^ p.tag)
          (Stat.Obj
             [
               ("difftest_span_s", Stat.Num s.difftest);
               ("soc_tick_s", Stat.Num s.soc);
               ("ref_step_s", Stat.Num s.ref_step);
               ("difftest_self_s", Stat.Num (s.difftest -. s.soc -. s.ref_step));
             ]))
      traced;
    Ctx.metric ctx "soc.tick_s" "s" soc;
    Ctx.metric ctx "soc.ns_per_cycle" "ns" (1e9 *. soc /. cycles);
    Ctx.metric ctx "difftest.self_s" "s" self;
    Ctx.metric ctx "difftest.ns_per_commit" "ns" (1e9 *. self /. commits);
    Ctx.metric ctx "ref_model.step_s" "s" refs;
    Ctx.metric ctx "ref_model.insns_per_s" "1/s" (ref_insns /. refs);
    Ctx.metric ctx "trace.cosim_wall_s" "s" full_wall;
    Ctx.metric ctx "trace.cosim_sum_gap_frac" "ratio" gap;
    Ctx.metric ctx "trace.cosim_overhead_s" "s" (full_wall -. plain_wall);
    Ctx.detail ctx "cosim.trace"
      (Stat.Obj
         [
           ("traced_wall_s", Stat.Num full_wall);
           ("untraced_wall_s", Stat.Num plain_wall);
           ("split_wall_s", Stat.Num split_wall);
           ("layer_sum_s", Stat.Num layers);
           ("create_s", Stat.Num create);
           ("commits_checked", Stat.Num commits);
           ("ref_insns_stepped", Stat.Num ref_insns);
           ("sum_tolerance", Stat.Num sum_tolerance);
         ])
  end

(* Co-simulated cycles per piece: small enough to spread a unit over
   the run, large enough that reading the clock costs nothing. *)
let chunk = 20_000

(* Nominal cycles per unit, for spacing the pieces only, and nominal
   seconds of a full unit. *)
let nominal_cycles ~slice = if slice then 180_000 else 648_000
let nominal_unit_s = 5.0

let phase ctx (inp : input) ~units =
  let slice = inp.slice in
  let todo = ref (List.concat (List.init units (fun _ -> inp.parts))) in
  let cur = ref None in
  let cycles = ref 0 and secs = ref 0.0 and rates = ref [] in
  let step () =
    (match (!cur, !todo) with
    | None, p :: rest ->
        todo := rest;
        let (r, t) = Stat.time (fun () -> start p) in
        secs := !secs +. t;
        cur := Some (p, r)
    | _ -> ());
    (match !cur with
    | Some (p, r) ->
        let c0 = cycle r in
        let (), t = Stat.time (fun () -> advance p r ~until:(c0 + chunk)) in
        cycles := !cycles + (cycle r - c0);
        secs := !secs +. t;
        rates := (float_of_int (cycle r - c0) /. t /. 1e3) :: !rates;
        if not (running p r) then begin
          check ctx ~slice p r;
          cur := None
        end
    | None -> ());
    !cur <> None || !todo <> []
  in
  let finish () =
    Ctx.metric ctx "cosim_kcycles_per_s" "kcycles/s" (float_of_int !cycles /. !secs /. 1e3);
    Ctx.detail ctx "cosim.piece_kcycles_per_s" (Stat.summary_json (Stat.summarize !rates));
    if ctx.Ctx.trace then trace ctx inp
  in
  { Phase.name = "cosim"; expected = units * nominal_cycles ~slice / chunk; step; finish }
