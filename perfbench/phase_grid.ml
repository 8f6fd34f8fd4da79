(* grid: the journaled fault campaign (Campaign.run, every registry
   fault x seeds [s; s+1]) then the default fuzz campaign (Fuzz.run,
   6 rounds x 6 candidates), both at jobs = 2 under the supervisor.
   This is where the harness shows: fork, Gc.compact, Marshal, pipes,
   journal fsync, plus LightSSS restore/replay on every campaign cell. *)

let jobs = 2
let retries = 1

type input = {
  slice : bool;
  dir : string;
  variant : int;
  seeds : int list;
  fuzz : Fuzz.params;
}

let setup ctx ~slice ~dir =
  let seed = ctx.Ctx.variant + 1 in
  let fuzz = { Fuzz.default with fz_seed = seed } in
  {
    slice;
    dir;
    variant = ctx.Ctx.variant;
    seeds = (if slice then [ seed ] else [ seed; seed + 1 ]);
    fuzz = (if slice then { fuzz with fz_rounds = 2 } else fuzz);
  }

let key inp = Printf.sprintf "v%d/grid/%s" inp.variant (if inp.slice then "slice" else "full")

(* The registry's faults in three groups, so a campaign runs as three
   pooled pieces that the main process can spread over the run. *)
let groups =
  let names = Minjie.Fault.names () in
  let n = List.length names in
  List.init 3 (fun g -> List.filteri (fun i _ -> i * 3 / n = g) names)

(* One group of faults x every seed, pooled. *)
let campaign_group ctx inp ~faults ~jobs ~retries ~journal =
  let s =
    Minjie.Campaign.run ~faults ~seeds:inp.seeds ~ref_kind:Minjie.Ref_model.Iss ~jobs ?journal
      ~retries ()
  in
  List.iter
    (fun (c : Minjie.Campaign.cell) ->
      Ctx.attempt ctx c.c_ok;
      if not c.c_ok then Ctx.error ctx ("campaign cell not ok: " ^ Minjie.Campaign.string_of_cell c))
    s.cells;
  if s.escapes + s.rule_mismatches + s.replay_misses > 0 || s.detected <> s.total then
    Ctx.error ctx
      (Printf.sprintf "campaign: %d/%d detected, %d escapes, %d rule mismatches, %d replay misses"
         s.detected s.total s.escapes s.rule_mismatches s.replay_misses);
  s

(* Pin a whole campaign: the groups' cells, in registry order, are the
   cells of one Campaign.run over every fault. *)
let pin_campaign ctx inp (cells : Minjie.Campaign.cell list) =
  let k = key inp ^ "/campaign" in
  Ctx.pin_int ctx (k ^ ".cells") (List.length cells);
  Ctx.pin ctx (k ^ ".digest") (Ctx.digest (List.map Minjie.Campaign.string_of_cell cells))

let campaign ctx inp ~jobs ~retries ~journal =
  let cells =
    List.concat_map
      (fun faults -> (campaign_group ctx inp ~faults ~jobs ~retries ~journal).cells)
      groups
  in
  pin_campaign ctx inp cells;
  cells

let fuzz ctx inp ~jobs ~retries ~journal =
  let s = Fuzz.run ~p:inp.fuzz ~jobs ?journal ~retries () in
  List.iter
    (fun (x : Fuzz.exec) ->
      (* every generated program must verify: a mismatch or a pool
         failure (exit -2) is a failed operation *)
      Ctx.attempt ctx x.x_verified;
      if not x.x_verified then Ctx.error ctx ("fuzz exec failed: " ^ Fuzz.string_of_exec x))
    s.fz_execs;
  let k = key inp ^ "/fuzz" in
  Ctx.pin_int ctx (k ^ ".execs") (List.length s.fz_execs);
  Ctx.pin_int ctx (k ^ ".points") s.fz_points;
  Ctx.pin ctx (k ^ ".coverage")
    (Ctx.digest [ Ctx.alist_string s.fz_coverage ]);
  Ctx.pin ctx (k ^ ".execs_digest") (Ctx.digest (List.map Fuzz.string_of_exec s.fz_execs));
  s

(* Per-layer numbers for the harness, measured beside the pooled run. *)
let trace ctx inp ~cells ~execs ~camp_s ~fuzz_s ~retried =
  (* the same cells and execs in-process, jobs = 1: pure work *)
  let _, camp_work = Stat.time (fun () -> campaign ctx inp ~jobs:1 ~retries:0 ~journal:None) in
  let _, fuzz_work = Stat.time (fun () -> fuzz ctx inp ~jobs:1 ~retries:0 ~journal:None) in
  let cell_work = camp_work /. float_of_int (List.length cells) in
  let exec_work = fuzz_work /. float_of_int execs in
  Ctx.metric ctx "campaign.cell_work_s" "s" cell_work;
  Ctx.metric ctx "fuzz.exec_work_s" "s" exec_work;
  (* pool cost per job: no-op jobs that return a real campaign cell *)
  let cell = List.hd cells in
  let n = 40 in
  let overheads =
    List.init 3 (fun _ ->
        let results, st =
          Minjie.Pool.map ~jobs
            (List.init n (fun i ->
                 { Minjie.Pool.j_label = string_of_int i; j_cost = 1.0; j_run = (fun () -> cell) }))
        in
        List.iter
          (fun (r : _ Minjie.Pool.result) ->
            Ctx.attempt ctx (match r.r_outcome with Minjie.Pool.Done _ -> true | _ -> false))
          results;
        let busy = Array.fold_left (fun a s -> a +. s.Minjie.Pool.s_seconds) 0.0 st.p_slots in
        1e3 *. busy /. float_of_int n)
  in
  Ctx.metric ctx "pool.job_overhead_ms" "ms" (Stat.median overheads);
  let wall = camp_s +. fuzz_s in
  let work = camp_work +. fuzz_work in
  Ctx.metric ctx "pool.busy_frac" "ratio" (work /. (wall *. float_of_int jobs));
  Ctx.detail ctx "grid.busy_frac_base"
    (Stat.Obj [ ("work_s", Stat.Num work); ("wall_s", Stat.Num wall); ("jobs", Stat.Int jobs) ]);
  (* journal: append this run's own cells, one fsynced frame each *)
  let path = Filename.concat inp.dir "append.jnl" in
  let j, (_ : Minjie.Campaign.cell list) = Minjie.Journal.open_ ~path ~key:"perfbench" in
  let appends =
    List.map (fun c -> snd (Stat.time (fun () -> Minjie.Journal.append j c))) cells
  in
  Minjie.Journal.close j;
  Sys.remove path;
  Ctx.metric ctx "journal.append_ms" "ms" (1e3 *. Stat.median appends);
  Ctx.detail ctx "grid.journal_append_s" (Stat.summary_json (Stat.summarize appends));
  Ctx.metric ctx "supervisor.retried" "count" (float_of_int retried)

type piece = Campaign_group of string list | Fuzz_campaign

(* One unit: a whole campaign, as its three fault groups, with one fuzz
   campaign between the groups. *)
let phase ctx inp ~units =
  let unit_pieces =
    match List.map (fun g -> Campaign_group g) groups with
    | [ a; b; c ] -> [ a; b; Fuzz_campaign; c ]
    | _ -> invalid_arg "Phase_grid: three fault groups"
  in
  let todo = ref (List.concat (List.init units (fun _ -> unit_pieces))) in
  let expected = List.length !todo in
  let jpath name = Filename.concat inp.dir name in
  let camp_s = ref 0.0 and camp_cells = ref [] and cur = ref [] in
  let fuzz_s = ref 0.0 and fuzz_execs = ref 0 and fuzz_runs = ref [] in
  let retried = ref 0 in
  let step () =
    (match !todo with
    | Campaign_group faults :: rest ->
        todo := rest;
        let s, t =
          Stat.time (fun () ->
              campaign_group ctx inp ~faults ~jobs ~retries ~journal:(Some (jpath "campaign.jnl")))
        in
        retried := !retried + s.retried;
        camp_s := !camp_s +. t;
        cur := !cur @ s.cells;
        (* a unit's last group completes one whole campaign *)
        if List.length !cur = List.length (Minjie.Fault.names ()) * List.length inp.seeds then begin
          pin_campaign ctx inp !cur;
          camp_cells := !cur :: !camp_cells;
          cur := []
        end
    | Fuzz_campaign :: rest ->
        todo := rest;
        let s, t =
          Stat.time (fun () -> fuzz ctx inp ~jobs ~retries ~journal:(Some (jpath "fuzz.jnl")))
        in
        retried := !retried + s.fz_retried;
        fuzz_s := !fuzz_s +. t;
        fuzz_execs := !fuzz_execs + List.length s.fz_execs;
        fuzz_runs := t :: !fuzz_runs
    | [] -> ());
    !todo <> []
  in
  let finish () =
    let cells = List.length (List.concat !camp_cells) in
    Ctx.metric ctx "campaign_s_per_cell" "s" (!camp_s /. float_of_int cells);
    Ctx.metric ctx "fuzz_s_per_exec" "s" (!fuzz_s /. float_of_int !fuzz_execs);
    Ctx.detail ctx "grid.fuzz_campaign_s" (Stat.summary_json (Stat.summarize !fuzz_runs));
    if ctx.Ctx.trace then begin
      let n = float_of_int (List.length !camp_cells) and m = float_of_int (List.length !fuzz_runs) in
      trace ctx inp ~cells:(List.hd !camp_cells)
        ~execs:(!fuzz_execs / List.length !fuzz_runs)
        ~camp_s:(!camp_s /. n) ~fuzz_s:(!fuzz_s /. m) ~retried:!retried
    end
  in
  { Phase.name = "grid"; expected; step; finish }
