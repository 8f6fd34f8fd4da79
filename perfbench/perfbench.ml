(* The MINJIE benchmark.

     perfbench.exe --workload cosim|serve --seed N --seconds S
                   --trace 0|1 [--pins FILE] [--tiny]
     perfbench.exe --record-pins FILE

   Every run executes all four phases (cosim, nemu, grid, serve),
   interleaved piece by piece, so every metric is reported by every
   workload.  The named workload's phase gets the work a nominal host
   does in S seconds; the other phases get a fixed share.  Host-timed
   end-to-end metrics are reported at a reference host speed (Calib).
   The last stdout line is the result object; the line before it
   carries the detail record (sample counts, percentiles, raw values,
   host metadata).  Any deviation from a pinned simulated statistic
   makes the run incorrect (exit 1).  See README.md. *)

let workloads = [ "cosim"; "serve" ]

let end_to_end =
  [
    "setup_s";
    "heap_peak_mb";
    "cosim_kcycles_per_s";
    "nemu_hot_mips";
    "nemu_cold_mips";
    "simpoint_s";
    "campaign_s_per_cell";
    "fuzz_s_per_exec";
    "serve_p50_s";
    "serve_p90_s";
    "serve_jobs_per_s";
  ]

let setup_reps = 3

(* The end-to-end metrics measured in host time.  They are reported at
   the reference host speed (Calib): a time is divided, a rate
   multiplied, by the run's reference time over Calib.nominal.  The raw
   values are in the detail record. *)
let host_timed =
  [
    ("setup_s", `Time);
    ("cosim_kcycles_per_s", `Rate);
    ("nemu_hot_mips", `Rate);
    ("nemu_cold_mips", `Rate);
    ("simpoint_s", `Time);
    ("campaign_s_per_cell", `Time);
    ("fuzz_s_per_exec", `Time);
    ("serve_p50_s", `Time);
    ("serve_p90_s", `Time);
    ("serve_jobs_per_s", `Rate);
  ]

(* [kernel_s] is the reference's time over the run (Phase.interleave). *)
let normalise ctx kernel_s =
  let f = kernel_s /. Calib.nominal in
  let raw = ref [] in
  ctx.Ctx.metrics <-
    List.map
      (fun (name, (v, unit)) ->
        match List.assoc_opt name host_timed with
        | Some kind ->
            raw := (name, Stat.Num v) :: !raw;
            (name, ((match kind with `Rate -> v *. f | `Time -> v /. f), unit))
        | None -> (name, (v, unit)))
      ctx.Ctx.metrics;
  Ctx.detail ctx "host_speed"
    (Stat.Obj
       [
         ("nominal_kernel_s", Stat.Num Calib.nominal);
         ("kernel_s", Stat.Num kernel_s);
         ("factor", Stat.Num f);
       ]);
  Ctx.detail ctx "raw_metrics" (Stat.Obj (List.sort compare !raw))

type inputs = {
  cosim : Phase_cosim.input;
  nemu : Phase_nemu.input;
  grid : Phase_grid.input;
  serve : Phase_serve.input;
}

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Input sizes: --tiny shrinks every phase (the smoke test). *)
let setup ctx ~tiny ~dir =
  let build () =
    let cosim = Phase_cosim.setup ~slice:tiny in
    let nemu = Phase_nemu.setup ctx ~slice:tiny in
    let grid = Phase_grid.setup ctx ~slice:tiny ~dir in
    let daemon = Phase_serve.start ~dir ~variant:ctx.Ctx.variant in
    ({ cosim; nemu; grid; serve = { daemon; variant = ctx.variant } }, daemon)
  in
  let times = ref [] and last = ref None in
  for i = 1 to setup_reps do
    (* untimed: no set-up pays for collecting the previous one *)
    Gc.full_major ();
    let (inp, d), t = Stat.time build in
    times := t :: !times;
    if i < setup_reps then Phase_serve.stop d else last := Some inp
  done;
  Ctx.metric ctx "setup_s" "s" (Stat.median !times);
  Ctx.detail ctx "setup_s" (Stat.summary_json (Stat.summarize !times));
  Option.get !last

(* How much work each phase gets.  The named workload's phase gets the
   units a nominal host runs in [seconds]; every other phase gets a fixed
   share of full-size units.  The work is a function of the arguments
   alone, so every run of a seed simulates exactly the same thing. *)
let units ~nominal seconds = max 1 (int_of_float (Float.round (seconds /. nominal)))

let phases ctx ~tiny ~seconds inp =
  let share p ~nominal ~other =
    if tiny then 1
    else if p = ctx.Ctx.primary then units ~nominal seconds
    else other
  in
  let fixed n = if tiny then 1 else n in
  [
    Phase_cosim.phase ctx inp.cosim
      ~units:(share "cosim" ~nominal:Phase_cosim.nominal_unit_s ~other:1);
    Phase_nemu.phase ctx inp.nemu ~units:(fixed 4);
    Phase_grid.phase ctx inp.grid ~units:(fixed 2);
    Phase_serve.phase ctx inp.serve
      ~jobs:(if tiny then 20 else share "serve" ~nominal:Phase_serve.nominal_job_s ~other:100);
  ]

let host () =
  Stat.Obj
    [
      ("nproc", Stat.Int (Minjie.Pool.host_cores ()));
      ("ocaml_version", Stat.Str Sys.ocaml_version);
      ("os_type", Stat.Str Sys.os_type);
      ("word_size", Stat.Int Sys.word_size);
    ]

let make_ctx ~trace ~variant ~primary pins =
  {
    Ctx.trace;
    variant;
    primary;
    pins;
    attempted = 0;
    failed = 0;
    errors = [];
    metrics = [];
    details = [];
    heap_words = 0;
  }

let with_dir f =
  let dir = Filename.concat ".perfbench_run" (string_of_int (Unix.getpid ())) in
  (try Unix.mkdir ".perfbench_run" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () ->
      rm_rf dir;
      try Unix.rmdir ".perfbench_run" with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let bench ~workload ~seed ~seconds ~trace ~tiny ~pins_path =
  let pins = Ctx.Check (Ctx.load_pins pins_path) in
  let ctx = make_ctx ~trace ~variant:(Ctx.variant_of_seed seed) ~primary:workload pins in
  with_dir (fun dir ->
      let inp = setup ctx ~tiny ~dir in
      Fun.protect ~finally:(fun () -> Phase_serve.stop inp.serve.daemon) (fun () ->
          normalise ctx
            (Phase.interleave (List.map (Phase.isolate ctx) (phases ctx ~tiny ~seconds inp)))));
  let heap_words = max ctx.heap_words (Ctx.top_heap_words ()) in
  Ctx.metric ctx "heap_peak_mb" "MB"
    (float_of_int (heap_words * (Sys.word_size / 8)) /. 1048576.0);
  let wanted name =
    let e2e = List.mem name end_to_end in
    if trace then not e2e else e2e
  in
  let metrics =
    List.sort compare (List.filter (fun (k, _) -> wanted k) ctx.metrics)
  in
  let correct = ctx.errors = [] in
  List.iter (fun e -> prerr_endline ("perfbench: " ^ e)) (List.rev ctx.errors);
  print_endline
    (Stat.to_string
       (Stat.Obj
          [
            ( "perfbench_detail",
              Stat.Obj
                ([
                   ("workload", Stat.Str workload);
                   ("seed", Stat.Int seed);
                   ("variant", Stat.Int ctx.variant);
                   ("trace", Stat.Bool trace);
                   ("host", host ());
                   ("errors", Stat.Arr (List.map (fun e -> Stat.Str e) (List.rev ctx.errors)));
                 ]
                @ List.rev ctx.details) );
          ]));
  print_endline
    (Stat.to_string
       (Stat.Obj
          [
            ("correct", Stat.Bool correct);
            ("attempted", Stat.Int ctx.attempted);
            ("failed", Stat.Int ctx.failed);
            ( "metrics",
              Stat.Obj
                (List.map
                   (fun (k, (v, u)) -> (k, Stat.Obj [ ("value", Stat.Num v); ("unit", Stat.Str u) ]))
                   metrics) );
          ]));
  if not correct then exit 1

(* Run one full-size unit and one slice of every phase for every
   variant, storing each pinned statistic (and failing on any value
   that differs between two computations of the same key). *)
let record_pins path =
  let tbl = Hashtbl.create 256 in
  let errors = ref [] in
  for variant = 0 to Ctx.variants - 1 do
    List.iter
      (fun tiny ->
        let ctx = make_ctx ~trace:false ~variant ~primary:"" (Ctx.Record tbl) in
        with_dir (fun dir ->
            let slice = tiny in
            let daemon = Phase_serve.start ~dir ~variant in
            Fun.protect ~finally:(fun () -> Phase_serve.stop daemon) (fun () ->
                ignore @@ Phase.interleave
                  [
                    Phase_cosim.phase ctx (Phase_cosim.setup ~slice) ~units:1;
                    Phase_nemu.phase ctx (Phase_nemu.setup ctx ~slice) ~units:1;
                    Phase_grid.phase ctx (Phase_grid.setup ctx ~slice ~dir) ~units:1;
                    Phase_serve.phase ctx { daemon; variant } ~jobs:20;
                  ]));
        errors := !errors @ ctx.errors;
        Printf.eprintf "recorded variant %d (%s): %d pins\n%!" variant
          (if tiny then "slice" else "full") (Hashtbl.length tbl))
      [ true; false ]
  done;
  List.iter (fun e -> prerr_endline ("perfbench: " ^ e)) !errors;
  if !errors <> [] then exit 1;
  Ctx.save_pins path tbl

let () =
  (* a phase process that dies must surface as an error, not kill this
     process on the next write to its pipe *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let tiny = ref false and record = ref "" and pins = ref "perfbench/pins.txt" in
  let spec =
    [
      ("--workload", Arg.Symbol (workloads, fun w -> workload := w), " workload to measure");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds of the named workload");
      ("--trace", Arg.Set_int trace, "0|1 per-layer (traced) run instead of end-to-end");
      ("--pins", Arg.Set_string pins, "FILE pinned statistics (default perfbench/pins.txt)");
      ("--tiny", Arg.Set tiny, " run every phase at slice size (smoke test)");
      ("--record-pins", Arg.Set_string record, "FILE record the pinned statistics");
    ]
  in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1";
  if !record <> "" then record_pins !record
  else if !workload = "" || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: --workload is required and --trace must be 0 or 1";
    exit 2
  end
  else
    bench ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~tiny:!tiny
      ~pins_path:!pins
