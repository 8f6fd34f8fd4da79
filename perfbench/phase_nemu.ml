(* nemu: NEMU alone.  Hot loops (coremark_like, mcf_like, bwaves_like,
   each scaled to >= 30M instructions) stress dispatch and megablocks; a
   generated cold-code program (testgen, 30k blocks of 16 instructions,
   which overflows the uop cache) stresses decode, compile and eviction;
   then the SimPoint flow (Sampled.estimate) on YQH. *)

type input = {
  slice : bool;
  hot : (string * Riscv.Asm.program) list;
  cold_name : string;
  cold : Riscv.Asm.program;
  sp_prog : Riscv.Asm.program;
}

(* SimPoint flow parameters, per size.  The full-run IPC the estimate is
   compared with is pinned (it is a deterministic YQH run of the same
   program, recorded once with --record-pins). *)
let sp_params ~slice =
  if slice then (3, 8_000, 2_000, 4_000) else (100, 100_000, 10_000, 20_000)

let setup ctx ~slice =
  let hot_scales =
    if slice then [ ("coremark_like", 400); ("mcf_like", 120); ("bwaves_like", 130) ]
    else [ ("coremark_like", 2450); ("mcf_like", 730); ("bwaves_like", 780) ]
  in
  let hot =
    List.map (fun (n, scale) -> (n, (Workloads.Suite.find n).program ~scale)) hot_scales
  in
  let blocks = if slice then 6_000 else 30_000 in
  let seed = ctx.Ctx.variant + 1 in
  let sp_scale, _, _, _ = sp_params ~slice in
  {
    slice;
    hot;
    cold_name = Printf.sprintf "testgen:%d:%d:16" seed blocks;
    cold = Workloads.Testgen.program ~seed ~blocks ~block_len:16 ();
    sp_prog = (Workloads.Suite.find "coremark_like").program ~scale:sp_scale;
  }

let size inp = if inp.slice then "slice" else "full"

let engine_run ctx key prog =
  let s = Nemu.Engine.run_program_stats ~max_insns:max_int Nemu.Engine.Nemu prog in
  Ctx.attempt ctx true;
  Ctx.pin_int ctx (key ^ ".insns") s.insns;
  Ctx.pin_int ctx (key ^ ".compiled") s.compiled;
  Ctx.pin_int ctx (key ^ ".evictions") s.evictions;
  Ctx.pin_int ctx (key ^ ".megablocks") s.megablocks;
  s

(* The full cycle-level YQH run the SimPoint estimate is judged against;
   recorded into the pins, never timed. *)
let full_ipc prog =
  let soc = Xiangshan.Soc.create Xiangshan.Config.yqh in
  Xiangshan.Soc.load_program soc prog;
  ignore (Xiangshan.Soc.run ~max_cycles:100_000_000 soc);
  Xiangshan.Core.ipc soc.Xiangshan.Soc.cores.(0)

let ppm x = int_of_float (Float.round (x *. 1e6))

(* The SimPoint flow, its two passes timed apart as Sampled.estimate
   runs them (generate, then simulate every checkpoint). *)
let simpoint ctx inp =
  let key = "nemu/" ^ size inp ^ "/simpoint" in
  let _, interval, warmup, measure = sp_params ~slice:inp.slice in
  let t0 = Stat.now () in
  let cks, gen = Checkpoint.Sampled.generate ~interval ~max_k:5 inp.sp_prog in
  let t1 = Stat.now () in
  let results =
    Checkpoint.Sampled.simulate_all ~warmup ~measure ~jobs:1 Xiangshan.Config.yqh cks
  in
  let ipc = Checkpoint.Sampled.weighted_ipc results in
  let t2 = Stat.now () in
  Ctx.attempt ctx (results <> []);
  Ctx.pin_int ctx (key ^ ".gen_insns") gen.gen_instructions;
  Ctx.pin ctx (key ^ ".selection")
    (String.concat ","
       (List.map
          (fun (r : Checkpoint.Sampled.sample_result) ->
            Printf.sprintf "%d:%d:%d:%d" r.sr_index (ppm r.sr_weight) r.sr_instructions
              r.sr_cycles)
          results));
  Ctx.pin_int ctx (key ^ ".ipc_ppm") (ppm ipc);
  (* the full cycle-level run is recorded into the pins, never timed *)
  let full_key = key ^ ".full_ipc_ppm" in
  let full =
    match ctx.Ctx.pins with
    | Ctx.Record tbl when not (Hashtbl.mem tbl full_key) ->
        Ctx.pin_int ctx full_key (ppm (full_ipc inp.sp_prog));
        Hashtbl.find_opt tbl full_key
    | Ctx.Check tbl | Ctx.Record tbl -> Hashtbl.find_opt tbl full_key
  in
  let error_ppm =
    match Option.bind full int_of_string_opt with
    | Some f -> abs (ppm ipc - f) * 1_000_000 / max 1 f
    | None ->
        Ctx.error ctx ("no pinned full-run IPC " ^ full_key);
        -1
  in
  (t2 -. t0, t1 -. t0, t2 -. t1, error_ppm)

type piece = Hot of string * Riscv.Asm.program | Cold | Simpoint

(* One unit: the three hot loops once, the cold program three times and
   the SimPoint flow twice, each piece about 0.2-0.5 s.  The host's speed
   changes from one second to the next, so each metric needs many pieces
   spread over the whole run for its average to settle. *)
let phase ctx inp ~units =
  let hot = List.map (fun (n, p) -> Hot (n, p)) inp.hot in
  let todo =
    ref
      (List.concat
         (List.init units (fun _ ->
              match hot with
              | [ a; b; c ] -> [ a; Cold; Simpoint; b; Cold; c; Simpoint; Cold ]
              | _ -> invalid_arg "Phase_nemu: three hot loops")))
  in
  let expected = List.length !todo in
  let hot_insns = ref 0 and hot_s = ref 0.0 and megablocks = ref 0 in
  let cold = ref [] and sp = ref [] in
  let step () =
    (* every piece starts from a collected heap, untimed, so none pays
       for collecting the previous piece's garbage *)
    Gc.full_major ();
    (match !todo with
    | Hot (n, prog) :: rest ->
        todo := rest;
        let s = engine_run ctx (Printf.sprintf "nemu/%s/hot/%s" (size inp) n) prog in
        hot_insns := !hot_insns + s.insns;
        hot_s := !hot_s +. s.seconds;
        megablocks := s.megablocks + !megablocks
    | Cold :: rest ->
        todo := rest;
        cold :=
          engine_run ctx (Printf.sprintf "v%d/nemu/%s/cold" ctx.Ctx.variant (size inp)) inp.cold
          :: !cold
    | Simpoint :: rest ->
        todo := rest;
        sp := simpoint ctx inp :: !sp
    | [] -> ());
    !todo <> []
  in
  let finish () =
    let cold = !cold and sp = !sp in
    let sum f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs in
    let cold_insns = sum (fun (s : Nemu.Engine.stats) -> float_of_int s.insns) cold in
    let cold_s = sum (fun (s : Nemu.Engine.stats) -> s.seconds) cold in
    let sp_s = List.map (fun (t, _, _, _) -> t) sp in
    Ctx.metric ctx "nemu_hot_mips" "MIPS" (float_of_int !hot_insns /. !hot_s /. 1e6);
    Ctx.metric ctx "nemu_cold_mips" "MIPS" (cold_insns /. cold_s /. 1e6);
    (* the mean, not the median: the host runs at two or three distinct
       speeds, and a median of few samples jumps between them *)
    Ctx.metric ctx "simpoint_s" "s" (Stat.mean sp_s);
    Ctx.detail ctx "nemu.simpoint_s" (Stat.summary_json (Stat.summarize sp_s));
    Ctx.detail ctx "nemu.cold_program" (Stat.Str inp.cold_name);
    let c = List.hd cold and n = float_of_int units in
    Ctx.metric ctx "nemu.hot_s" "s" (!hot_s /. n);
    Ctx.metric ctx "nemu.cold_s" "s" (cold_s /. float_of_int (List.length cold));
    Ctx.metric ctx "nemu.compiled" "count" (float_of_int c.compiled);
    Ctx.metric ctx "nemu.evictions" "count" (float_of_int c.evictions);
    Ctx.metric ctx "nemu.megablocks" "count" (float_of_int !megablocks /. n);
    Ctx.metric ctx "sampled.generate_s" "s" (Stat.median (List.map (fun (_, g, _, _) -> g) sp));
    Ctx.metric ctx "sampled.simulate_s" "s" (Stat.median (List.map (fun (_, _, s, _) -> s) sp));
    let _, _, _, err = List.hd sp in
    Ctx.metric ctx "sampled.ipc_error_ppm" "ppm" (float_of_int err)
  in
  { Phase.name = "nemu"; expected; step; finish }
