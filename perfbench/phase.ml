(* A phase's measured work, cut into pieces so that the main process can
   spread every phase across the whole run: a slow stretch of the host
   then lands on all metrics alike instead of on whichever phase
   happened to be running. *)

type t = {
  name : string;
  expected : int;  (** pieces expected; used only to space them evenly *)
  step : unit -> bool;  (** run one piece; [false] once the work is done *)
  finish : unit -> unit;  (** report metrics, and per-layer numbers when traced *)
}

type slot = { phase : t; mutable clock : float; mutable live : bool }

(* Stride scheduling: always run the live phase that is least far
   through its expected pieces (its clock).  The host-speed reference
   is timed before every piece.  Returns the reference's interquartile
   mean over the run: a sample now and then reads 1.5-2x the others
   (another process finishing its work), and the trimmed mean drops
   those without jumping between the host's speed levels as a median
   can. *)
let interleave phases =
  let st = List.map (fun phase -> { phase; clock = 0.0; live = true }) phases in
  let kernel = ref [] in
  let rec loop () =
    match List.sort (fun a b -> compare a.clock b.clock) (List.filter (fun s -> s.live) st) with
    | [] -> ()
    | s :: _ ->
        kernel := Calib.sample () :: !kernel;
        if not (s.phase.step ()) then s.live <- false;
        s.clock <- s.clock +. (1.0 /. float_of_int (max 1 s.phase.expected));
        loop ()
  in
  loop ();
  List.iter (fun p -> p.finish ()) phases;
  Stat.interquartile_mean !kernel

(* Run a phase in a forked child process that steps on command, so each
   phase has a heap of its own: one phase's garbage cannot slow another
   phase's collector.  The child starts from the parent's inputs
   (copy-on-write), accumulates into a reset copy of [ctx], and sends
   that back when the phase finishes. *)
let isolate (ctx : Ctx.t) (p : t) =
  flush_all ();
  let cmd_r, cmd_w = Unix.pipe () and res_r, res_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close cmd_w;
      Unix.close res_r;
      let ic = Unix.in_channel_of_descr cmd_r and oc = Unix.out_channel_of_descr res_w in
      Ctx.reset ctx;
      let rec serve () =
        match input_char ic with
        | 's' ->
            output_char oc (if p.step () then '1' else '0');
            flush oc;
            serve ()
        | _ ->
            p.finish ();
            Marshal.to_channel oc (Ctx.delta ctx) [];
            flush oc
      in
      (* never unwind into the parent's stack: its cleanups are not
         ours.  An exception ends the process mid-protocol; the parent
         sees the pipe close and reports the phase as dead. *)
      (try serve ()
       with e ->
         prerr_endline
           (Printf.sprintf "perfbench: %s phase raised %s" p.name (Printexc.to_string e));
         Unix._exit 3);
      Unix._exit 0
  | pid ->
      Unix.close cmd_r;
      Unix.close res_w;
      let oc = Unix.out_channel_of_descr cmd_w and ic = Unix.in_channel_of_descr res_r in
      let dead = ref false in
      let step () =
        (not !dead)
        &&
        try
          output_char oc 's';
          flush oc;
          input_char ic = '1'
        with End_of_file | Sys_error _ ->
          dead := true;
          false
      in
      let finish () =
        let merged =
          try
            output_char oc 'f';
            flush oc;
            Ctx.merge ctx (Marshal.from_channel ic : Ctx.delta);
            true
          with End_of_file | Sys_error _ | Failure _ -> false
        in
        close_out_noerr oc;
        close_in_noerr ic;
        let rec reap () =
          try snd (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
        in
        match reap () with
        | Unix.WEXITED 0 when merged -> ()
        | Unix.WEXITED c -> Ctx.error ctx (Printf.sprintf "%s phase process died (exit %d)" p.name c)
        | Unix.WSIGNALED n | Unix.WSTOPPED n ->
            Ctx.error ctx (Printf.sprintf "%s phase process died (signal %d)" p.name n)
      in
      { p with step; finish }
