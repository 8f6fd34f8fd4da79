(* serve: a closed loop against a forked Server.serve.  Two connections
   each submit their next job as soon as the previous reply arrives,
   cycling through a deck with one job of every class (the second
   connection starts half a deck later).  Engine and checkpoint jobs run
   warm in the server process; run, topdown and fuzz go through its
   isolation pool (forked workers).  The seed picks the engine program
   and the fuzz seed. *)

let connections = 2

let specs variant =
  [
    ( "engine",
      Serve.Proto.Engine
        { en_workload = Printf.sprintf "testgen:%d:2000:16" (variant + 1); en_max_insns = 2_000_000 } );
    ( "checkpoint",
      Serve.Proto.Checkpoint
        {
          ck_workload = "coremark_like";
          ck_config = "YQH";
          ck_interval = 8_000;
          ck_max_k = 3;
          ck_warmup = 1_000;
          ck_measure = 2_000;
        } );
    ( "run",
      Serve.Proto.Run
        { rn_workload = "coremark_like"; rn_config = "YQH"; rn_max_cycles = 15_000; rn_ref = "nemu" } );
    ( "topdown",
      Serve.Proto.Topdown { td_workload = "sjeng_like"; td_config = "YQH"; td_max_cycles = 15_000 } );
    ("fuzz", Serve.Proto.Fuzz { fu_seed = variant + 1; fu_rounds = 1; fu_cands = 2; fu_ref = "nemu" });
  ]

(* The deck: every class the service runs, once each, in the order of
   `bench serve`'s per-class latency table (engine, checkpoint, run,
   topdown) with fuzz, the class added after it, last.  That table
   submits each of its classes equally often; no recorded usage favours
   one class, so none is weighted up here. *)
let deck = [ "engine"; "checkpoint"; "run"; "topdown"; "fuzz" ]

(* ---- wire helpers: Proto framing on our own sockets, so one process
   can select over both connections ---------------------------------- *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  fd

let send fd req = Serve.Proto.write_frame fd (Serve.Proto.request_to_bytes req)

let recv fd =
  match Serve.Proto.read_frame fd with
  | Some payload -> Serve.Proto.reply_of_payload payload
  | None -> raise (Serve.Proto.Frame_error "server closed the connection")

let request fd req =
  send fd req;
  recv fd

type daemon = { pid : int; sock : string }

let stop d =
  (try
     let fd = connect d.sock in
     ignore (request fd Serve.Proto.Shutdown);
     Unix.close fd
   with _ -> ( try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  let rec reap () =
    try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  (try reap () with Unix.Unix_error _ -> ());
  try Sys.remove d.sock with Sys_error _ -> ()

(* Daemon start to ready, then one warm-up request per warm key: the
   serve part of the benchmark's set-up. *)
let start ~dir ~variant =
  let sock = Filename.concat dir "serve.sock" in
  (try Sys.remove sock with Sys_error _ -> ());
  flush_all ();
  let pid = Unix.fork () in
  if pid = 0 then begin
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Unix.dup2 null Unix.stdout;
    Unix.dup2 null Unix.stderr;
    let cfg =
      {
        (Serve.Server.default_config ~socket_path:sock) with
        jobs = connections;
        queue_depth = 64;
        batch_max = 2 * connections;
        quiet = true;
      }
    in
    Unix._exit (try Serve.Server.serve cfg with _ -> 10)
  end;
  let d = { pid; sock } in
  let deadline = Stat.now () +. 30.0 in
  let rec ready () =
    match
      let fd = connect sock in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> request fd Serve.Proto.Ping)
    with
    | Serve.Proto.Pong _ -> ()
    | _ | (exception _) ->
        if Stat.now () > deadline then begin
          stop d;
          failwith "serve: daemon never answered a ping"
        end;
        Unix.sleepf 0.002;
        ready ()
  in
  ready ();
  let fd = connect sock in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
      List.iter
        (fun (_, spec) ->
          if Serve.Proto.warm_key spec <> None then ignore (request fd (Serve.Proto.Submit spec)))
        (specs variant));
  d

type input = { daemon : daemon; variant : int }

let digest_result r = Digest.to_hex (Digest.string (Marshal.to_string r []))

type conn = {
  fd : Unix.file_descr;
  mutable next : int;  (** deck position of the next submit *)
  mutable cur : (string * Serve.Proto.job_spec) option;  (** in flight *)
  mutable sent : float;
}

let report ctx inp ~samples ~replies ~wall =
  (* outside the timed window: the cold-start reference for every spec *)
  let cold =
    List.map
      (fun (cls, spec) ->
        let d = digest_result (Serve.Server.exec_cold ~jobs:1 spec) in
        let key =
          if cls = "engine" || cls = "fuzz" then Printf.sprintf "v%d/serve/%s" inp.variant cls
          else "serve/" ^ cls
        in
        Ctx.pin ctx (key ^ ".cold_digest") d;
        (cls, d))
      (specs inp.variant)
  in
  let busy = ref 0 in
  List.iter
    (fun ((cls, _), reply) ->
      let ok =
        match reply with
        | Serve.Proto.Result { r_result = Serve.Proto.R_error e; _ } ->
            Ctx.error ctx (Printf.sprintf "serve %s job raised: %s" cls e);
            false
        | Serve.Proto.Result r ->
            let same = digest_result r.r_result = List.assoc cls cold in
            if not same then Ctx.error ctx (Printf.sprintf "serve %s reply differs from exec_cold" cls);
            same
        | Serve.Proto.Busy _ ->
            incr busy;
            false
        | _ ->
            Ctx.error ctx (Printf.sprintf "serve %s: unexpected reply" cls);
            false
      in
      Ctx.attempt ctx ok)
    replies;
  let lats = List.map snd samples in
  let s = Stat.summarize lats in
  Ctx.metric ctx "serve_p50_s" "s" s.p50;
  Ctx.metric ctx "serve_p90_s" "s" (Stat.percentile lats 90.0);
  Ctx.metric ctx "serve_jobs_per_s" "1/s" (float_of_int (List.length lats) /. wall);
  Ctx.detail ctx "serve.latency_s" (Stat.summary_json s);
  List.iter
    (fun cls ->
      let xs = List.filter_map (fun (c, l) -> if c = cls then Some l else None) samples in
      Ctx.detail ctx ("serve.latency_s." ^ cls) (Stat.summary_json (Stat.summarize xs)))
    deck;
  Ctx.metric ctx "serve.latency_samples" "count" (float_of_int s.n);
  if ctx.Ctx.trace then begin
    let fd = connect inp.daemon.sock in
    let pings =
      List.init 50 (fun _ -> snd (Stat.time (fun () -> ignore (request fd Serve.Proto.Ping))))
    in
    let stats = request fd Serve.Proto.Stats in
    Unix.close fd;
    Ctx.metric ctx "proto.ping_rtt_ms" "ms" (1e3 *. Stat.median pings);
    match stats with
    | Serve.Proto.Stats_reply st ->
        let ewma cls =
          let prefix = cls ^ ":" in
          match
            List.find_opt
              (fun (k, _) -> String.length k >= String.length prefix
                             && String.sub k 0 (String.length prefix) = prefix)
              st.st_ewma
          with
          | Some (_, v) -> v
          | None -> nan
        in
        List.iter
          (fun (cls, _) -> Ctx.metric ctx ("serve.exec_s." ^ cls) "s" (ewma cls))
          (specs inp.variant);
        let waits = List.map (fun (cls, lat) -> Float.max 0.0 (lat -. ewma cls)) samples in
        Ctx.metric ctx "serve.queue_wait_s" "s" (Stat.median waits);
        let lookups = st.st_warm_hits + st.st_warm_misses in
        Ctx.metric ctx "warm_cache.hit_ratio" "ratio"
          (float_of_int st.st_warm_hits /. float_of_int (max 1 lookups));
        Ctx.metric ctx "serve.busy_replies" "count" (float_of_int !busy)
    | _ -> Ctx.error ctx "serve: no stats reply"
  end

(* Jobs per piece: each piece runs the closed loop until this many
   replies have arrived, then lets the in-flight jobs drain. *)
let window = 10

(* Nominal seconds per job: sizes the named workload's job count. *)
let nominal_job_s = 0.08

let phase ctx inp ~jobs =
  let specs = specs inp.variant in
  let conns =
    lazy
      (Array.init connections (fun i ->
           {
             fd = connect inp.daemon.sock;
             next = i * List.length deck / connections;
             cur = None;
             sent = 0.0;
           }))
  in
  let samples = ref [] and replies = ref [] and wall = ref 0.0 in
  let submit c =
    let cls = List.nth deck (c.next mod List.length deck) in
    let spec = List.assoc cls specs in
    c.next <- c.next + 1;
    c.cur <- Some (cls, spec);
    c.sent <- Stat.now ();
    send c.fd (Serve.Proto.Submit spec)
  in
  (* One window of the closed loop: every connection keeps one job in
     flight until [n] replies have arrived in this window. *)
  let step () =
    let conns = Lazy.force conns in
    let n = min window (jobs - List.length !samples) in
    let t0 = Stat.now () in
    let got = ref 0 in
    Array.iter submit conns;
    let in_flight = ref connections in
    while !in_flight > 0 do
      let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
      let ready, _, _ =
        try Unix.select fds [] [] 1.0 with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      Array.iter
        (fun c ->
          match c.cur with
          | Some ((cls, _) as job) when List.mem c.fd ready ->
              let reply = recv c.fd in
              samples := (cls, Stat.now () -. c.sent) :: !samples;
              replies := (job, reply) :: !replies;
              c.cur <- None;
              incr got;
              if !got + !in_flight - 1 < n then submit c else decr in_flight
          | Some _ | None -> ())
        conns
    done;
    wall := !wall +. (Stat.now () -. t0);
    List.length !samples < jobs
  in
  let finish () =
    if Lazy.is_val conns then Array.iter (fun c -> Unix.close c.fd) (Lazy.force conns);
    report ctx inp ~samples:(List.rev !samples) ~replies:(List.rev !replies) ~wall:!wall
  in
  { Phase.name = "serve"; expected = (jobs + window - 1) / window; step; finish }
