(* LightSSS: lightweight simulation snapshots (paper §III-C).

   The paper's implementation forks the RTL-simulation process and
   lets the kernel's copy-on-write give an in-memory, incremental,
   circuit-agnostic snapshot.  The OCaml analogue implemented here:

   - the big state lives in Riscv.Cow_store paged COW stores: every
     simulated physical memory, and the large fixed-size
     micro-architectural tables (cache-line metadata, branch-predictor
     tables, TLB entries).  A snapshot records only their allocated
     pages, exactly like fork duplicating page tables, and later writes pay
     lazy per-page copies (the COW faults measured in Figure 6);
   - the remaining simulator state (pipelines, queues, counters,
     reference-model architectural state, the records that own the
     stores) is captured with Marshal including closures -- the
     analogue of the fork'd process image -- after detaching the page
     arrays, so the image holds no page data;
   - state shared with the replay or rebuilt after restore is left out
     of the image: the subject's [detach_heavy] unhooks it while
     marshalling (DiffTest's Global Memory, shared with the replay; the
     NEMU REF's uop cache, rebuilt after restore as a flushed cache).

   So a snapshot costs the stores' page tables plus an image of the
   small remaining state, and the run pays for the pages written since.

   The manager keeps only the two most recent snapshots (paper
   §III-C3): when the verification layer reports an error, the older
   one is restored and the last <= 2N cycles are replayed in debug
   mode.

   The SSS and LiveSim baselines of Table I are provided for
   comparison: both copy the full image (stores included); SSS
   additionally round-trips it through a file. *)

type snapshot = {
  snap_cycle : int;
  store_snaps : Riscv.Cow_store.snapshot list;
  image : bytes; (* marshalled simulator graph, pages detached *)
  image_bytes : int;
}

(* A subject couples the COW stores with the root of the mutable object
   graph to capture.  [detach_heavy]/[reattach_heavy] bracket the
   marshalling step: state that is shared with the replayed instance
   or rebuilt after restore, rather than copied, is unhooked there so
   the image stays O(simulator metadata). *)
type 'a subject = {
  stores : Riscv.Cow_store.t list;
  roots : 'a;
  detach_heavy : unit -> unit;
  reattach_heavy : unit -> unit;
}

(* Take a lightweight snapshot at [cycle]. *)
let snapshot (s : 'a subject) ~cycle : snapshot =
  let store_snaps = List.map Riscv.Cow_store.snapshot s.stores in
  let image =
    Riscv.Cow_store.with_pages_detached s.stores (fun () ->
        s.detach_heavy ();
        Fun.protect ~finally:s.reattach_heavy (fun () ->
            Marshal.to_bytes s.roots [ Marshal.Closures ]))
  in
  { snap_cycle = cycle; store_snaps; image; image_bytes = Bytes.length image }

(* Restore with an explicit store enumeration function applied to the
   fresh roots. *)
let restore_with (snap : snapshot) ~(stores_of : 'a -> Riscv.Cow_store.t list)
    : 'a =
  let roots : 'a = Marshal.from_bytes snap.image 0 in
  let stores = stores_of roots in
  let have = List.length snap.store_snaps and got = List.length stores in
  if have <> got then
    invalid_arg
      (Printf.sprintf
         "Lightsss.restore_with: the snapshot holds %d COW stores but the \
          restored graph enumerates %d"
         have got);
  List.iter2 Riscv.Cow_store.restore stores snap.store_snaps;
  roots

let release (snap : snapshot) =
  List.iter Riscv.Cow_store.release snap.store_snaps

(* ---- the two-slot snapshot manager ---------------------------------- *)

type 'a manager = {
  subject : 'a subject;
  interval : int; (* cycles between snapshots *)
  mutable slots : snapshot list; (* at most 2, newest first *)
  mutable last_snap_cycle : int;
  mutable snapshots_taken : int;
  mutable total_snapshot_seconds : float;
}

let manager ~interval subject =
  {
    subject;
    interval;
    slots = [];
    last_snap_cycle = -(2 * interval);
    snapshots_taken = 0;
    total_snapshot_seconds = 0.0;
  }

(* Called every cycle; takes a snapshot when the interval elapses,
   keeping only the most recent two. *)
let tick (m : 'a manager) ~cycle =
  if cycle - m.last_snap_cycle >= m.interval then begin
    let t0 = Unix.gettimeofday () in
    let s = snapshot m.subject ~cycle in
    m.total_snapshot_seconds <-
      m.total_snapshot_seconds +. (Unix.gettimeofday () -. t0);
    m.snapshots_taken <- m.snapshots_taken + 1;
    m.last_snap_cycle <- cycle;
    (match m.slots with
    | a :: b :: _ ->
        release b;
        m.slots <- [ s; a ]
    | rest -> m.slots <- s :: rest)
  end

(* The snapshot to replay from on an error: the *older* of the two
   retained (so the region of interest, <= 2 intervals, is covered). *)
let replay_point (m : 'a manager) : snapshot option =
  match m.slots with [ _; b ] -> Some b | [ a ] -> Some a | _ -> None

(* ---- SSS / LiveSim baselines (Table I) ------------------------------- *)

(* Full-image snapshot: marshals everything *including* the store
   pages -- O(simulated memory + tables).  [to_file] additionally round-trips
   through the filesystem, like the Verilator save/restore flow. *)
let full_image_snapshot ?(to_file = false) (s : 'a subject) : int =
  let image = Marshal.to_bytes s.roots [ Marshal.Closures ] in
  if to_file then begin
    let f = Filename.temp_file "sss" ".img" in
    let oc = open_out_bin f in
    output_bytes oc image;
    close_out oc;
    Sys.remove f
  end;
  Bytes.length image

type scheme = {
  scheme_name : string;
  in_memory : bool;
  incremental : bool;
  circuit_agnostic : bool;
}

(* Table I. *)
let schemes =
  [
    {
      scheme_name = "CRIU-like";
      in_memory = false;
      incremental = true;
      circuit_agnostic = true;
    };
    {
      scheme_name = "Verilator save/restore (SSS)";
      in_memory = false;
      incremental = false;
      circuit_agnostic = false;
    };
    {
      scheme_name = "LiveSim-like";
      in_memory = true;
      incremental = false;
      circuit_agnostic = false;
    };
    {
      scheme_name = "LightSSS";
      in_memory = true;
      incremental = true;
      circuit_agnostic = true;
    };
  ]
