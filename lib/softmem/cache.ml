(* Coherent cache hierarchy, transaction-level.

   Abstraction (documented in DESIGN.md): data is write-through to the
   single backing physical memory, while each cache level runs a real
   coherence *metadata* state machine -- tags, permissions, an
   inclusive sharers directory, probes and grants -- and computes
   latencies.  This preserves everything the experiments observe:
   hit/miss and capacity behaviour (Figure 12's LLC sweep), coherence
   transactions for the diff-rules and the permission scoreboard
   (§III-B2b), probe traffic between cores, and the Acquire/Probe race
   window used to reproduce the §IV-C debugging case study (the
   injected bug captures the pre-write line image and serves it to the
   requesting core, exactly "L2 grants the wrong data upward to L1").

   Timing is accumulated along the recursive resolution of each
   transaction; concurrency across misses is modelled by the LSU,
   which keeps several transactions in flight (MSHR-style) with
   independent completion times. *)

type parent = Dram of Dram.t | Cache of t

and t = {
  name : string;
  sets : int;
  ways : int;
  line_shift : int;
  hit_latency : int;
  meta : Riscv.Cow_store.t; (* line metadata; layout below *)
  set_shift : int; (* log2 of a set's byte stride in [meta] *)
  mutable parent : parent;
  mutable children : t array;
  mutable child_id : int; (* index of this node among parent's children *)
  backing : Riscv.Memory.t;
  mutable sink : Event.sink;
  mutable now : int; (* advanced by the owner SoC every cycle *)
  (* fault injection for the §IV-C case study *)
  mutable bug_probe_race : bool;
  (* fault injection for the permission-scoreboard rules: grant Trunk
     without probing the other sharers first *)
  mutable bug_skip_probe : bool;
  poisoned : (int64, Bytes.t) Hashtbl.t;
  (* statistics *)
  mutable s_accesses : int;
  mutable s_misses : int;
  mutable s_refills : int;
  mutable s_probes : int;
  mutable s_evictions : int;
  (* MSHR-saturation probe: [mshr_cap] outstanding fills are free; a
     miss that begins while a fill window already holds [mshr_cap]
     overlapping fills counts as a saturation event.  0 = untracked. *)
  mutable mshr_cap : int;
  mutable fill_win_until : int;
  mutable fill_win_count : int;
  mutable s_mshr_sat : int;
}

let line_bytes t = 1 lsl t.line_shift

let line_addr t addr = Int64.shift_right_logical addr t.line_shift

let base_of_la t la = Int64.shift_left la t.line_shift

(* Line metadata lives in a COW store so LightSSS snapshots it by page
   table.  Layout: set-major, struct-of-arrays within a set -- field [f]
   of way [w] is the 8-byte word at [set_base + 8 * (f * ways + w)].  A
   set's stride is rounded up to a power of two, so a set never
   straddles a page.  All-zero is an invalid line: tags are stored as
   [la + 1] (0 = invalid), permissions by rank, owners as [child + 1]
   (0 = none).  A line handle is the byte offset of its tag word. *)
let f_tag = 0
let f_perm = 1
let f_sharers = 2 (* bitmask of children holding >= Branch *)
let f_owner = 3 (* child holding Trunk *)
let f_last_use = 4
let f_inflight = 5 (* fill outstanding until this cycle *)
let n_fields = 6

let[@inline] get t l f =
  Riscv.Cow_store.get_int t.meta (l + ((f * t.ways) lsl 3))

let[@inline] set t l f v =
  Riscv.Cow_store.set_int t.meta (l + ((f * t.ways) lsl 3)) v

let perm_of_rank = function
  | 0 -> Perm.Nothing
  | 1 -> Perm.Branch
  | _ -> Perm.Trunk

let tag t l = get t l f_tag - 1 (* -1 invalid *)
let perm t l = perm_of_rank (get t l f_perm)
let owner t l = get t l f_owner - 1 (* -1 none *)
let set_tag t l la = set t l f_tag (Int64.to_int la + 1)
let set_perm t l p = set t l f_perm (Perm.rank p)
let set_owner t l c = set t l f_owner (c + 1)

let create ~name ~size_bytes ~ways ~line_shift ~hit_latency ~backing () =
  let line_b = 1 lsl line_shift in
  let sets = max 1 (size_bytes / line_b / ways) in
  let rec log2_ceil n k = if 1 lsl k >= n then k else log2_ceil n (k + 1) in
  let set_shift = log2_ceil (n_fields * ways * 8) 3 in
  if set_shift > Riscv.Cow_store.page_bits then
    invalid_arg
      (Printf.sprintf "Cache.create %s: %d ways do not fit a page" name ways);
  {
    name;
    sets;
    ways;
    line_shift;
    hit_latency;
    meta = Riscv.Cow_store.create ~size:(sets lsl set_shift);
    set_shift;
    parent = Dram (Dram.create (Dram.Fixed_amat 100));
    children = [||];
    child_id = 0;
    backing;
    sink = Event.null_sink;
    now = 0;
    bug_probe_race = false;
    bug_skip_probe = false;
    poisoned = Hashtbl.create 8;
    s_accesses = 0;
    s_misses = 0;
    s_refills = 0;
    s_probes = 0;
    s_evictions = 0;
    mshr_cap = 0;
    fill_win_until = 0;
    fill_win_count = 0;
    s_mshr_sat = 0;
  }

let set_parent child parent =
  child.parent <- Cache parent;
  parent.children <- Array.append parent.children [| child |];
  child.child_id <- Array.length parent.children - 1

let set_dram node dram = node.parent <- Dram dram

(* Propagate the event sink and clock down a hierarchy. *)
let rec iter_tree node f =
  f node;
  Array.iter (fun c -> iter_tree c f) node.children

let emit t xact ~child ~la =
  t.sink { Event.cycle = t.now; node = t.name; child; xact; addr = base_of_la t la }

(* [la]'s set: its base handle, its page and the set's offset there.  A
   set sits in one page, so a scan of it reads the page once. *)
let[@inline] set_page t la =
  let base = (Int64.to_int la mod t.sets) lsl t.set_shift in
  ( base,
    Riscv.Cow_store.read_page t.meta (base lsr Riscv.Cow_store.page_bits),
    base land Riscv.Cow_store.page_mask )

(* Field [f] of way [w], read from the set's page. *)
let[@inline] field t d off f w =
  Int64.to_int (Bytes.get_int64_le d (off + (((f * t.ways) + w) lsl 3)))

(* The way holding [la] with a valid permission, or -1. *)
let lookup t la : int =
  let base, d, off = set_page t la in
  let key = Int64.to_int la + 1 in
  let rec go w =
    if w >= t.ways then -1
    else if field t d off f_tag w = key && field t d off f_perm w <> 0 then
      base + (w lsl 3)
    else go (w + 1)
  in
  go 0

(* The first invalid way, else the least recently used one (the lowest
   way on ties). *)
let victim t la : int =
  let base, d, off = set_page t la in
  let rec go w best oldest =
    if w >= t.ways then base + (best lsl 3)
    else if field t d off f_perm w = 0 then base + (w lsl 3)
    else
      let u = field t d off f_last_use w in
      if u < oldest then go (w + 1) w u else go (w + 1) best oldest
  in
  go 0 0 (field t d off f_last_use 0)

(* Every line handle, set by set, way by way. *)
let iter_lines t f =
  for s = 0 to t.sets - 1 do
    for w = 0 to t.ways - 1 do
      f ((s lsl t.set_shift) + (w lsl 3))
    done
  done

(* Fault injection: corrupt the data image of up to [max] valid lines
   in this node, as if a Grant delivered bit-flipped payload.  Uses
   the same poisoned-line machinery as the §IV-C bug: reads consult
   the poison image, a write to the line heals it.  Returns the number
   of lines corrupted. *)
let corrupt_lines (t : t) ~max : int =
  let n = ref 0 in
  iter_lines t (fun l ->
      let la = Int64.of_int (tag t l) in
      if !n < max && la >= 0L && get t l f_perm <> 0
         && not (Hashtbl.mem t.poisoned la)
      then begin
        let buf = Bytes.create (line_bytes t) in
        let base = base_of_la t la in
        for i = 0 to line_bytes t - 1 do
          Bytes.set buf i
            (Char.chr
               (Riscv.Memory.read_u8 t.backing (Int64.add base (Int64.of_int i))
               lxor 0xA5))
        done;
        Hashtbl.replace t.poisoned la buf;
        incr n
      end);
  !n

(* Downgrade [t]'s copy (and its whole subtree) to [to_perm].
   Returns the latency of the probe. *)
let rec probe (t : t) ~la ~(to_perm : Perm.t) : int =
  t.s_probes <- t.s_probes + 1;
  emit t (Perm.Probe to_perm) ~child:(-1) ~la;
  let l = lookup t la in
  if l < 0 then begin
    emit t (Perm.Probe_ack to_perm) ~child:(-1) ~la;
    1
  end
  else begin
    (* forward to children first (inclusive hierarchy) *)
    let child_lat = ref 0 in
    Array.iteri
      (fun i c ->
        if get t l f_sharers land (1 lsl i) <> 0 then
          child_lat := max !child_lat (probe c ~la ~to_perm))
      t.children;
    (* the injected L2 MSHR arbitration bug: a Probe overlapping an
       in-flight Acquire on the same block captures the pre-write
       data image, which later Grants serve upward *)
    if t.bug_probe_race && get t l f_inflight > t.now then begin
      let buf = Bytes.create (line_bytes t) in
      let base = base_of_la t la in
      for i = 0 to line_bytes t - 1 do
        Bytes.set buf i
          (Char.chr
             (Riscv.Memory.read_u8 t.backing (Int64.add base (Int64.of_int i))))
      done;
      Hashtbl.replace t.poisoned la buf
    end;
    (match to_perm with
    | Perm.Nothing ->
        set t l f_tag 0;
        set t l f_perm 0;
        set t l f_sharers 0;
        set t l f_owner 0
    | Perm.Branch ->
        if get t l f_perm > Perm.rank Perm.Branch then set_perm t l Perm.Branch;
        set t l f_owner 0
    | Perm.Trunk -> invalid_arg "probe to Trunk");
    emit t (Perm.Probe_ack to_perm) ~child:(-1) ~la;
    !child_lat + 1
  end

(* Notify the parent that [t] no longer holds [la] (eviction). *)
let release_to_parent (t : t) ~la =
  emit t Perm.Release ~child:(-1) ~la;
  match t.parent with
  | Dram _ -> ()
  | Cache p ->
      let l = lookup p la in
      if l >= 0 then begin
        set p l f_sharers (get p l f_sharers land lnot (1 lsl t.child_id));
        if owner p l = t.child_id then set p l f_owner 0
      end

(* One more outstanding fill, completing at [until]: misses landing
   inside a window where fills are still in flight model MSHR
   occupancy; exceeding [mshr_cap] concurrent fills is a saturation
   event (the D$ would have stalled the pipeline). *)
let note_fill (t : t) ~until =
  if t.mshr_cap > 0 then begin
    if t.now < t.fill_win_until then begin
      t.fill_win_count <- t.fill_win_count + 1;
      if t.fill_win_count > t.mshr_cap then t.s_mshr_sat <- t.s_mshr_sat + 1
    end
    else t.fill_win_count <- 1;
    if until > t.fill_win_until then t.fill_win_until <- until
  end

(* Make this node itself hold [la] with at least [want].
   Returns latency. *)
let rec ensure (t : t) ~la ~(want : Perm.t) : int =
  t.s_accesses <- t.s_accesses + 1;
  let l = lookup t la in
  if l >= 0 && Perm.at_least (perm t l) want then begin
    set t l f_last_use t.now;
    t.hit_latency
  end
  else if l >= 0 then begin
    (* permission upgrade: a miss, but no line install (refill) *)
    t.s_misses <- t.s_misses + 1;
    let pl = acquire_from_parent t ~la ~want in
    fill t l ~want ~pl
  end
  else begin
    t.s_misses <- t.s_misses + 1;
    t.s_refills <- t.s_refills + 1;
    let v = victim t la in
    if get t v f_perm <> 0 then begin
      t.s_evictions <- t.s_evictions + 1;
      (* inclusive eviction: purge the subtree, tell the parent *)
      let old = Int64.of_int (tag t v) in
      Array.iteri
        (fun i c ->
          if get t v f_sharers land (1 lsl i) <> 0 then
            ignore (probe c ~la:old ~to_perm:Perm.Nothing))
        t.children;
      release_to_parent t ~la:old
    end;
    let pl = acquire_from_parent t ~la ~want in
    set_tag t v la;
    set t v f_sharers 0;
    set t v f_owner 0;
    fill t v ~want ~pl
  end

(* Line [l] now holds [want], its fill landing [pl] cycles after the
   lookup.  Returns the access latency. *)
and fill (t : t) l ~want ~pl =
  let until = t.now + t.hit_latency + pl in
  set_perm t l want;
  set t l f_last_use t.now;
  set t l f_inflight until;
  note_fill t ~until;
  t.hit_latency + pl

and acquire_from_parent (t : t) ~la ~want : int =
  emit t (Perm.Acquire want) ~child:(-1) ~la;
  match t.parent with
  | Dram d -> Dram.access d ~now:t.now ~addr:(base_of_la t la)
  | Cache p -> acquire p ~la ~want ~child:t.child_id

(* A child requests [want] on [la] from [p]. Returns latency. *)
and acquire (p : t) ~la ~want ~child : int =
  let self_lat = ensure p ~la ~want in
  let probe_lat = ref 0 in
  let l = lookup p la in
  assert (l >= 0) (* ensure just installed it *);
  (match want with
  | Perm.Trunk ->
      if not p.bug_skip_probe then
        Array.iteri
          (fun i c ->
            if i <> child && get p l f_sharers land (1 lsl i) <> 0 then begin
              probe_lat := max !probe_lat (probe c ~la ~to_perm:Perm.Nothing);
              set p l f_sharers (get p l f_sharers land lnot (1 lsl i))
            end)
          p.children;
      set_owner p l child
  | Perm.Branch ->
      let o = owner p l in
      if o >= 0 && o <> child then begin
        probe_lat :=
          max !probe_lat (probe p.children.(o) ~la ~to_perm:Perm.Branch);
        set p l f_owner 0
      end
  | Perm.Nothing -> ());
  set p l f_sharers (get p l f_sharers lor (1 lsl child));
  emit p (Perm.Grant want) ~child ~la;
  (* the buggy grant path: serve poisoned data to the child *)
  (if Hashtbl.mem p.poisoned la then
     match Hashtbl.find_opt p.poisoned la with
     | Some buf ->
         Hashtbl.replace p.children.(child).poisoned la (Bytes.copy buf)
     | None -> ());
  self_lat + !probe_lat

(* ---- core-facing interface (called on an L1 node) ------------------- *)

let poisoned_value t ~la ~addr ~size : int64 option =
  match Hashtbl.find_opt t.poisoned la with
  | None -> None
  | Some buf ->
      let off = Int64.to_int (Int64.sub addr (base_of_la t la)) in
      if off + size > Bytes.length buf then None
      else begin
        let v = ref 0L in
        for i = size - 1 downto 0 do
          v :=
            Int64.logor
              (Int64.shift_left !v 8)
              (Int64.of_int (Char.code (Bytes.get buf (off + i))))
        done;
        Some !v
      end

(* Read [size] bytes; returns (value, latency). *)
let read (t : t) ~addr ~size : int64 * int =
  let la = line_addr t addr in
  let lat = ensure t ~la ~want:Perm.Branch in
  let v =
    match poisoned_value t ~la ~addr ~size with
    | Some v -> v
    | None -> Riscv.Memory.read_bytes_le t.backing addr size
  in
  (v, lat)

(* Write [size] bytes; returns latency.  Write-through to backing. *)
let write (t : t) ~addr ~size v : int =
  let la = line_addr t addr in
  let lat = ensure t ~la ~want:Perm.Trunk in
  Hashtbl.remove t.poisoned la;
  Riscv.Memory.write_bytes_le t.backing addr size v;
  lat

(* Read-only probe of latency without a data value (instruction fetch). *)
let fetch (t : t) ~addr : int =
  let la = line_addr t addr in
  ensure t ~la ~want:Perm.Branch

let invalidate_all (t : t) =
  iter_tree t (fun n ->
      iter_lines n (fun l ->
          List.iter
            (fun f -> if get n l f <> 0 then set n l f 0)
            [ f_tag; f_perm; f_sharers; f_owner ]);
      Hashtbl.reset n.poisoned)

let tick (t : t) = t.now <- t.now + 1

let set_now (t : t) n = t.now <- n

type stats = {
  accesses : int;
  misses : int;
  refills : int; (* line installs; a permission-upgrade miss is not a refill *)
  probes : int;
  evictions : int;
  mshr_saturated : int;
}

let stats t =
  {
    accesses = t.s_accesses;
    misses = t.s_misses;
    refills = t.s_refills;
    probes = t.s_probes;
    evictions = t.s_evictions;
    mshr_saturated = t.s_mshr_sat;
  }

let set_mshrs t n = t.mshr_cap <- max 0 n
