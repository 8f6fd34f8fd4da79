(* Paged copy-on-write byte store: the one COW mechanism of the
   simulator.

   This is the software analogue of a Linux process address space: a
   snapshot copies only the page table (like [fork] copying the PCB and
   page tables) and marks every page shared; the first write to a
   shared page copies it (a COW fault).  Simulated physical memory
   ({!Memory}) and the large fixed-size micro-architectural tables
   (cache-line metadata, predictor tables, TLB entries) all live in
   stores of this type, so a LightSSS snapshot of them costs their page
   tables plus the pages written since the previous snapshot.

   Pages are allocated lazily: a page that has never been written reads
   as zero and costs nothing to snapshot.  Tables encode their fields so
   that all-zero is the reset state.

   A one-entry last-page cache (separate for reads and writes) skips the
   page-table indexing on sequential access.  The caches are invalidated
   whenever the page array or a page's backing store changes (COW,
   snapshot restore, detach). *)

let page_bits = 12

let page_size = 1 lsl page_bits

let page_mask = page_size - 1

type page = { data : Bytes.t; mutable rc : int }

type t = {
  n_pages : int;
  mutable pages : page option array;
  (* indices of the allocated pages, in allocation order: a snapshot
     walks these, not the whole page table *)
  mutable live : int array;
  mutable n_live : int;
  (* last-page caches: [cache_*_idx] = -1 when invalid *)
  mutable cache_r_idx : int;
  mutable cache_r_data : Bytes.t;
  mutable cache_w_idx : int;
  mutable cache_w_data : Bytes.t;
  (* statistics *)
  mutable stat_cow_faults : int;
  mutable stat_pages_allocated : int;
  mutable stat_snapshots : int;
}

(* The allocated pages at snapshot time and their indices. *)
type snapshot = { s_idx : int array; s_pages : page array }

(* The read view of every never-written page.  Module-level rather than
   per store, so a detached store marshals without it; never cached,
   never written. *)
let zero = Bytes.make page_size '\000'

let create ~size =
  let n_pages = (size + page_size - 1) / page_size in
  {
    n_pages;
    pages = Array.make n_pages None;
    live = [||];
    n_live = 0;
    cache_r_idx = -1;
    cache_r_data = Bytes.empty;
    cache_w_idx = -1;
    cache_w_data = Bytes.empty;
    stat_cow_faults = 0;
    stat_pages_allocated = 0;
    stat_snapshots = 0;
  }

(* Also drops the [Bytes.t] references so a detached store does not
   smuggle page data into a marshalled image. *)
let invalidate_caches t =
  t.cache_r_idx <- -1;
  t.cache_r_data <- Bytes.empty;
  t.cache_w_idx <- -1;
  t.cache_w_data <- Bytes.empty

(* Read path: never allocates. *)
let[@inline] read_page t idx =
  if idx = t.cache_r_idx then t.cache_r_data
  else
    match Array.unsafe_get t.pages idx with
    | Some p ->
        t.cache_r_idx <- idx;
        t.cache_r_data <- p.data;
        p.data
    | None -> zero

(* Write path: allocate on demand and resolve COW sharing. *)
let page_rw t idx =
  match t.pages.(idx) with
  | None ->
      let p = { data = Bytes.make page_size '\000'; rc = 1 } in
      t.pages.(idx) <- Some p;
      if t.n_live = Array.length t.live then begin
        let grown = Array.make (max 8 (2 * t.n_live)) 0 in
        Array.blit t.live 0 grown 0 t.n_live;
        t.live <- grown
      end;
      t.live.(t.n_live) <- idx;
      t.n_live <- t.n_live + 1;
      t.stat_pages_allocated <- t.stat_pages_allocated + 1;
      p
  | Some p ->
      if p.rc > 1 then begin
        let fresh = { data = Bytes.copy p.data; rc = 1 } in
        p.rc <- p.rc - 1;
        t.pages.(idx) <- Some fresh;
        t.stat_cow_faults <- t.stat_cow_faults + 1;
        (* the old bytes stop receiving writes: drop any cached view *)
        if t.cache_r_idx = idx then t.cache_r_idx <- -1;
        fresh
      end
      else p

let[@inline] write_page t idx =
  if idx = t.cache_w_idx then t.cache_w_data
  else begin
    let p = page_rw t idx in
    t.cache_w_idx <- idx;
    t.cache_w_data <- p.data;
    p.data
  end

(* --- 8-byte words, for tables ------------------------------------- *)

(* [off] is a byte offset, 8-aligned, so a word never straddles a
   page. *)
let[@inline] get_int64 t off =
  Bytes.get_int64_le (read_page t (off lsr page_bits)) (off land page_mask)

let[@inline] set_int64 t off v =
  Bytes.set_int64_le (write_page t (off lsr page_bits)) (off land page_mask) v

let[@inline] get_int t off = Int64.to_int (get_int64 t off)

let[@inline] set_int t off v = set_int64 t off (Int64.of_int v)

(* --- snapshots ---------------------------------------------------- *)

let page t idx =
  match t.pages.(idx) with Some p -> p | None -> assert false

(* O(allocated pages). *)
let snapshot t =
  let s_idx = Array.sub t.live 0 t.n_live in
  let s_pages =
    Array.map
      (fun idx ->
        let p = page t idx in
        p.rc <- p.rc + 1;
        p)
      s_idx
  in
  t.stat_snapshots <- t.stat_snapshots + 1;
  (* shared pages must COW on the next write *)
  t.cache_w_idx <- -1;
  { s_idx; s_pages }

let release (s : snapshot) = Array.iter (fun p -> p.rc <- p.rc - 1) s.s_pages

let restore t (s : snapshot) =
  (* a store unmarshalled from a LightSSS image has no page array yet *)
  if Array.length t.pages <> t.n_pages then t.pages <- Array.make t.n_pages None;
  for k = 0 to t.n_live - 1 do
    let idx = t.live.(k) in
    let p = page t idx in
    p.rc <- p.rc - 1;
    t.pages.(idx) <- None
  done;
  (* The snapshot keeps its reference so it can be restored again. *)
  Array.iteri
    (fun k idx ->
      let p = s.s_pages.(k) in
      p.rc <- p.rc + 1;
      t.pages.(idx) <- Some p)
    s.s_idx;
  t.live <- Array.copy s.s_idx;
  t.n_live <- Array.length s.s_idx;
  invalidate_caches t

let with_pages_detached ts f =
  let saved =
    List.map
      (fun t ->
        let saved = (t.pages, t.live, t.n_live) in
        t.pages <- [||];
        t.live <- [||];
        t.n_live <- 0;
        invalidate_caches t;
        saved)
      ts
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter2
        (fun t (pages, live, n_live) ->
          t.pages <- pages;
          t.live <- live;
          t.n_live <- n_live;
          invalidate_caches t)
        ts saved)
    f

(* Full deep copy: the SSS baseline.  O(data) rather than O(page
   table). *)
let deep_copy t =
  {
    t with
    pages =
      Array.map
        (Option.map (fun p -> { data = Bytes.copy p.data; rc = 1 }))
        t.pages;
    live = Array.copy t.live;
    cache_r_idx = -1;
    cache_r_data = Bytes.empty;
    cache_w_idx = -1;
    cache_w_data = Bytes.empty;
  }

let allocated_pages t = t.n_live

type stats = { cow_faults : int; pages_allocated : int; snapshots : int }

let stats t =
  {
    cow_faults = t.stat_cow_faults;
    pages_allocated = t.stat_pages_allocated;
    snapshots = t.stat_snapshots;
  }

let reset_stats t =
  t.stat_cow_faults <- 0;
  t.stat_pages_allocated <- 0;
  t.stat_snapshots <- 0
