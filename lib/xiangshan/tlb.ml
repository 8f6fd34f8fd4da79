(* L1 TLBs + STLB + hardware page-table walker.

   The walker reads PTEs *through the cache hierarchy* (its own port
   below L2, like XiangShan's PTW), so it sees memory as of the last
   store-buffer drain -- not the core's committed-but-undrained
   stores.  Combined with the deliberate caching of failed
   translations until an sfence.vma, this reproduces the speculative
   page-fault behaviour of Figure 3: the micro-kernel's lazy PTE write
   can be retired but not yet visible when the walker runs, and the
   resulting (legal!) page fault diverges from the REF until the
   page-fault diff-rule reconciles them. *)

open Riscv

type mapping = {
  ppn : int64; (* 4K-granular physical page number *)
  pte_flags : int64; (* leaf PTE bits for permission checks *)
}

module Cow = Riscv.Cow_store

(* A fully associative array of [n] entries in a COW store, so LightSSS
   snapshots it by page table.  Struct-of-arrays: field [f] of entry
   [i] is the word at byte [8 * (f * n + i)].  All-zero is an invalid
   entry: the vpn is stored as [vpn + 1] (0 = invalid) and the result
   as a kind word (0 = a cached fault, 1 = a mapping) plus the
   mapping's ppn and PTE flags. *)
type tlb_array = { store : Cow.t; n : int; mutable clock : int }

let f_vpn = 0
let f_kind = 1
let f_ppn = 2
let f_flags = 3
let f_lru = 4

let make_array n = { store = Cow.create ~size:(5 * n * 8); n; clock = 0 }

let[@inline] word a f i = ((f * a.n) + i) lsl 3
let get a f i = Cow.get_int64 a.store (word a f i)
let set a f i v = Cow.set_int64 a.store (word a f i) v

let result a i : (mapping, unit) result =
  if Int64.equal (get a f_kind i) 0L then Error ()
  else Ok { ppn = get a f_ppn i; pte_flags = get a f_flags i }

(* Entries [i, i + m) of field [f] lie in one page: that page, the byte
   offset of entry [i] in it, and [m].  The scans below read each page
   once instead of resolving every word. *)
let[@inline] run a f i =
  let off = word a f i in
  let p = off land Cow.page_mask in
  ( Cow.read_page a.store (off lsr Cow.page_bits),
    p,
    min (a.n - i) ((Cow.page_size - p) lsr 3) )

let touch a i =
  a.clock <- a.clock + 1;
  Cow.set_int a.store (word a f_lru i) a.clock

(* Every matching entry is touched, in index order; the last one
   answers. *)
let arr_lookup (a : tlb_array) vpn =
  let key = Int64.succ vpn in
  let found = ref (-1) and hits = ref 0 and i = ref 0 in
  while !i < a.n do
    let d, p, m = run a f_vpn !i in
    for j = 0 to m - 1 do
      if Int64.equal (Bytes.get_int64_le d (p + (j lsl 3))) key then begin
        incr hits;
        found := !i + j
      end
    done;
    i := !i + m
  done;
  if !hits = 0 then None
  else begin
    if !hits = 1 then touch a !found
    else
      for k = 0 to a.n - 1 do
        if Int64.equal (get a f_vpn k) key then touch a k
      done;
    Some (result a !found)
  end

(* Replace the least recently used entry (the lowest index on ties). *)
let arr_insert (a : tlb_array) vpn res =
  a.clock <- a.clock + 1;
  let victim = ref 0 and oldest = ref max_int and i = ref 0 in
  while !i < a.n do
    let d, p, m = run a f_lru !i in
    for j = 0 to m - 1 do
      let v = Int64.to_int (Bytes.get_int64_le d (p + (j lsl 3))) in
      if v < !oldest then begin
        oldest := v;
        victim := !i + j
      end
    done;
    i := !i + m
  done;
  let i = !victim in
  set a f_vpn i (Int64.succ vpn);
  (match res with
  | Ok m ->
      set a f_kind i 1L;
      set a f_ppn i m.ppn;
      set a f_flags i m.pte_flags
  | Error () -> set a f_kind i 0L);
  Cow.set_int a.store (word a f_lru i) a.clock

(* Invalidate every entry, keeping the LRU stamps; pages never written
   stay unallocated. *)
let arr_flush (a : tlb_array) =
  for i = 0 to a.n - 1 do
    if not (Int64.equal (get a f_vpn i) 0L) then set a f_vpn i 0L;
    if not (Int64.equal (get a f_kind i) 0L) then set a f_kind i 0L
  done

type t = {
  itlb : tlb_array;
  dtlb : tlb_array;
  stlb : tlb_array;
  ptw_port : Softmem.Cache.t;
  mutable walks : int;
  mutable itlb_misses : int;
  mutable dtlb_misses : int;
  mutable stlb_hits : int; (* L1 misses served by the shared L2 TLB *)
  mutable cached_fault_hits : int;
}

let create (cfg : Config.t) ~ptw_port =
  {
    itlb = make_array cfg.itlb_entries;
    dtlb = make_array cfg.dtlb_entries;
    stlb = make_array cfg.stlb_entries;
    ptw_port;
    walks = 0;
    itlb_misses = 0;
    dtlb_misses = 0;
    stlb_hits = 0;
    cached_fault_hits = 0;
  }

let flush t =
  arr_flush t.itlb;
  arr_flush t.dtlb;
  arr_flush t.stlb

(* Fault injection: force the low ppn bit of every cached data-side
   mapping (dtlb + stlb), as if a PTE write had been missed -- loads
   and stores then hit the neighbouring physical page while the walker
   and the REF still agree on the real one.  The itlb is left intact
   so the corruption surfaces as data divergence, not fetch garbage.
   OR rather than XOR so a periodic re-injection never heals an
   already-corrupted entry.  Returns the entries newly corrupted. *)
let corrupt_data_ppn (t : t) : int =
  let n = ref 0 in
  let corrupt (a : tlb_array) =
    for i = 0 to a.n - 1 do
      if (not (Int64.equal (get a f_vpn i) 0L))
         && Int64.equal (get a f_kind i) 1L
         && Int64.logand (get a f_ppn i) 1L = 0L
      then begin
        set a f_ppn i (Int64.logor (get a f_ppn i) 1L);
        incr n
      end
    done
  in
  corrupt t.dtlb;
  corrupt t.stlb;
  !n

let stores t = [ t.itlb.store; t.dtlb.store; t.stlb.store ]

type access = Fetch | Load | Store

let fault_of = function
  | Fetch -> Trap.Fetch_page_fault
  | Load -> Trap.Load_page_fault
  | Store -> Trap.Store_page_fault

type outcome =
  | Translated of int64 (* physical address *)
  | Page_fault of Trap.exc * int64

(* Hardware walk via the cache port; returns the 4K mapping or a fault,
   plus accumulated latency. *)
let walk (t : t) (csr : Csr.t) (va : int64) : (mapping, unit) result * int =
  t.walks <- t.walks + 1;
  if not (Pte.va_canonical va) then (Error (), 4)
  else begin
    let lat = ref 4 (* walker occupancy *) in
    let rec step level table_pa =
      if level < 0 then Error ()
      else begin
        let pte_pa = Int64.add table_pa (Int64.of_int (8 * Pte.vpn va level)) in
        let pte, l = Softmem.Cache.read t.ptw_port ~addr:pte_pa ~size:8 in
        lat := !lat + l;
        if not (Pte.valid pte) then Error ()
        else if (not (Pte.readable pte)) && Pte.writable pte then Error ()
        else if Pte.is_leaf pte then begin
          let ppn = Pte.ppn pte in
          if
            level > 0
            && Int64.logand ppn (Int64.of_int ((1 lsl (9 * level)) - 1)) <> 0L
          then Error ()
          else begin
            (* form the 4K-level ppn for this va *)
            let low_vpns =
              match level with
              | 0 -> 0L
              | 1 -> Int64.of_int (Pte.vpn va 0)
              | _ -> Int64.of_int ((Pte.vpn va 1 lsl 9) lor Pte.vpn va 0)
            in
            Ok { ppn = Int64.add ppn low_vpns; pte_flags = pte }
          end
        end
        else step (level - 1) (Pte.pa_of_ppn (Pte.ppn pte))
      end
    in
    let r = step (Pte.levels - 1) (Pte.root_of_satp csr.Csr.reg_satp) in
    (r, !lat)
  end

let check_perms (csr : Csr.t) (m : mapping) (access : access) : bool =
  let pte = m.pte_flags in
  let sum = Csr.get_bit csr.Csr.reg_mstatus Csr.st_sum in
  let mxr = Csr.get_bit csr.Csr.reg_mstatus Csr.st_mxr in
  let type_ok =
    match access with
    | Fetch -> Pte.executable pte
    | Load -> Pte.readable pte || (mxr && Pte.executable pte)
    | Store -> Pte.writable pte
  in
  let priv_ok =
    match csr.Csr.priv with
    | Csr.U -> Pte.user pte
    | Csr.S -> (not (Pte.user pte)) || (sum && access <> Fetch)
    | Csr.M -> true
  in
  type_ok && priv_ok

(* Translate [va]; returns the outcome and the latency in cycles. *)
let translate (t : t) (csr : Csr.t) (va : int64) (access : access) :
    outcome * int =
  let active = csr.Csr.priv <> Csr.M && Pte.satp_mode csr.Csr.reg_satp = 8 in
  if not active then (Translated va, 0)
  else begin
    let vpn = Int64.shift_right_logical va 12 in
    let l1 = match access with Fetch -> t.itlb | Load | Store -> t.dtlb in
    let res, lat =
      match arr_lookup l1 vpn with
      | Some r -> (r, 0)
      | None -> (
          (match access with
          | Fetch -> t.itlb_misses <- t.itlb_misses + 1
          | Load | Store -> t.dtlb_misses <- t.dtlb_misses + 1);
          match arr_lookup t.stlb vpn with
          | Some r ->
              t.stlb_hits <- t.stlb_hits + 1;
              arr_insert l1 vpn r;
              (r, 2)
          | None ->
              let r, wl = walk t csr va in
              (* invalid PTEs are allowed to be cached (Figure 3) *)
              arr_insert t.stlb vpn r;
              arr_insert l1 vpn r;
              (r, 2 + wl))
    in
    match res with
    | Error () ->
        t.cached_fault_hits <- t.cached_fault_hits + 1;
        (Page_fault (fault_of access, va), lat)
    | Ok m ->
        if check_perms csr m access then
          (Translated (Int64.logor (Pte.pa_of_ppn m.ppn) (Int64.logand va 0xFFFL)), lat)
        else (Page_fault (fault_of access, va), lat)
  end
