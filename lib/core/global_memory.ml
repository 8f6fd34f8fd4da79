(* The Global Memory of the multi-core diff-rule (§III-B2b).

   Records every store that enters the cache hierarchy of a multi-hart
   DUT (store-buffer drains, SC and AMO writes, from all harts), with
   the drain cycle -- the "additional historical information" the
   paper's checker keeps.  DiffTest records nothing for a single hart:
   no other hart can have produced a value its loads see.

   When a single-core REF's load disagrees with the DUT, DiffTest
   consults this history: the DUT value is legal if, byte by byte, it
   matches either the currently drained value or a value that was only
   overwritten within the load's read window.  A value overwritten
   long before the load read memory can no longer legally be observed
   -- that is how the injected §IV-C stale-grant bug is reported as a
   "data mismatch between DUT and the Global Memory".

   Storage is word-granular (8-byte aligned) with per-entry byte
   masks, so the table stays proportional to the stored footprint in
   words, not bytes.  The key is the word index, [paddr lsr 3], as a
   plain int, so a lookup boxes nothing.  Recording a store allocates
   only its entry and list cell; pruning allocates only when it drops
   something. *)

module Word_table = Hashtbl.Make (Int)

type entry = {
  e_mask : int; (* which bytes of the word this store wrote *)
  e_value : int64; (* value positioned within the word *)
  e_cycle : int;
}

type t = { mutable words : entry list Word_table.t (* word index -> newest first *) }

(* Loads are judged at the cycle they read memory; the slack covers
   drain/check ordering inside one simulator tick. *)
let slack = 8

(* A superseded value must be retained while any load that read it can
   still be awaiting its commit-time check. *)
let retention = 8192

let create () = { words = Word_table.create (1 lsl 14) }

let history t word =
  match Word_table.find t.words word with
  | h -> h
  | exception Not_found -> []

(* Prune fully shadowed entries that can no longer matter: an entry is
   dead once every byte it covers was overwritten by entries all older
   than the retention horizon.  Walking newest first, [covered] holds
   the bytes some newer entry wrote and [recent] those whose nearest
   newer overwrite is within the horizon.  An unchanged list is
   returned as is. *)
let prune ~(now : int) (history : entry list) : entry list =
  let cutoff = now - retention in
  let rec go ~covered ~recent = function
    | [] -> []
    | e :: rest as l ->
        let useful =
          e.e_mask land lnot covered <> 0 || e.e_mask land recent <> 0
        in
        let rest' =
          go ~covered:(covered lor e.e_mask)
            ~recent:
              (if e.e_cycle >= cutoff then recent lor e.e_mask
               else recent land lnot e.e_mask)
            rest
        in
        if not useful then rest' else if rest' == rest then l else e :: rest'
  in
  go ~covered:0 ~recent:0 history

let record (t : t) ~(cycle : int) ~(paddr : int64) ~(size : int)
    ~(value : int64) =
  let base = Int64.to_int paddr in
  (* split into the (one or two) aligned words the store touches *)
  let rec go i =
    if i < size then begin
      let a = base + i in
      let word = a lsr 3 and lane = a land 7 in
      (* bytes of this store landing in this word *)
      let n = min (size - i) (8 - lane) in
      let mask = ((1 lsl n) - 1) lsl lane in
      let chunk =
        Int64.shift_left
          (Int64.logand
             (Int64.shift_right_logical value (8 * i))
             (if n >= 8 then -1L else Int64.sub (Int64.shift_left 1L (8 * n)) 1L))
          (8 * lane)
      in
      Word_table.replace t.words word
        ({ e_mask = mask; e_value = chunk; e_cycle = cycle }
        :: prune ~now:cycle (history t word));
      go (i + n)
    end
  in
  go 0

let byte_of v lane = Int64.to_int (Int64.shift_right_logical v (8 * lane)) land 0xFF

(* Legality of one byte (word index + lane) holding [b] for a load
   that read memory at cycle [at]. *)
let byte_ok (t : t) ~(at : int) ~(word : int) ~(lane : int) (b : int) :
    [ `Ok | `Stale | `Unrecorded ] =
  let rec go ~overwrite = function
    | [] -> if overwrite = max_int then `Unrecorded else `Stale
    | e :: rest ->
        if e.e_mask land (1 lsl lane) <> 0 then
          if byte_of e.e_value lane = b && overwrite >= at - slack then `Ok
          else go ~overwrite:e.e_cycle rest
        else go ~overwrite rest
  in
  go ~overwrite:max_int (history t word)

(* Is [value], read from memory at cycle [at], justifiable from the
   drained-store history?  Bytes never stored come from the initial
   image and are unconstrained. *)
let compatible (t : t) ~(at : int) ~(paddr : int64) ~(size : int)
    ~(value : int64) : bool =
  let base = Int64.to_int paddr in
  let ok = ref true in
  for i = 0 to size - 1 do
    let a = base + i in
    match byte_ok t ~at ~word:(a lsr 3) ~lane:(a land 7) (byte_of value i) with
    | `Ok | `Unrecorded -> ()
    | `Stale -> ok := false
  done;
  !ok

(* The currently drained value, if every byte has been stored. *)
let lookup (t : t) ~(paddr : int64) ~(size : int) : int64 option =
  let base = Int64.to_int paddr in
  let v = ref 0L in
  let all = ref true in
  for i = size - 1 downto 0 do
    let a = base + i in
    let lane = a land 7 in
    let byte =
      List.find_map
        (fun e ->
          if e.e_mask land (1 lsl lane) <> 0 then Some (byte_of e.e_value lane)
          else None)
        (history t (a lsr 3))
    in
    match byte with
    | Some b -> v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int b)
    | None -> all := false
  done;
  if !all then Some !v else None
