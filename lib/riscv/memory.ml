(* Paged physical memory: byte-addressed accessors over a
   {!Cow_store}.

   The store supplies the pages, their lazy allocation, copy-on-write
   snapshots and the last-page caches; this module adds the physical
   base address, bounds checks and the access widths.  LightSSS
   snapshots the store together with every other COW store of the
   simulator, and the SSS baseline deliberately bypasses it with a full
   image copy.

   The common widths go through [Bytes.get/set_int64_le]-family
   primitives on a single page rather than byte-at-a-time assembly
   (the interpreter engines' memory fast path); accesses that straddle
   a page fall back to byte-by-byte. *)

type t = { base : int64; (* physical base address *) store : Cow_store.t }

let page_size = Cow_store.page_size

let page_mask = page_size - 1

let create ~base ~size () = { base; store = Cow_store.create ~size }

(* inline, not a call: every bounds check reads it *)
let[@inline] size t = t.store.Cow_store.n_pages lsl Cow_store.page_bits

let base t = t.base

let in_range t addr =
  let off = Int64.sub addr t.base in
  off >= 0L && off < Int64.of_int (size t)

let offset_exn t addr =
  let off = Int64.to_int (Int64.sub addr t.base) in
  if off < 0 || off >= size t then
    invalid_arg
      (Printf.sprintf "Memory: physical address 0x%Lx out of range" addr);
  off

let[@inline] read_page t idx = Cow_store.read_page t.store idx

let[@inline] write_page t idx = Cow_store.write_page t.store idx

let read_u8 t addr =
  let off = offset_exn t addr in
  Char.code
    (Bytes.unsafe_get
       (read_page t (off lsr Cow_store.page_bits))
       (off land page_mask))

let write_u8 t addr v =
  let off = offset_exn t addr in
  Bytes.unsafe_set
    (write_page t (off lsr Cow_store.page_bits))
    (off land page_mask)
    (Char.chr (v land 0xFF))

let read_bytes_slow t addr n =
  let rec go acc i =
    if i < 0 then acc
    else
      go
        (Int64.logor
           (Int64.shift_left acc 8)
           (Int64.of_int (read_u8 t (Int64.add addr (Int64.of_int i)))))
        (i - 1)
  in
  go 0L (n - 1)

let write_bytes_slow t addr n v =
  for i = 0 to n - 1 do
    write_u8 t
      (Int64.add addr (Int64.of_int i))
      (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF)
  done

let read_u64 t addr =
  let off = offset_exn t addr in
  let poff = off land page_mask in
  if poff + 8 <= page_size then
    Bytes.get_int64_le (read_page t (off lsr Cow_store.page_bits)) poff
  else read_bytes_slow t addr 8

let read_u32 t addr =
  let off = offset_exn t addr in
  let poff = off land page_mask in
  if poff + 4 <= page_size then
    Int32.to_int
      (Bytes.get_int32_le (read_page t (off lsr Cow_store.page_bits)) poff)
    land 0xFFFFFFFF
  else Int64.to_int (read_bytes_slow t addr 4)

let read_u16 t addr =
  let off = offset_exn t addr in
  let poff = off land page_mask in
  if poff + 2 <= page_size then
    Bytes.get_uint16_le (read_page t (off lsr Cow_store.page_bits)) poff
  else Int64.to_int (read_bytes_slow t addr 2)

let write_u64 t addr v =
  let off = offset_exn t addr in
  let poff = off land page_mask in
  if poff + 8 <= page_size then
    Bytes.set_int64_le (write_page t (off lsr Cow_store.page_bits)) poff v
  else write_bytes_slow t addr 8 v

let write_u32 t addr v =
  let off = offset_exn t addr in
  let poff = off land page_mask in
  if poff + 4 <= page_size then
    Bytes.set_int32_le
      (write_page t (off lsr Cow_store.page_bits))
      poff (Int32.of_int v)
  else write_bytes_slow t addr 4 (Int64.of_int (v land 0xFFFFFFFF))

let write_u16 t addr v =
  let off = offset_exn t addr in
  let poff = off land page_mask in
  if poff + 2 <= page_size then
    Bytes.set_uint16_le
      (write_page t (off lsr Cow_store.page_bits))
      poff (v land 0xFFFF)
  else write_bytes_slow t addr 2 (Int64.of_int (v land 0xFFFF))

let read_bytes_le t addr n =
  match n with
  | 8 -> read_u64 t addr
  | 4 -> Int64.of_int (read_u32 t addr)
  | 2 -> Int64.of_int (read_u16 t addr)
  | 1 -> Int64.of_int (read_u8 t addr)
  | _ ->
      ignore (offset_exn t addr);
      read_bytes_slow t addr n

let write_bytes_le t addr n v =
  match n with
  | 8 -> write_u64 t addr v
  | 4 -> write_u32 t addr (Int64.to_int v land 0xFFFFFFFF)
  | 2 -> write_u16 t addr (Int64.to_int v land 0xFFFF)
  | 1 -> write_u8 t addr (Int64.to_int v land 0xFF)
  | _ ->
      ignore (offset_exn t addr);
      write_bytes_slow t addr n v

let load_program t ~addr (words : int32 array) =
  Array.iteri
    (fun i w ->
      write_u32 t
        (Int64.add addr (Int64.of_int (4 * i)))
        (Int32.to_int w land 0xFFFFFFFF))
    words

let snapshot t = Cow_store.snapshot t.store

let restore t s = Cow_store.restore t.store s

let release_snapshot = Cow_store.release

let deep_copy t = { t with store = Cow_store.deep_copy t.store }

let allocated_pages t = Cow_store.allocated_pages t.store

type stats = Cow_store.stats = {
  cow_faults : int;
  pages_allocated : int;
  snapshots : int;
}

let stats t = Cow_store.stats t.store

let reset_stats t = Cow_store.reset_stats t.store
