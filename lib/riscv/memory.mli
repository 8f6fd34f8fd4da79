(** Paged physical memory: byte-addressed accessors over a
    {!Cow_store}.

    The store supplies the pages, their lazy allocation (never-written
    memory reads as zero), copy-on-write snapshots and the last-page
    caches; this module adds the physical base address, bounds checks
    and the access widths.  LightSSS snapshots [store] together with
    every other COW store of the simulator; the SSS baseline
    deliberately deep-copies instead.

    Common-width accesses resolve to a single
    [Bytes.get/set_int64_le]-family primitive on the page's backing
    store.  The representation is exposed so interpreter fast paths can
    probe the store's last-page caches inline. *)

type t = { base : int64; store : Cow_store.t }

val create : base:int64 -> size:int -> unit -> t
(** 4 KiB pages ({!Cow_store.page_bits}). *)

val size : t -> int

val base : t -> int64

val in_range : t -> int64 -> bool

(** {1 Access}

    Multi-byte accessors are little-endian and may straddle page
    boundaries.  All raise [Invalid_argument] out of range. *)

val read_u8 : t -> int64 -> int
val write_u8 : t -> int64 -> int -> unit
val read_u16 : t -> int64 -> int
val write_u16 : t -> int64 -> int -> unit
val read_u32 : t -> int64 -> int
val write_u32 : t -> int64 -> int -> unit
val read_u64 : t -> int64 -> int64
val write_u64 : t -> int64 -> int64 -> unit

val read_page : t -> int -> Bytes.t
(** [read_page t idx] is {!Cow_store.read_page} on the store.
    Interpreter fast paths probe [store.cache_r_idx]/[cache_r_data]
    inline and only call this on a miss. *)

val write_page : t -> int -> Bytes.t
(** {!Cow_store.write_page} on the store. *)

val read_bytes_le : t -> int64 -> int -> int64
(** [read_bytes_le t addr n] reads [n] (<= 8) bytes. *)

val write_bytes_le : t -> int64 -> int -> int64 -> unit

val load_program : t -> addr:int64 -> int32 array -> unit

(** {1 Snapshots and statistics}

    The store's, re-exported for callers holding a memory. *)

val snapshot : t -> Cow_store.snapshot
val restore : t -> Cow_store.snapshot -> unit
val release_snapshot : Cow_store.snapshot -> unit

val deep_copy : t -> t
(** O(memory): the SSS baseline. *)

val allocated_pages : t -> int

type stats = Cow_store.stats = {
  cow_faults : int;
  pages_allocated : int;
  snapshots : int;
}

val stats : t -> stats

val reset_stats : t -> unit
