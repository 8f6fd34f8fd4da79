(** Paged copy-on-write byte store: the one COW mechanism of the
    simulator.

    A snapshot copies only the page table (like [fork] copying page
    tables) and marks every page shared; the first write to a shared
    page performs a lazy copy (a COW fault, counted in {!stats}).
    Simulated physical memory ({!Memory}) and the large fixed-size
    micro-architectural tables (cache-line metadata, predictor tables,
    TLB entries) all live in stores, so LightSSS snapshots them in
    O(allocated pages) and later pays only for the pages written since.

    Pages are allocated lazily: a never-written page reads as zero and
    costs nothing to snapshot, so tables encode their fields with
    all-zero as the reset state.  A one-entry last-page cache (separate
    read/write) skips page-table indexing on sequential access.

    A page whose reference count drops to zero (its last snapshot
    released, or dropped by a restore) gives its bytes to a
    module-level spare list of at most {!max_spare_pages} pages, and a
    COW fault copies into a spare before it allocates.

    The representation is exposed so interpreter fast paths can probe
    the last-page caches inline; treat the fields as read-only
    elsewhere. *)

val page_bits : int
(** 12: 4 KiB pages. *)

val page_size : int

val page_mask : int

type page = { data : Bytes.t; mutable rc : int }

type t = {
  n_pages : int;
  mutable pages : page option array;
  mutable live : int array;  (** allocated page indices, [n_live] valid *)
  mutable n_live : int;
  mutable cache_r_idx : int;
  mutable cache_r_data : Bytes.t;
  mutable cache_w_idx : int;
  mutable cache_w_data : Bytes.t;
  mutable stat_cow_faults : int;
  mutable stat_pages_allocated : int;
  mutable stat_snapshots : int;
}

type snapshot

val create : size:int -> t
(** A zero-filled store of at least [size] bytes (rounded up to whole
    pages); no page is allocated until written. *)

(** {1 Pages} *)

val read_page : t -> int -> Bytes.t
(** [read_page t idx] is page [idx]'s backing store for reading (a
    shared zero page if unallocated), refreshing the read cache. *)

val write_page : t -> int -> Bytes.t
(** [write_page t idx] is page [idx]'s backing store for writing,
    allocating / COW-resolving on demand and refreshing the write
    cache. *)

(** {1 8-byte words}

    The word at byte offset [off] (8-aligned, so it never straddles a
    page), little-endian. *)

val get_int64 : t -> int -> int64
val set_int64 : t -> int -> int64 -> unit
val get_int : t -> int -> int
val set_int : t -> int -> int -> unit

(** {1 Snapshots} *)

val snapshot : t -> snapshot
(** O(allocated pages): records every allocated page and bumps its
    refcount -- the analogue of [fork] copying page tables. *)

val restore : t -> snapshot -> unit
(** Point [t] back at the snapshot's pages.  The snapshot remains valid
    and can be restored again.  Also installs the page array of a store
    unmarshalled without one. *)

val release : snapshot -> unit
(** Drop the snapshot's page references; pages no store or snapshot
    holds any more become spares.  A released snapshot must not be
    restored. *)

val max_spare_pages : int
(** Bound of the spare list: 256 pages. *)

val spare_pages : unit -> int
(** Pages on the spare list now. *)

val with_pages_detached : t list -> (unit -> 'a) -> 'a
(** Run [f] with every store's page array replaced by an empty one (and
    the caches dropped), then put the pages back, also on an exception.
    LightSSS marshals the simulator graph inside this bracket, so the
    image holds no page data. *)

val deep_copy : t -> t
(** O(data): the SSS baseline. *)

(** {1 Statistics} *)

val allocated_pages : t -> int

type stats = { cow_faults : int; pages_allocated : int; snapshots : int }

val stats : t -> stats

val reset_stats : t -> unit
