(** LightSSS: lightweight simulation snapshots (paper §III-C).

    The paper forks the RTL-simulation process and lets the kernel's
    copy-on-write provide an in-memory, incremental, circuit-agnostic
    snapshot.  The OCaml analogue:

    - COW-paged: every simulated physical memory and the large
      fixed-size micro-architectural tables (cache-line metadata,
      branch-predictor tables, TLB entries) live in
      {!Riscv.Cow_store}s, whose snapshot copies only the page table
      (like [fork] copying page tables);
    - marshalled: the rest of the simulator graph (pipelines, queues,
      counters, reference-model architectural state), captured with
      [Marshal] (closures included) with the page arrays detached;
    - left out: state shared with the replay or rebuilt after restore,
      unhooked by the subject while marshalling -- DiffTest's Global
      Memory, and the NEMU REF's uop cache, which a restore rebuilds
      as a flushed cache (see {!Minjie.Workflow.subject_of}).

    So a snapshot costs the page tables plus a small image, and the run
    pays per page written since (the COW faults).  The manager keeps
    the most recent two snapshots (§III-C3): on an error, the older
    one is restored and at most two intervals are replayed in debug
    mode. *)

type snapshot = {
  snap_cycle : int;
  store_snaps : Riscv.Cow_store.snapshot list;
  image : bytes;
  image_bytes : int;
}

(** What to snapshot: every COW store, in a fixed order, plus the root
    of the object graph.  [detach_heavy]/[reattach_heavy] bracket the
    marshalling step for state shared with the replay or rebuilt after
    restore rather than copied. *)
type 'a subject = {
  stores : Riscv.Cow_store.t list;
  roots : 'a;
  detach_heavy : unit -> unit;
  reattach_heavy : unit -> unit;
}

val snapshot : 'a subject -> cycle:int -> snapshot
(** O(allocated pages + the marshalled image). *)

val restore_with : snapshot -> stores_of:('a -> Riscv.Cow_store.t list) -> 'a
(** Unmarshal a fresh copy of the roots and repopulate its stores from
    the COW snapshots.  [stores_of] must enumerate the fresh graph's
    stores in the order the subject listed them; a different count
    raises [Invalid_argument] naming both counts.  The caller rebuilds
    whatever the subject left out and re-installs the sinks it wants
    on the replayed instance (that is where debug mode gets switched
    on). *)

val release : snapshot -> unit

(** {1 The two-slot manager} *)

type 'a manager = {
  subject : 'a subject;
  interval : int;
  mutable slots : snapshot list; (** at most two, newest first *)
  mutable last_snap_cycle : int;
  mutable snapshots_taken : int;
  mutable total_snapshot_seconds : float;
}

val manager : interval:int -> 'a subject -> 'a manager

val tick : 'a manager -> cycle:int -> unit
(** Call every cycle; snapshots when the interval elapses and retires
    the third-oldest snapshot. *)

val replay_point : 'a manager -> snapshot option
(** The older retained snapshot: replaying from it covers at most two
    intervals before the error. *)

(** {1 Baselines (Table I)} *)

val full_image_snapshot : ?to_file:bool -> 'a subject -> int
(** O(memory + tables) full image (the LiveSim-like baseline); [to_file]
    additionally round-trips through the filesystem (the Verilator
    save/restore SSS flow).  Returns the image size in bytes. *)

type scheme = {
  scheme_name : string;
  in_memory : bool;
  incremental : bool;
  circuit_agnostic : bool;
}

val schemes : scheme list
(** The comparison rows of Table I. *)
