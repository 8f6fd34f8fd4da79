(** The Global Memory of the multi-core diff-rule (paper §III-B2b).

    Records every store that enters the cache hierarchy of a
    multi-hart DUT (store-buffer drains, SC and AMO writes, from all
    harts; DiffTest records nothing for a single hart, whose loads
    no other hart can justify), with
    drain cycles as the "additional historical information".  When a
    single-core REF's load disagrees with the DUT, DiffTest asks
    whether the DUT value was legally produced by some hart:
    byte-by-byte, the value must match either the currently drained
    value or one overwritten within the load's read window.  A value
    overwritten long before the load read memory is reported as a
    data mismatch -- which is how the §IV-C stale-grant bug surfaces. *)

module Word_table : Hashtbl.S with type key = int
(** Tables keyed by word index, [paddr lsr 3]. *)

type t = {
  mutable words : entry list Word_table.t;
      (** word index -> the stores that wrote it, newest first *)
}

and entry = { e_mask : int; e_value : int64; e_cycle : int }

val slack : int
(** Same-tick drain/check ordering tolerance, in cycles. *)

val retention : int
(** How long superseded values stay checkable, bounding history size. *)

val create : unit -> t

val record : t -> cycle:int -> paddr:int64 -> size:int -> value:int64 -> unit
(** Called from the store-drain probe of every hart. *)

val compatible : t -> at:int -> paddr:int64 -> size:int -> value:int64 -> bool
(** Is [value], read from memory at cycle [at], justifiable?  Bytes
    never stored are unconstrained (initial image). *)

val lookup : t -> paddr:int64 -> size:int -> int64 option
(** The currently drained value, if every byte has been stored. *)
