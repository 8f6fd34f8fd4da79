(** Fixed-capacity FIFO over an array: the storage of the fetch queue
    and the rename free lists.  [push] and [pop] never allocate; a
    vacated slot is reset to the [dummy] given at {!create}, so the
    ring keeps no reference to an element it has given up. *)

type 'a t

val create : capacity:int -> 'a -> 'a t
(** [create ~capacity dummy]: an empty ring of [capacity] slots, each
    holding [dummy] while vacant. *)

val capacity : 'a t -> int

val length : 'a t -> int

val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** [get t i] is the [i]-th oldest element, [0 <= i < length t]. *)

val push : 'a t -> 'a -> unit
(** Append at the young end; [Invalid_argument] when full. *)

val pop : 'a t -> 'a
(** Remove and return the oldest element; [Invalid_argument] when
    empty. *)

val clear : 'a t -> unit
