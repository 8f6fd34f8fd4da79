(** Architectural state of one hart: the state space S_P of the
    paper's formal verification model (§III-A).  Both the REF and the
    DUT's commit stage maintain one; DiffTest compares them under the
    active diff-rules. *)

type t = {
  regs : int64 array; (** x0..x31; x0 pinned to zero *)
  fregs : int64 array; (** raw IEEE-754 bits *)
  mutable pc : int64;
  csr : Csr.t;
  mutable reservation : int64 option; (** LR/SC reservation address *)
  hartid : int;
}

val create : ?pc:int64 -> hartid:int -> unit -> t

val get_reg : t -> int -> int64

val set_reg : t -> int -> int64 -> unit
(** Writes to x0 are discarded. *)

val get_freg : t -> int -> int64

val set_freg : t -> int -> int64 -> unit

val copy : t -> t

val restore_from : t -> src:t -> unit
(** Overwrite [t] with [src]'s architectural contents in place. *)

(** {2 The DiffTest compare}

    The compared fields are numbered: 0 is the pc, 1-31 are x1-x31,
    [field_freg i] is fi, and [field_csr k] is entry [k] of
    {!Csr.compared}.  x0 is never compared. *)

val field_freg : int -> int

val field_csr : int -> int

val field_count : int
(** One past the last compared field. *)

val field_value : t -> int -> int64

val diff_message : int -> dut:int64 -> ref_:int64 -> string
(** The report line for a mismatch on one field, shared by every REF
    backend. *)

val first_differing : (int -> int64) -> (int -> int64) -> int
(** First field on which two value readers (such as [field_value a]
    and [field_value b]) differ, or [-1].  The slow path, for once a
    mismatch is known. *)

val first_diff : t -> t -> int
(** First compared field on which the two states differ, or [-1].
    Allocates nothing. *)

val diff : t -> t -> string option
(** First difference between two states (pc, integer and FP registers,
    then {!Csr.compared}), rendered by {!diff_message}; [None] if
    architecturally equal. *)

val equal : t -> t -> bool
