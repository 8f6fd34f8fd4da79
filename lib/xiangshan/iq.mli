(** Distributed issue queues (the paper's grouped reservation
    stations) with a pluggable selection policy: AGE (oldest first) or
    PUBS (§IV-D: high-priority unconfident-branch slices first, age
    within each class).

    Storage is fixed at {!create}: entries sit in [slots.(0 .. n-1)]
    in age (insertion) order.  Treat the fields as read-only outside
    this module. *)

type t = {
  cfg : Config.iq_config;
  policy : Config.issue_policy;
  classes : int;  (** bitmask of the accepted execution classes *)
  slots : Uop.t array;  (** [iq_size] slots, [n] valid, age order *)
  mutable n : int;
  ready_idx : int array;  (** {!select_counted}'s scratch *)
  chosen : Uop.t array;
      (** the last {!select_counted} selection, [n_chosen] valid, in
          issue order; read only by the issue stage's phase 2 *)
  mutable n_chosen : int;
}

val create : Config.iq_config -> policy:Config.issue_policy -> t

val accepts : t -> Config.exec_class -> bool

val occupancy : t -> int

val capacity : t -> int

val is_full : t -> bool

val insert : t -> Uop.t -> unit
(** Append as the youngest entry and set [Uop.in_iq]. *)

val drop_squashed : t -> unit
(** Remove every squashed entry, clearing its [Uop.in_iq]. *)

val clear : t -> unit

val select_counted : t -> ready:(Uop.t -> bool) -> int
(** The per-cycle phase-1 issue planner: write up to [iq_issue] ready
    waiting uops, policy-ordered, into [chosen] and return how many
    entries were ready (the Figure 15 instrumentation), from a single
    readiness scan -- [ready] is the expensive part.  [chosen] holds
    uops, not slot indices, so a removal before phase 2 reads it (a
    fault hook's {!steal_waiting}) leaves it intact; phase 2
    revalidates each pick through [Uop.in_iq]. *)

val remove : t -> Uop.t -> unit
(** Remove the entry with the uop's sequence number, if queued, and
    clear its [Uop.in_iq]. *)

val steal_waiting : t -> Uop.t option
(** Fault injection: remove and return the oldest waiting uop, which
    then never issues (commit wedges on it unless it is squashed). *)
