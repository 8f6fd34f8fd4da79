(* Distributed issue queues (the paper's grouped reservation stations,
   32- or 16-entry, issuing one or two instructions per cycle) with a
   pluggable selection policy: AGE (oldest first) or PUBS (§IV-D:
   high-priority unconfident-branch slices first, then age).

   Storage is fixed at [create]: the entries sit in [slots.(0 .. n-1)]
   in insertion (age) order, and removal closes the gap, so a
   selection walks them oldest first.  Vacated slots hold
   [Uop.vacant], so a queue keeps no reference to a uop it no longer
   holds. *)

type t = {
  cfg : Config.iq_config;
  policy : Config.issue_policy;
  classes : int; (* bitmask over Config.exec_class, see [class_bit] *)
  slots : Uop.t array;
  mutable n : int;
  ready_idx : int array; (* select_counted's scratch: ready slot indices *)
  chosen : Uop.t array; (* the last selection, [n_chosen] valid *)
  mutable n_chosen : int;
}

let class_bit (c : Config.exec_class) =
  match c with
  | Config.ALU -> 1
  | Config.MUL -> 2
  | Config.DIV -> 4
  | Config.JUMP_CSR -> 8
  | Config.LOAD -> 16
  | Config.STORE -> 32
  | Config.FMAC -> 64
  | Config.FMISC -> 128

let create (cfg : Config.iq_config) ~policy =
  {
    cfg;
    policy;
    classes = List.fold_left (fun m c -> m lor class_bit c) 0 cfg.iq_classes;
    slots = Array.make cfg.iq_size Uop.vacant;
    n = 0;
    ready_idx = Array.make cfg.iq_size 0;
    chosen = Array.make cfg.iq_issue Uop.vacant;
    n_chosen = 0;
  }

let accepts t (cls : Config.exec_class) = t.classes land class_bit cls <> 0

let occupancy t = t.n

let capacity t = t.cfg.iq_size

let is_full t = t.n >= t.cfg.iq_size

let insert t (u : Uop.t) =
  assert (not (is_full t));
  u.Uop.in_iq <- true;
  t.slots.(t.n) <- u;
  t.n <- t.n + 1

(* Keep the entries for which [keep] holds, in order; the rest leave
   the queue. *)
let compact t ~(keep : Uop.t -> bool) =
  let k = ref 0 in
  for i = 0 to t.n - 1 do
    let u = t.slots.(i) in
    if keep u then begin
      t.slots.(!k) <- u;
      incr k
    end
    else u.Uop.in_iq <- false
  done;
  Array.fill t.slots !k (t.n - !k) Uop.vacant;
  t.n <- !k

let not_squashed (u : Uop.t) = not u.Uop.squashed

let drop_squashed t = compact t ~keep:not_squashed

let clear t = compact t ~keep:(fun _ -> false)

(* Select up to iq_issue ready uops under the policy into [chosen] and
   return the Figure 15 ready count, from one readiness scan: [ready]
   (rename lookups + LSU ordering) is evaluated once per waiting slot.
   PUBS takes the high-priority ready uops first, age order within
   each class.  The selection stays in [chosen], which only the issue
   stage reads, until the next call; it holds uops, not slot indices,
   so a removal in between (a fault hook's [steal_waiting]) leaves it
   intact. *)
let select_counted t ~(ready : Uop.t -> bool) : int =
  let total = ref 0 in
  for i = 0 to t.n - 1 do
    let u = t.slots.(i) in
    if u.Uop.state = Uop.Waiting && ready u then begin
      t.ready_idx.(!total) <- i;
      incr total
    end
  done;
  let cap = t.cfg.iq_issue in
  let k = ref 0 in
  (match t.policy with
  | Config.Age ->
      while !k < cap && !k < !total do
        t.chosen.(!k) <- t.slots.(t.ready_idx.(!k));
        incr k
      done
  | Config.Pubs ->
      for pass = 0 to 1 do
        let want = pass = 0 in
        let j = ref 0 in
        while !k < cap && !j < !total do
          let u = t.slots.(t.ready_idx.(!j)) in
          if u.Uop.priority = want then begin
            t.chosen.(!k) <- u;
            incr k
          end;
          incr j
        done
      done);
  (* drop what is left of the previous selection *)
  for j = !k to t.n_chosen - 1 do
    t.chosen.(j) <- Uop.vacant
  done;
  t.n_chosen <- !k;
  !total

let remove_at t i =
  t.slots.(i).Uop.in_iq <- false;
  Array.blit t.slots (i + 1) t.slots i (t.n - i - 1);
  t.n <- t.n - 1;
  t.slots.(t.n) <- Uop.vacant

let remove t (u : Uop.t) =
  u.Uop.in_iq <- false;
  let i = ref 0 in
  while !i < t.n && t.slots.(!i).Uop.seq <> u.Uop.seq do
    incr i
  done;
  if !i < t.n then remove_at t !i

(* Fault injection: silently lose the oldest waiting uop.  It stays
   Waiting in the ROB forever, so commit wedges on it -- unless a
   flush squashes it first (the caller retries in that case). *)
let steal_waiting t : Uop.t option =
  let i = ref 0 in
  while !i < t.n && t.slots.(!i).Uop.state <> Uop.Waiting do
    incr i
  done;
  if !i < t.n then begin
    let u = t.slots.(!i) in
    remove_at t !i;
    Some u
  end
  else None
