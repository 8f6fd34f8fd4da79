(* The permission scoreboard of §III-B2b.

   Subscribes to the coherence event stream around one parent node and
   tracks, per data block, the permission each child is *entitled* to
   hold based on the Grants the parent issued and the Probe_acks /
   Releases the children returned.  Two rule families are checked:

   1. legal transactions: a child must acknowledge downgrades before
      conflicting grants appear;
   2. permission invariants: at most one child may hold Trunk, and a
      Trunk holder excludes any other holder.

   The injected skip-probe fault (Cache.bug_skip_probe) produces a
   Grant Trunk while a sibling still holds permissions, which this
   checker flags. *)

type entry = { perms : Perm.t array }

type violation = { v_cycle : int; v_addr : int64; v_msg : string }

type t = {
  node : string; (* parent node name, e.g. "l3" *)
  children : string array; (* child node names, by child index *)
  blocks : (int64, entry) Hashtbl.t;
  mutable violations : violation list;
  mutable checked : int;
}

let create ~node ~children =
  {
    node;
    children;
    blocks = Hashtbl.create 256;
    violations = [];
    checked = 0;
  }

let entry t addr =
  match Hashtbl.find_opt t.blocks addr with
  | Some e -> e
  | None ->
      let e = { perms = Array.make (Array.length t.children) Perm.Nothing } in
      Hashtbl.replace t.blocks addr e;
      e

(* A block no child holds reads the same as an absent one, so dropping
   it keeps the table bounded by what the children hold, not by every
   block ever touched (it rides in every LightSSS image). *)
let forget_if_free t addr (e : entry) =
  if Array.for_all (fun p -> p = Perm.Nothing) e.perms then
    Hashtbl.remove t.blocks addr

let violate t ~cycle ~addr msg =
  t.violations <- { v_cycle = cycle; v_addr = addr; v_msg = msg } :: t.violations

let check_invariant t ~cycle ~addr (e : entry) =
  let trunks = ref 0 and holders = ref 0 in
  Array.iter
    (fun p ->
      if p = Perm.Trunk then incr trunks;
      if p <> Perm.Nothing then incr holders)
    e.perms;
  if !trunks > 1 then
    violate t ~cycle ~addr (Printf.sprintf "%d children hold Trunk" !trunks);
  if !trunks = 1 && !holders > 1 then
    violate t ~cycle ~addr
      (Printf.sprintf
         "Trunk is held while %d other children also hold permissions"
         (!holders - 1))

let rec index_from children name i =
  if i < 0 || String.equal (Array.unsafe_get children i) name then i
  else index_from children name (i - 1)

(* Called on every coherence event below the parent: no closure. *)
let child_index t name = index_from t.children name (Array.length t.children - 1)

(* Feed one coherence event (wire the whole SoC event stream here). *)
let observe (t : t) (ev : Event.t) =
  if ev.node = t.node then begin
    t.checked <- t.checked + 1;
    match ev.xact with
    | Perm.Grant want ->
        if ev.child >= 0 && ev.child < Array.length t.children then begin
          let e = entry t ev.addr in
          e.perms.(ev.child) <- want;
          check_invariant t ~cycle:ev.cycle ~addr:ev.addr e
        end
    | Perm.Acquire _ | Perm.Probe _ | Perm.Probe_ack _ | Perm.Release -> ()
  end
  else begin
    let child = child_index t ev.node in
    if child >= 0 then begin
      t.checked <- t.checked + 1;
      match ev.xact with
      | Perm.Probe_ack to_perm ->
          let e = entry t ev.addr in
          (match to_perm with
          | Perm.Nothing -> e.perms.(child) <- Perm.Nothing
          | Perm.Branch ->
              if Perm.rank e.perms.(child) > Perm.rank Perm.Branch then
                e.perms.(child) <- Perm.Branch
          | Perm.Trunk -> ());
          forget_if_free t ev.addr e
      | Perm.Release ->
          let e = entry t ev.addr in
          e.perms.(child) <- Perm.Nothing;
          forget_if_free t ev.addr e
      | Perm.Acquire _ | Perm.Grant _ | Perm.Probe _ -> ()
    end
  end

let violations t = List.rev t.violations

let ok t = t.violations = []
