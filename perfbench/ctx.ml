(* One benchmark run's accumulated state: metrics, operation counts,
   correctness failures and the pinned-value table. *)

type pin_mode =
  | Check of (string, string) Hashtbl.t
  | Record of (string, string) Hashtbl.t

type t = {
  trace : bool;
  variant : int;  (** seed mod 8: which input family the seed selects *)
  primary : string;  (** the named workload: its phase gets the larger share *)
  pins : pin_mode;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable metrics : (string * (float * string)) list;
  mutable details : (string * Stat.json) list;
  mutable heap_words : int;  (** largest peak major heap of any benchmark process *)
}

let variants = 8

let variant_of_seed seed = ((seed mod variants) + variants) mod variants

let metric t name unit v = t.metrics <- (name, (v, unit)) :: t.metrics
let detail t key j = t.details <- (key, j) :: t.details
let error t msg = t.errors <- msg :: t.errors

(* [attempt t ok] counts one operation and whether it failed. *)
let attempt t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

(* What a phase process adds to its copy of the context, sent back to
   the parent when the phase finishes. *)
type delta = {
  d_attempted : int;
  d_failed : int;
  d_errors : string list;
  d_metrics : (string * (float * string)) list;
  d_details : (string * Stat.json) list;
  d_heap_words : int;
}

let reset t =
  t.attempted <- 0;
  t.failed <- 0;
  t.errors <- [];
  t.metrics <- [];
  t.details <- []

let top_heap_words () = (Gc.quick_stat ()).Gc.top_heap_words

let delta t =
  {
    d_attempted = t.attempted;
    d_failed = t.failed;
    d_errors = t.errors;
    d_metrics = t.metrics;
    d_details = t.details;
    d_heap_words = top_heap_words ();
  }

let merge t d =
  t.attempted <- t.attempted + d.d_attempted;
  t.failed <- t.failed + d.d_failed;
  t.errors <- d.d_errors @ t.errors;
  t.metrics <- d.d_metrics @ t.metrics;
  t.details <- d.d_details @ t.details;
  t.heap_words <- max t.heap_words d.d_heap_words

(* ---- pinned values --------------------------------------------------- *)

(* Pin file format: one "key value" pair per line; '#' starts a comment.
   Values never contain spaces. *)
let load_pins path =
  let tbl = Hashtbl.create 256 in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      try
        while true do
          let line = String.trim (input_line ic) in
          if line <> "" && line.[0] <> '#' then
            match String.index_opt line ' ' with
            | Some i ->
                Hashtbl.replace tbl (String.sub line 0 i)
                  (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
            | None -> failwith ("malformed pin line: " ^ line)
        done
      with End_of_file -> ());
  tbl

let save_pins path tbl =
  let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl []) in
  let oc = open_out path in
  output_string oc
    "# Pinned simulated statistics, checked by every benchmark run.\n\
     # Regenerate only after a change that is meant to alter simulated\n\
     # behaviour:  perfbench.exe --record-pins perfbench/pins.txt\n";
  List.iter (fun k -> Printf.fprintf oc "%s %s\n" k (Hashtbl.find tbl k)) keys;
  close_out oc

(* Check (or, when recording, store) one pinned value.  Keys of
   seed-dependent inputs carry the variant, e.g. "v3/grid/...". *)
let pin t key value =
  match t.pins with
  | Check tbl -> (
      match Hashtbl.find_opt tbl key with
      | Some v when v = value -> ()
      | Some v -> error t (Printf.sprintf "pin %s: expected %s, got %s" key v value)
      | None -> error t (Printf.sprintf "pin %s: no pinned value (got %s)" key value))
  | Record tbl -> (
      match Hashtbl.find_opt tbl key with
      | Some v when v <> value ->
          error t (Printf.sprintf "pin %s: not deterministic (%s vs %s)" key v value)
      | Some _ | None -> Hashtbl.replace tbl key value)

let pin_int t key v = pin t key (string_of_int v)

let digest parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

let alist_string kvs =
  String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) kvs)
