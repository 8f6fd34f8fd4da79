(* Clock, sample summaries and the small JSON printer the benchmark
   uses for its result lines. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs = List.sort compare xs

(* Nearest-rank percentile of an already sorted, non-empty list. *)
let pct_sorted xs p =
  let n = List.length xs in
  let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  List.nth xs (max 0 (min (n - 1) (k - 1)))

let median = function
  | [] -> nan
  | xs ->
      let s = sorted xs in
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* The mean of the middle half of the samples. *)
let interquartile_mean = function
  | [] -> nan
  | xs ->
      let n = List.length xs in
      let q = n / 4 in
      mean (List.filteri (fun i _ -> i >= q && i < n - q) (sorted xs))

let percentile xs p = match xs with [] -> nan | xs -> pct_sorted (sorted xs) p

(* The highest whole percentile that still has at least ten samples
   above it, or [None] with fewer than eleven samples. *)
let top_percentile n =
  if n < 11 then None
  else
    let p = 100 * (n - 10) / n in
    if p <= 0 then None else Some p

type summary = {
  n : int;
  p50 : float;
  top : (int * float) option;  (** (percentile, value) *)
}

let summarize xs =
  let n = List.length xs in
  {
    n;
    p50 = median xs;
    top = Option.map (fun p -> (p, percentile xs (float_of_int p))) (top_percentile n);
  }

(* ---- JSON output ---------------------------------------------------- *)

type json =
  | Obj of (string * json) list
  | Arr of json list
  | Str of string
  | Num of float
  | Int of int
  | Bool of bool

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec to_string = function
  | Obj kvs ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" (escape k) (to_string v)) kvs)
      ^ "}"
  | Arr xs -> "[" ^ String.concat ", " (List.map to_string xs) ^ "]"
  | Str s -> Printf.sprintf "\"%s\"" (escape s)
  (* all digits: a rounded time could read the same on every run *)
  | Num f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Num _ -> "null"
  | Int i -> string_of_int i
  | Bool b -> if b then "true" else "false"

let summary_json (s : summary) =
  Obj
    ([ ("n", Int s.n); ("p50", Num s.p50) ]
    @
    match s.top with
    | Some (p, v) -> [ ("top_pct", Int p); ("top", Num v) ]
    | None -> [ ("top_pct", Str "none: fewer than 11 samples") ])
