(* The host-speed reference.  The benchmark runs on shared hosts whose
   speed drifts by 10-30% over tens of seconds, alike for every metric
   of a run.  A fixed kernel, written here and calling nothing of the
   simulator, is timed before every measured piece; its time over
   [nominal] is the host's slowness at that moment.  The kernel is
   integer and branch work on registers: it allocates nothing and
   touches no memory, so neither a GC setting nor the cache footprint of
   the program under test changes its time.  Of the kernels tried (a
   4 MB and a 256 KB pointer chase, an allocation loop, this one), this
   one followed the simulator's own run-to-run speed most closely. *)

let steps = 1_000_000

let kernel () =
  let x = ref 88172645463325252 and acc = ref 0 in
  for _ = 1 to steps do
    (* xorshift64, then a data-dependent three-way branch *)
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    acc :=
      match !x land 3 with
      | 0 -> !acc + (!x land 255)
      | 1 -> !acc lxor !x
      | _ -> !acc - 1
  done;
  ignore (Sys.opaque_identity !acc)

(* Kernel seconds on the 2-core Xeon VM the bounds were set on: only a
   fixed reference point, so that scaled values stay close to raw ones. *)
let nominal = 0.011

let sample () =
  let t0 = Unix.gettimeofday () in
  kernel ();
  Unix.gettimeofday () -. t0
