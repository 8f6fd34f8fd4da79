(* Paged COW memory and the COW store under it: read/write semantics,
   snapshot isolation, fork-like cost characteristics. *)

open Riscv

let base = Platform.dram_base

let test_rw () =
  let m = Memory.create ~base ~size:(1 lsl 20) () in
  Memory.write_u64 m base 0x0123456789ABCDEFL;
  Alcotest.(check int64) "u64" 0x0123456789ABCDEFL (Memory.read_u64 m base);
  Alcotest.(check int) "u8 LE" 0xEF (Memory.read_u8 m base);
  Alcotest.(check int) "u8 hi" 0x01 (Memory.read_u8 m (Int64.add base 7L));
  Memory.write_u16 m (Int64.add base 16L) 0xBEEF;
  Alcotest.(check int) "u16" 0xBEEF (Memory.read_u16 m (Int64.add base 16L));
  Memory.write_u32 m (Int64.add base 32L) 0xDEADBEEF;
  Alcotest.(check int) "u32" 0xDEADBEEF (Memory.read_u32 m (Int64.add base 32L));
  (* unwritten memory reads as zero without allocating *)
  Alcotest.(check int64) "zero" 0L (Memory.read_u64 m (Int64.add base 0x8000L));
  Alcotest.(check int) "pages" 1 (Memory.allocated_pages m)

let test_page_crossing () =
  let m = Memory.create ~base ~size:(1 lsl 20) () in
  let addr = Int64.add base 4093L (* crosses the 4K page boundary *) in
  Memory.write_u64 m addr 0x1122334455667788L;
  Alcotest.(check int64) "crossing" 0x1122334455667788L (Memory.read_u64 m addr)

let test_snapshot_isolation () =
  let m = Memory.create ~base ~size:(1 lsl 20) () in
  Memory.write_u64 m base 111L;
  Memory.write_u64 m (Int64.add base 0x1000L) 222L;
  let snap = Memory.snapshot m in
  Memory.write_u64 m base 999L;
  Memory.write_u64 m (Int64.add base 0x2000L) 333L;
  Alcotest.(check int64) "modified" 999L (Memory.read_u64 m base);
  Memory.restore m snap;
  Alcotest.(check int64) "restored" 111L (Memory.read_u64 m base);
  Alcotest.(check int64) "untouched page" 222L
    (Memory.read_u64 m (Int64.add base 0x1000L));
  Alcotest.(check int64) "post-snapshot page gone" 0L
    (Memory.read_u64 m (Int64.add base 0x2000L));
  (* the snapshot can be restored more than once *)
  Memory.write_u64 m base 777L;
  Memory.restore m snap;
  Alcotest.(check int64) "restored again" 111L (Memory.read_u64 m base)

let test_cow_faults () =
  let m = Memory.create ~base ~size:(1 lsl 20) () in
  for i = 0 to 9 do
    Memory.write_u64 m (Int64.add base (Int64.of_int (i * 0x1000))) 1L
  done;
  Memory.reset_stats m;
  let snap = Memory.snapshot m in
  (* writes to shared pages trigger exactly one COW fault per page *)
  Memory.write_u64 m base 2L;
  Memory.write_u64 m (Int64.add base 8L) 3L;
  Memory.write_u64 m (Int64.add base 0x1000L) 4L;
  let stats = Memory.stats m in
  Alcotest.(check int) "cow faults" 2 stats.Memory.cow_faults;
  Memory.release_snapshot snap;
  (* after release, writes do not COW any more *)
  Memory.reset_stats m;
  Memory.write_u64 m base 5L;
  Alcotest.(check int) "no fault after release" 0 (Memory.stats m).Memory.cow_faults

let test_deep_copy_independent () =
  let m = Memory.create ~base ~size:(1 lsl 20) () in
  Memory.write_u64 m base 42L;
  let c = Memory.deep_copy m in
  Memory.write_u64 m base 43L;
  Alcotest.(check int64) "copy unchanged" 42L (Memory.read_u64 c base)

(* --- the COW store itself (memories and simulator tables) ----------- *)

let words = 3 * (Cow_store.page_size / 8) (* three pages of 8-byte words *)

let test_store_zero_reset () =
  let st = Cow_store.create ~size:(words * 8) in
  for i = 0 to words - 1 do
    if Cow_store.get_int st (i * 8) <> 0 then
      Alcotest.failf "word %d not zero" i
  done;
  Alcotest.(check int) "reads allocate nothing" 0
    (Cow_store.allocated_pages st);
  Cow_store.set_int st 8 (-5);
  Alcotest.(check int) "negative round trip" (-5) (Cow_store.get_int st 8);
  Cow_store.set_int64 st 16 Int64.min_int;
  Alcotest.(check int64) "int64 round trip" Int64.min_int
    (Cow_store.get_int64 st 16);
  Alcotest.(check int) "one page written" 1 (Cow_store.allocated_pages st)

let test_store_cow_once () =
  let st = Cow_store.create ~size:(words * 8) in
  let page k = k * Cow_store.page_size in
  Cow_store.set_int st (page 0) 1;
  Cow_store.set_int st (page 1) 2;
  Cow_store.reset_stats st;
  let snap = Cow_store.snapshot st in
  (* prime the read cache on the shared page *)
  ignore (Cow_store.get_int st (page 0));
  (* many writes to a shared page: one copy *)
  for i = 0 to 99 do
    Cow_store.set_int st (page 0 + (8 * i)) i
  done;
  let faults () = (Cow_store.stats st).cow_faults in
  Alcotest.(check int) "first write copies the page once" 1 (faults ());
  Alcotest.(check int) "reads see the copy" 99
    (Cow_store.get_int st (page 0 + (8 * 99)));
  (* a page never written before the snapshot is allocated, not copied *)
  Cow_store.set_int st (page 2) 3;
  Alcotest.(check int) "fresh page is no COW fault" 1 (faults ());
  Cow_store.set_int st (page 1) 4;
  Alcotest.(check int) "second shared page, second copy" 2 (faults ());
  Cow_store.release snap

let refcounts (st : Cow_store.t) =
  Array.to_list st.pages
  |> List.filter_map (Option.map (fun (p : Cow_store.page) -> p.rc))

let test_store_refcounts () =
  let st = Cow_store.create ~size:(words * 8) in
  Cow_store.set_int st 0 1;
  Cow_store.set_int st Cow_store.page_size 2;
  let a = Cow_store.snapshot st in
  Cow_store.set_int st 0 10;
  let b = Cow_store.snapshot st in
  Cow_store.set_int st (2 * Cow_store.page_size) 30;
  Cow_store.set_int st Cow_store.page_size 20;
  Alcotest.(check bool) "pages are shared while snapshots live" true
    (List.exists (fun rc -> rc > 1) (refcounts st));
  Cow_store.release a;
  Cow_store.release b;
  Alcotest.(check (list int)) "refcounts back to 1" [ 1; 1; 1 ] (refcounts st)

let test_store_restore_twice () =
  let st = Cow_store.create ~size:(words * 8) in
  Cow_store.set_int st 0 7;
  let snap = Cow_store.snapshot st in
  let scribble () =
    Cow_store.set_int st 0 70;
    Cow_store.set_int st Cow_store.page_size 71
  in
  let check what =
    Alcotest.(check int) (what ^ ": word 0") 7 (Cow_store.get_int st 0);
    Alcotest.(check int) (what ^ ": page 1") 0
      (Cow_store.get_int st Cow_store.page_size)
  in
  scribble ();
  Cow_store.restore st snap;
  check "first restore";
  scribble ();
  Cow_store.restore st snap;
  check "second restore";
  (* the LightSSS path: a copy marshalled with its pages detached gets
     them back from the snapshot, twice, without touching the original *)
  let image =
    Cow_store.with_pages_detached [ st ] (fun () -> Marshal.to_string st [])
  in
  let fresh () : Cow_store.t = Marshal.from_string image 0 in
  let c1 = fresh () and c2 = fresh () in
  Cow_store.restore c1 snap;
  Cow_store.restore c2 snap;
  Cow_store.set_int c1 0 8;
  Alcotest.(check int) "copy 1 written" 8 (Cow_store.get_int c1 0);
  Alcotest.(check int) "copy 2 untouched" 7 (Cow_store.get_int c2 0);
  Alcotest.(check int) "live untouched" 7 (Cow_store.get_int st 0);
  Cow_store.release snap

let prop_rw =
  QCheck2.Test.make ~count:500 ~name:"random aligned write/read"
    QCheck2.Gen.(
      quad (int_range 0 ((1 lsl 18) - 8)) (oneofl [ 1; 2; 4; 8 ])
        (map Int64.of_int int) bool)
    (fun (off, size, v, snapshot_first) ->
      let m = Memory.create ~base ~size:(1 lsl 18) () in
      let addr = Int64.add base (Int64.of_int (off land lnot (size - 1))) in
      let s = if snapshot_first then Some (Memory.snapshot m) else None in
      Memory.write_bytes_le m addr size v;
      let mask =
        if size >= 8 then -1L else Int64.sub (Int64.shift_left 1L (8 * size)) 1L
      in
      let got = Memory.read_bytes_le m addr size in
      (match s with Some s -> Memory.release_snapshot s | None -> ());
      got = Int64.logand v mask)

let tests =
  [
    Alcotest.test_case "read/write widths" `Quick test_rw;
    Alcotest.test_case "page-crossing access" `Quick test_page_crossing;
    Alcotest.test_case "snapshot isolation and restore" `Quick
      test_snapshot_isolation;
    Alcotest.test_case "COW fault accounting" `Quick test_cow_faults;
    Alcotest.test_case "deep copy independence" `Quick test_deep_copy_independent;
    Alcotest.test_case "store: zero pages are the reset state" `Quick
      test_store_zero_reset;
    Alcotest.test_case "store: first write after a snapshot copies once" `Quick
      test_store_cow_once;
    Alcotest.test_case "store: refcounts return to 1 on release" `Quick
      test_store_refcounts;
    Alcotest.test_case "store: restore works twice" `Quick
      test_store_restore_twice;
    QCheck_alcotest.to_alcotest prop_rw;
  ]
