(* Fixed-capacity FIFO over an array: the storage of the fetch queue
   and the rename free lists.  Pushing and popping never allocate.  A
   vacated slot is reset to [dummy], so the ring holds no reference to
   an element it has given up (a LightSSS image marshals only what the
   ring still contains). *)

type 'a t = {
  buf : 'a array;
  dummy : 'a;
  mutable head : int; (* slot of the oldest element *)
  mutable len : int;
}

let create ~capacity dummy =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { buf = Array.make capacity dummy; dummy; head = 0; len = 0 }

let capacity t = Array.length t.buf

let length t = t.len

let is_empty t = t.len = 0

let[@inline] slot t i =
  let j = t.head + i in
  if j >= Array.length t.buf then j - Array.length t.buf else j

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Ring.get: index out of range";
  Array.unsafe_get t.buf (slot t i)

let push t x =
  if t.len = Array.length t.buf then invalid_arg "Ring.push: full";
  Array.unsafe_set t.buf (slot t t.len) x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Ring.pop: empty";
  let x = Array.unsafe_get t.buf t.head in
  Array.unsafe_set t.buf t.head t.dummy;
  t.head <- slot t 1;
  t.len <- t.len - 1;
  x

let clear t =
  for i = 0 to t.len - 1 do
    Array.unsafe_set t.buf (slot t i) t.dummy
  done;
  t.head <- 0;
  t.len <- 0
