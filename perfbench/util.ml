(* Small helpers shared by the benchmark: the clock, growable unboxed
   vectors, the result hash and order statistics. *)

external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]

(* Growable int vector; [push] allocates only when it doubles. *)
module Ivec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }
  let length v = v.n
  let get v i = v.a.(i)
  let set v i x = v.a.(i) <- x

  let grow v =
    let b = Array.make (2 * Array.length v.a) 0 in
    Array.blit v.a 0 b 0 v.n;
    v.a <- b

  let push v x =
    if v.n = Array.length v.a then grow v;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  (* Make [i] a valid index, zero-filling. *)
  let ensure v i =
    while i >= Array.length v.a do
      grow v
    done;
    if i >= v.n then v.n <- i + 1

  let add v i x =
    ensure v i;
    v.a.(i) <- v.a.(i) + x
end

module Fvec = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * Array.length v.a) 0.0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let to_array v = Array.sub v.a 0 v.n
end

(* Order-independent result checksum.  A result (q, r, s) hashes to
   [h_event inst r.a r.b * h_row s.b s.c] (wrapping int arithmetic), so
   a mirror can sum it over a range of rows with prefix sums, and a
   dropped, duplicated or re-paired result changes the sum. *)
let[@inline] mix x =
  let x = x lxor (x lsr 29) in
  let x = x * 0x3f4a7c15b97f4a7d in
  let x = x lxor (x lsr 32) in
  let x = x * 0x2545f4914f6cdd1d in
  x lxor (x lsr 29)

let[@inline] fbits f = Int64.to_int (Int64.bits_of_float f)
let[@inline] h_event inst a b = mix ((inst * 0x9e3779b9) + mix (fbits a + (3 * mix (fbits b))))
let[@inline] h_row b c = mix ((fbits b * 7) + mix (fbits c)) lor 1

(* Quantiles by linear interpolation between order statistics (the
   default method of Python's statistics.quantiles is not needed here:
   these are reported values, not the spread test). *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then sorted.(n - 1)
    else sorted.(i) +. ((pos -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let sorted_copy a =
  let b = Array.copy a in
  Array.sort Float.compare b;
  b

let median a = quantile (sorted_copy a) 0.5

let sum a = Array.fold_left ( +. ) 0.0 a
