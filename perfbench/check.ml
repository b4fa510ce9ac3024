(* What a run observed, and its comparison with the mirror.  Targets
   feed [record] from their result callbacks; nothing here allocates on
   that path. *)

open Util

(* A fault the self-test plants in what a run observes, at the
   [plant_at]-th result or retraction, to show the checks catch it. *)
type fault = No_fault | Drop_result | Dup_result | Wrong_pair | Reorder | Miss_retraction

let plant_at = 1000

type obs = {
  b_cnt : Ivec.t;  (** Per batch: results delivered. *)
  b_sum : Ivec.t;  (** Per batch: checksum of those results. *)
  b_bad : Ivec.t;  (** Per batch: 1 when an error or an out-of-order delivery was seen. *)
  ret : Ivec.t;  (** Per evicted row: retractions the engine reported. *)
  ret_cb : Ivec.t;  (** Per evicted row: retraction callbacks that fired. *)
  q_cnt : Ivec.t;  (** Per query instance. *)
  q_sum : Ivec.t;
  mutable cur : int;  (** Batch the in-process callbacks attribute to. *)
  mutable last_key : int;  (** Event key of the last delivered result. *)
  mutable cur_ret : int;
  mutable key_s : bool;  (** The open batch is S rows: key results by S id. *)
  mutable batches : int;
  mutable churns : int;
  mutable churn_fail : int;
  mutable loads : int;
  mutable load_fail : int;
  mutable dropped_rows : int;  (** Result rows a server reported dropped. *)
  mutable stray : int;  (** Result rows that match no generated event. *)
  mutable fault : fault;
  mutable seen : int;  (** Results seen while a fault is planted. *)
  mutable seen_ret : int;  (** Retractions seen while a fault is planted. *)
  mutable held : (int * int * float * float * float * float) option;  (** A result held back by [Reorder]. *)
}

let create () =
  {
    b_cnt = Ivec.create ();
    b_sum = Ivec.create ();
    b_bad = Ivec.create ();
    ret = Ivec.create ();
    ret_cb = Ivec.create ();
    q_cnt = Ivec.create ();
    q_sum = Ivec.create ();
    cur = 0;
    last_key = min_int;
    cur_ret = 0;
    key_s = false;
    batches = 0;
    churns = 0;
    churn_fail = 0;
    loads = 0;
    load_fail = 0;
    dropped_rows = 0;
    stray = 0;
    fault = No_fault;
    seen = 0;
    seen_ret = 0;
    held = None;
  }

(* Open batch [i] for in-process delivery. *)
let start_batch o i =
  Ivec.ensure o.b_cnt i;
  Ivec.ensure o.b_sum i;
  Ivec.ensure o.b_bad i;
  o.cur <- i;
  o.last_key <- min_int

let fail_batch o i =
  Ivec.ensure o.b_bad i;
  Ivec.set o.b_bad i 1

(* One delivered result of query instance [inst] in batch [batch]. *)
let record o ~batch ~inst a b sb sc =
  let s = h_event inst a b * h_row sb sc in
  Ivec.add o.q_cnt inst 1;
  Ivec.add o.q_sum inst s;
  Ivec.add o.b_cnt batch 1;
  Ivec.add o.b_sum batch s

(* The same for in-process delivery into the open batch, checking that
   event keys do not decrease: one shard delivers in event order. *)
let deliver o ~inst ~key a b sb sc =
  if key < o.last_key then Ivec.add o.b_bad o.cur 1;
  o.last_key <- key;
  record o ~batch:o.cur ~inst a b sb sc

let planted o ~inst ~key a b sb sc =
  o.seen <- o.seen + 1;
  match o.fault with
  | Drop_result when o.seen = plant_at -> ()
  | Dup_result when o.seen = plant_at ->
      deliver o ~inst ~key a b sb sc;
      deliver o ~inst ~key a b sb sc
  | Wrong_pair when o.seen = plant_at -> deliver o ~inst ~key a b sb (sc +. 1.0)
  | Reorder when o.seen = plant_at -> o.held <- Some (inst, key, a, b, sb, sc)
  | Reorder -> (
      deliver o ~inst ~key a b sb sc;
      (* Release the held result after one of a later event. *)
      match o.held with
      | Some (i, k, a', b', sb', sc') when key > k ->
          o.held <- None;
          deliver o ~inst:i ~key:k a' b' sb' sc'
      | Some _ | None -> ())
  | No_fault | Drop_result | Dup_result | Wrong_pair | Miss_retraction -> deliver o ~inst ~key a b sb sc

let record_here o ~inst ~key a b sb sc =
  if o.fault == No_fault then deliver o ~inst ~key a b sb sc else planted o ~inst ~key a b sb sc

let retracted o =
  if o.fault == Miss_retraction then begin
    o.seen_ret <- o.seen_ret + 1;
    (* Retractions are rarer than results: plant early. *)
    if o.seen_ret <> 10 then o.cur_ret <- o.cur_ret + 1
  end
  else o.cur_ret <- o.cur_ret + 1

type verdict = {
  batch_fail : int;
  query_fail : int;
  retract_fail : int;
  notes : string list;  (** First few mismatches, for stderr. *)
}

(* Compare [o] with the mirror over [nb] batches.  An eviction belongs
   to the batch that caused it ([rows_per_batch] evictions each). *)
let compare o (e : Mirror.expect) ~nb ~rows_per_batch =
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> if List.length !notes < 8 then notes := s :: !notes) fmt in
  let geti v i = if i < Ivec.length v then Ivec.get v i else 0 in
  let bad = Array.make nb false in
  for i = 0 to nb - 1 do
    if geti o.b_bad i <> 0 then begin
      bad.(i) <- true;
      note "batch %d: error or out-of-order delivery" i
    end;
    if geti o.b_cnt i <> geti e.b_cnt i || geti o.b_sum i <> geti e.b_sum i then begin
      bad.(i) <- true;
      note "batch %d: %d results (checksum %x), mirror %d (%x)" i (geti o.b_cnt i) (geti o.b_sum i)
        (geti e.b_cnt i) (geti e.b_sum i)
    end
  done;
  let retract_fail = ref 0 in
  for j = 0 to max (Ivec.length e.ret) (Ivec.length o.ret) - 1 do
    let want = geti e.ret j in
    if geti o.ret j <> want || geti o.ret_cb j <> want then begin
      incr retract_fail;
      let i = j / rows_per_batch in
      if i < nb then bad.(i) <- true;
      note "eviction %d: %d retractions reported, %d callbacks, mirror %d" j (geti o.ret j)
        (geti o.ret_cb j) want
    end
  done;
  let query_fail = ref 0 in
  for q = 0 to max (Ivec.length e.q_cnt) (Ivec.length o.q_cnt) - 1 do
    if geti o.q_cnt q <> geti e.q_cnt q || geti o.q_sum q <> geti e.q_sum q then begin
      incr query_fail;
      note "query %d: %d results, mirror %d" q (geti o.q_cnt q) (geti e.q_cnt q)
    end
  done;
  if o.stray > 0 then note "%d result rows match no generated event" o.stray;
  if o.dropped_rows > 0 then note "%d result rows dropped by the server" o.dropped_rows;
  {
    batch_fail = Array.fold_left (fun n b -> if b then n + 1 else n) 0 bad;
    query_fail = !query_fail;
    retract_fail = !retract_fail;
    notes = List.rev !notes;
  }
