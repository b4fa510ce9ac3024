(* The naive mirror: recomputes, from the generated inputs alone, what
   every batch, eviction and query must have produced.  It shares no
   code with the program: band windows are answered by a short walk
   over S sorted and bucketed on B, with prefix sums of the row hash;
   select queries through a grid over R.A and per-B row groups. *)

open Util
module B = Cq_relation.Batch

type expect = {
  b_cnt : Ivec.t;  (** Per batch: results. *)
  b_sum : Ivec.t;  (** Per batch: checksum of its results. *)
  ret : Ivec.t;  (** Per evicted row, in eviction order: retractions. *)
  q_cnt : Ivec.t;  (** Per query instance: results over the run. *)
  q_sum : Ivec.t;
}

let new_expect () =
  { b_cnt = Ivec.create (); b_sum = Ivec.create (); ret = Ivec.create (); q_cnt = Ivec.create (); q_sum = Ivec.create () }

(* ---- band joins over a fixed S --------------------------------------- *)

type band = {
  sb : float array;  (** S.B, sorted. *)
  pg : int array;  (** pg.(i) = sum of row hashes of sb.(0 .. i-1). *)
  start : int array;  (** start.(k): first index with S.B >= k (S.B is spread evenly over the domain). *)
  blo : float array;  (** Per slot. *)
  bhi : float array;
  binst : int array;
}

let band_create (w : Gen.t) =
  let rows = Array.copy w.preload_s in
  Array.sort (fun (b1, _) (b2, _) -> Float.compare b1 b2) rows;
  let n = Array.length rows in
  let pg = Array.make (n + 1) 0 in
  Array.iteri (fun i (b, c) -> pg.(i + 1) <- pg.(i) + h_row b c) rows;
  let sb = Array.map fst rows in
  let buckets = int_of_float Gen.domain + 2 in
  let start = Array.make (buckets + 1) n in
  let i = ref 0 in
  for k = 0 to buckets do
    while !i < n && sb.(!i) < float_of_int k do
      incr i
    done;
    start.(k) <- !i
  done;
  let nq = Array.length w.queries in
  let m =
    { sb; pg; start; blo = Array.make nq 0.0; bhi = Array.make nq 0.0; binst = Array.init nq Fun.id }
  in
  Array.iteri
    (fun i -> function
      | Gen.Band { lo; hi } ->
          m.blo.(i) <- lo;
          m.bhi.(i) <- hi
      | Gen.Select _ -> invalid_arg "band mirror: select query")
    w.queries;
  m

(* First index whose value is >= x (or > x when [strict]): start at the
   bucket of floor x and walk. *)
let bound m x ~strict =
  let n = Array.length m.sb in
  let k = int_of_float (Float.max 0.0 (Float.min x (float_of_int (Array.length m.start - 1)))) in
  let i = ref m.start.(k) in
  while !i < n && if strict then m.sb.(!i) <= x else m.sb.(!i) < x do
    incr i
  done;
  !i

let band_event m e ~a ~b ~cnt ~sum =
  for slot = 0 to Array.length m.blo - 1 do
    let i = bound m (m.blo.(slot) +. b) ~strict:false in
    let j = bound m (m.bhi.(slot) +. b) ~strict:true in
    if j > i then begin
      let inst = m.binst.(slot) in
      let s = h_event inst a b * (m.pg.(j) - m.pg.(i)) in
      Ivec.add e.q_cnt inst (j - i);
      Ivec.add e.q_sum inst s;
      cnt := !cnt + (j - i);
      sum := !sum + s
    end
  done

(* ---- select joins over count-windowed R and S ------------------------- *)

let cell_width = 10.0
let cells = int_of_float (Gen.domain /. cell_width) + 1
let cell x = max 0 (min (cells - 1) (int_of_float (x /. cell_width)))

type select = {
  grid : int list array;  (** Slots whose range_a meets each R.A cell. *)
  alo : float array;
  ahi : float array;
  clo : float array;
  chi : float array;
  sinst : int array;
  rg : (float * float) list array;  (** R rows [(a, b)] by B value. *)
  sg : (float * float) list array;  (** S rows [(b, c)] by B value. *)
  rq : (float * float) Queue.t;  (** R rows, oldest first. *)
  sq : (float * float) Queue.t;
}

let grid_add m slot =
  for c = cell m.alo.(slot) to cell m.ahi.(slot) do
    m.grid.(c) <- slot :: m.grid.(c)
  done

let grid_remove m slot =
  for c = cell m.alo.(slot) to cell m.ahi.(slot) do
    m.grid.(c) <- List.filter (fun s -> s <> slot) m.grid.(c)
  done

let set_select m slot = function
  | Gen.Select { alo; ahi; clo; chi } ->
      m.alo.(slot) <- alo;
      m.ahi.(slot) <- ahi;
      m.clo.(slot) <- clo;
      m.chi.(slot) <- chi
  | Gen.Band _ -> invalid_arg "select mirror: band query"

let bkey b = int_of_float b

let select_create (w : Gen.t) =
  let nq = Array.length w.queries in
  let m =
    {
      grid = Array.make cells [];
      alo = Array.make nq 0.0;
      ahi = Array.make nq 0.0;
      clo = Array.make nq 0.0;
      chi = Array.make nq 0.0;
      sinst = Array.init nq Fun.id;
      rg = Array.make Gen.select_b_values [];
      sg = Array.make Gen.select_b_values [];
      rq = Queue.create ();
      sq = Queue.create ();
    }
  in
  Array.iteri
    (fun slot q ->
      set_select m slot q;
      grid_add m slot)
    w.queries;
  Array.iter
    (fun ((_, b) as r) ->
      m.rg.(bkey b) <- r :: m.rg.(bkey b);
      Queue.add r m.rq)
    w.preload_r;
  Array.iter
    (fun ((b, _) as s) ->
      m.sg.(bkey b) <- s :: m.sg.(bkey b);
      Queue.add s m.sq)
    w.preload_s;
  m

(* Every result (slot, r, s) of R row (a, b) against the current S. *)
let select_r m ~a ~b f =
  List.iter
    (fun slot ->
      if m.alo.(slot) <= a && a <= m.ahi.(slot) then
        List.iter (fun (_, c) -> if m.clo.(slot) <= c && c <= m.chi.(slot) then f slot c) m.sg.(bkey b))
    m.grid.(cell a)

(* Every result (slot, r, s) of S row (b, c) against the current R. *)
let select_s m ~b ~c f =
  List.iter
    (fun (a, _) ->
      List.iter
        (fun slot ->
          if m.alo.(slot) <= a && a <= m.ahi.(slot) && m.clo.(slot) <= c && c <= m.chi.(slot) then
            f slot a)
        m.grid.(cell a))
    m.rg.(bkey b)

let remove_one row l =
  let rec go acc = function
    | [] -> List.rev acc
    | x :: rest when x = row -> List.rev_append acc rest
    | x :: rest -> go (x :: acc) rest
  in
  go [] l

let select_batch m e side rows ~evict ~cnt ~sum =
  let emit slot a b c =
    let inst = m.sinst.(slot) in
    let s = h_event inst a b * h_row b c in
    Ivec.add e.q_cnt inst 1;
    Ivec.add e.q_sum inst s;
    incr cnt;
    sum := !sum + s
  in
  let n = B.length rows in
  for i = 0 to n - 1 do
    let x = B.x rows i and y = B.y rows i in
    match side with
    | Gen.R ->
        select_r m ~a:x ~b:y (fun slot c -> emit slot x y c);
        m.rg.(bkey y) <- (x, y) :: m.rg.(bkey y);
        Queue.add (x, y) m.rq
    | Gen.S ->
        select_s m ~b:x ~c:y (fun slot a -> emit slot a x y);
        m.sg.(bkey x) <- (x, y) :: m.sg.(bkey x);
        Queue.add (x, y) m.sq
  done;
  if evict then
    for _ = 1 to n do
      let k = ref 0 in
      (match side with
      | Gen.R ->
          let ((a, b) as r) = Queue.pop m.rq in
          m.rg.(bkey b) <- remove_one r m.rg.(bkey b);
          select_r m ~a ~b (fun _ _ -> incr k)
      | Gen.S ->
          let ((b, c) as s) = Queue.pop m.sq in
          m.sg.(bkey b) <- remove_one s m.sg.(bkey b);
          select_s m ~b ~c (fun _ _ -> incr k));
      Ivec.push e.ret !k
    done

(* ---- replay ------------------------------------------------------------ *)

(** Replay the first [rounds] rounds of the workload's stream (made
    afresh from [seed]) and return what each output must have been. *)
let replay kind seed ~rounds =
  let w = Gen.make kind seed in
  let e = new_expect () in
  let nq = Array.length w.queries in
  let next_inst = ref nq in
  let on_batch, on_churn =
    match kind with
    | Gen.Band_hot ->
        let m = band_create w in
        ( (fun _side rows ~cnt ~sum ->
            for i = 0 to B.length rows - 1 do
              band_event m e ~a:(B.x rows i) ~b:(B.y rows i) ~cnt ~sum
            done),
          fun slot spec inst ->
            (match spec with
            | Gen.Band { lo; hi } ->
                m.blo.(slot) <- lo;
                m.bhi.(slot) <- hi
            | Gen.Select _ -> invalid_arg "band mirror: select query");
            m.binst.(slot) <- inst )
    | Gen.Select_scatter | Gen.Serve_churn ->
        let m = select_create w in
        ( (fun side rows ~cnt ~sum -> select_batch m e side rows ~evict:w.evict ~cnt ~sum),
          fun slot spec inst ->
            grid_remove m slot;
            set_select m slot spec;
            grid_add m slot;
            m.sinst.(slot) <- inst )
  in
  Ivec.ensure e.q_cnt (nq - 1);
  Ivec.ensure e.q_sum (nq - 1);
  for _ = 1 to rounds do
    Array.iter
      (function
        | Gen.Batch { side; rows; _ } ->
            let cnt = ref 0 and sum = ref 0 in
            on_batch side rows ~cnt ~sum;
            Ivec.push e.b_cnt !cnt;
            Ivec.push e.b_sum !sum
        | Gen.Churn { slot; spec; _ } ->
            let inst = !next_inst in
            incr next_inst;
            Ivec.ensure e.q_cnt inst;
            Ivec.ensure e.q_sum inst;
            on_churn slot spec inst)
      (w.next_round ())
  done;
  e
