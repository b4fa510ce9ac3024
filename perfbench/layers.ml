(* Per-layer replays for the traced run.  Each replays the first
   [replay_batches] batches of the workload's stream (made afresh from
   the seed), with their churn, through one layer's public functions,
   on a twin structure built from the same inputs, timing each call
   with the benchmark's clock and counting minor words around it. *)

open Util
module B = Cq_relation.Batch
module T = Cq_relation.Tuple
module Table = Cq_relation.Table
module I = Cq_interval.Interval
module Engine = Cq_engine.Engine
module Par = Cq_engine.Parallel
module Frame = Cq_net.Frame

let replay_batches = 200

let rounds_of kind = replay_batches / Gen.batches_per_round kind

(* The replayed ops, in order, from a fresh generator. *)
let ops kind seed =
  let w = Gen.make kind seed in
  let l = List.init (rounds_of kind) (fun _ -> w.next_round ()) in
  (w, Array.concat l)

let elapsed t0 = float_of_int (now_ns () - t0)
let per x n = if n > 0 then x /. float_of_int n else 0.0

type acc = { mutable ns : float; mutable n : int; mutable words : float }

let acc () = { ns = 0.0; n = 0; words = 0.0 }

(* Time [f], adding its duration, [units] of work and its minor words. *)
let measure a units f =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let x = f () in
  a.ns <- a.ns +. elapsed t0;
  a.words <- a.words +. (Gc.minor_words () -. w0);
  a.n <- a.n + units;
  x

let interval lo hi = I.make lo hi

(* ---- Parallel ----------------------------------------------------------- *)

type par_out = {
  per_batch_ns : float array;  (** Ingest plus flush, per batch. *)
  churn_ns : float array;  (** Unsubscribe plus subscribe. *)
  groups : (int * (float * float * float * float) array) list;
      (** Results of a few extra batches, per query, for the frame replay. *)
  metrics : (string * string * float) list;
}

let parallel kind seed =
  let w, ops = ops kind seed in
  let p = Par.create_cfg Drive.engine_cfg in
  if Array.length w.preload_r > 0 then Par.ingest_batch_flat p Par.R (B.of_rows w.preload_r);
  Par.ingest_batch_flat p Par.S (B.of_rows w.preload_s);
  ignore (Par.flush p);
  let results = ref 0 in
  let collect = ref false in
  let bucket : (int, (float * float * float * float) list) Hashtbl.t = Hashtbl.create 1024 in
  let sub spec inst =
    let cb (r : T.r) (s : T.s) =
      incr results;
      if !collect then
        Hashtbl.replace bucket inst
          ((r.a, r.b, s.b, s.c) :: Option.value ~default:[] (Hashtbl.find_opt bucket inst))
    in
    match spec with
    | Gen.Band { lo; hi } -> Par.subscribe_band p ~range:(interval lo hi) cb
    | Gen.Select { alo; ahi; clo; chi } ->
        Par.subscribe_select p ~range_a:(interval alo ahi) ~range_c:(interval clo chi) cb
  in
  let subs = Array.mapi (fun slot spec -> sub spec slot) w.queries in
  let ingest = acc () and flush = acc () and idle = Fvec.create () in
  let usub = Fvec.create () and ssub = Fvec.create () in
  let per_batch = Fvec.create () and churn = Fvec.create () in
  let inst = ref (Array.length w.queries) in
  Array.iter
    (function
      | Gen.Batch { side; rows; _ } ->
          let n0 = ingest.ns +. flush.ns in
          measure ingest (B.length rows) (fun () -> Par.ingest_batch_flat p (Drive.psides side) rows);
          let r0 = !results in
          measure flush 0 (fun () -> ignore (Par.flush p));
          flush.n <- flush.n + (!results - r0);
          Fvec.push per_batch (ingest.ns +. flush.ns -. n0);
          let t0 = now_ns () in
          ignore (Par.flush p);
          Fvec.push idle (elapsed t0)
      | Gen.Churn { slot; spec; _ } ->
          let t0 = now_ns () in
          ignore (Par.unsubscribe p subs.(slot));
          let t1 = now_ns () in
          subs.(slot) <- sub spec !inst;
          let t2 = now_ns () in
          incr inst;
          Fvec.push usub (float_of_int (t1 - t0));
          Fvec.push ssub (float_of_int (t2 - t1));
          Fvec.push churn (float_of_int (t2 - t0)))
    ops;
  (* A few more batches whose results are kept for the frame replay. *)
  collect := true;
  let extra = ref 0 in
  while !extra < 4 do
    Array.iter
      (function
        | Gen.Batch { side; rows; _ } when !extra < 4 ->
            Par.ingest_batch_flat p (Drive.psides side) rows;
            ignore (Par.flush p);
            incr extra
        | _ -> ())
      (w.next_round ())
  done;
  Par.shutdown p;
  let groups = Hashtbl.fold (fun q rows acc -> (q, Array.of_list (List.rev rows)) :: acc) bucket [] in
  {
    per_batch_ns = Fvec.to_array per_batch;
    churn_ns = Fvec.to_array churn;
    groups;
    metrics =
      [
        ("parallel.ingest_ns_per_event", "ns", per ingest.ns ingest.n);
        ("parallel.flush_ns_per_result", "ns", per flush.ns flush.n);
        ("parallel.flush_words_per_result", "words", per flush.words flush.n);
        ("parallel.flush_idle_us", "us", median (Fvec.to_array idle) /. 1e3);
        ("parallel.subscribe_us", "us", median (Fvec.to_array ssub) /. 1e3);
        ("parallel.unsubscribe_us", "us", median (Fvec.to_array usub) /. 1e3);
      ];
  }

(* ---- Engine ------------------------------------------------------------- *)

let engine kind seed =
  let w, ops = ops kind seed in
  (* Bulk load into an engine with no queries. *)
  let load = acc () in
  let e0 = Engine.create_cfg Drive.engine_cfg in
  measure load (Array.length w.preload_s) (fun () -> Engine.load_s e0 w.preload_s);
  if Array.length w.preload_r > 0 then
    measure load (Array.length w.preload_r) (fun () -> Engine.load_r e0 w.preload_r);
  (* The twin: preloaded through ingest (so row ids are known), then
     subscribed, then fed the same ops. *)
  let e = Engine.create_cfg Drive.engine_cfg in
  let fr = Drive.fifo_create (Array.length w.preload_r + (Gen.batch_rows * (replay_batches + 1))) in
  let fs = Drive.fifo_create (Array.length w.preload_s + (Gen.batch_rows * (replay_batches + 1))) in
  let pre_r = B.of_rows w.preload_r and pre_s = B.of_rows w.preload_s in
  if B.length pre_r > 0 then begin
    ignore (Engine.ingest_batch_r e pre_r);
    Drive.fifo_take_ids fr pre_r
  end;
  ignore (Engine.ingest_batch_s e pre_s);
  Drive.fifo_take_ids fs pre_s;
  let results = ref 0 in
  let cb _ _ = incr results in
  let on_retract _ _ = () in
  let sub spec =
    match spec with
    | Gen.Band { lo; hi } -> Engine.subscribe_band e ~on_retract ~range:(interval lo hi) cb
    | Gen.Select { alo; ahi; clo; chi } ->
        Engine.subscribe_select e ~on_retract ~range_a:(interval alo ahi) ~range_c:(interval clo chi) cb
  in
  let subs = Array.map sub w.queries in
  let ingest = acc () and del = acc () and usub = Fvec.create () and ssub = Fvec.create () in
  let restructures0 = (Engine.stats e).restructures in
  let churns = ref 0 in
  let delete side f n =
    let cap = Array.length f.Drive.ids in
    for _ = 1 to n do
      let i = f.Drive.head in
      f.head <- (f.head + 1) mod cap;
      f.len <- f.len - 1;
      measure del 1 (fun () ->
          ignore
            (match side with
            | Gen.R -> Engine.delete_r e { T.rid = f.ids.(i); a = f.xs.(i); b = f.ys.(i) }
            | Gen.S -> Engine.delete_s e { T.sid = f.ids.(i); b = f.xs.(i); c = f.ys.(i) }))
    done
  in
  Array.iter
    (function
      | Gen.Batch { side; rows; _ } ->
          measure ingest (B.length rows) (fun () -> ignore (Drive.eng_ingest e side rows));
          let f = match side with Gen.R -> fr | Gen.S -> fs in
          Drive.fifo_take_ids f rows;
          if w.evict then delete side f (B.length rows)
      | Gen.Churn { slot; spec; _ } ->
          let t0 = now_ns () in
          ignore (Engine.unsubscribe e subs.(slot));
          let t1 = now_ns () in
          subs.(slot) <- sub spec;
          let t2 = now_ns () in
          incr churns;
          Fvec.push usub (float_of_int (t1 - t0));
          Fvec.push ssub (float_of_int (t2 - t1)))
    ops;
  let restructures = (Engine.stats e).restructures - restructures0 in
  (* Without count windows nothing was evicted: retract the replayed R
     rows instead, newest first, so the deletes see the same tables. *)
  if not w.evict then begin
    let rows = ref [] in
    Array.iter (function Gen.Batch { rows = b; _ } -> rows := b :: !rows | Gen.Churn _ -> ()) ops;
    List.iter
      (fun b ->
        for i = 0 to B.length b - 1 do
          measure del 1 (fun () -> ignore (Engine.delete_r e { T.rid = B.id b i; a = B.x b i; b = B.y b i }))
        done)
      !rows
  end;
  [
    ("engine.ingest_ns_per_event", "ns", per ingest.ns ingest.n);
    ("engine.ingest_words_per_event", "words", per ingest.words ingest.n);
    ("engine.delete_ns_per_tuple", "ns", per del.ns del.n);
    ("engine.load_ns_per_row", "ns", per load.ns load.n);
    ("engine.subscribe_us", "us", median (Fvec.to_array ssub) /. 1e3);
    ("engine.unsubscribe_us", "us", median (Fvec.to_array usub) /. 1e3);
    ("engine.restructures_per_kchurn", "count", per (1000.0 *. float_of_int restructures) !churns);
  ]

(* ---- the hotspot processor ---------------------------------------------- *)

module type PROC = sig
  include
    Hotspot_core.Processor.PROCESSOR
      with type event = T.r
       and type store = Table.s_table
       and type result = T.s

  val make : int -> Gen.spec -> query
end

module Band_proc = struct
  include Cq_joins.Band_join.Hotspot

  let make qid = function
    | Gen.Band { lo; hi } -> Cq_joins.Band_query.make ~qid ~range:(interval lo hi)
    | Gen.Select _ -> invalid_arg "band processor: select query"
end

module Select_proc = struct
  include Cq_joins.Select_join.Hotspot

  let make qid = function
    | Gen.Select { alo; ahi; clo; chi } ->
        Cq_joins.Select_query.make ~qid ~range_a:(interval alo ahi) ~range_c:(interval clo chi)
    | Gen.Band _ -> invalid_arg "select processor: band query"
end

(* R events only, against the preloaded S, which stays fixed. *)
let processor kind seed =
  let w, ops = ops kind seed in
  let (module P : PROC) =
    match kind with
    | Gen.Band_hot -> (module Band_proc : PROC)
    | Gen.Select_scatter | Gen.Serve_churn -> (module Select_proc : PROC)
  in
  let store = Table.of_s_tuples (Array.mapi (fun sid (b, c) -> { T.sid; b; c }) w.preload_s) in
  let cur = Array.mapi P.make w.queries in
  let t = P.create_cfg ~alpha:Engine.Config.default.alpha ~epsilon:Engine.Config.default.epsilon
      ~seed:Engine.Config.default.seed store cur in
  let identify = acc () and stage = acc () and probe = acc () in
  let ins = Fvec.create () and del = Fvec.create () in
  let inst = ref (Array.length w.queries) in
  let hits = ref 0 in
  let results = ref 0 in
  let sink _ _ = incr results in
  Array.iter
    (function
      | Gen.Batch { side = Gen.R; rows; first_ord; _ } ->
          let n = B.length rows in
          let evs = Array.init n (fun i -> { T.rid = first_ord + i; a = B.x rows i; b = B.y rows i }) in
          measure identify n (fun () -> Array.iter (fun ev -> P.affected t ev (fun _ -> incr hits)) evs);
          measure stage n (fun () -> P.stage_batch t evs n);
          measure probe n (fun () -> Array.iteri (fun idx ev -> P.process_staged t ~idx ev sink) evs)
      | Gen.Batch { side = Gen.S; _ } -> ()
      | Gen.Churn { slot; spec; _ } ->
          let q = P.make !inst spec in
          incr inst;
          let t0 = now_ns () in
          ignore (P.delete_query t cur.(slot));
          let t1 = now_ns () in
          P.insert_query t q;
          let t2 = now_ns () in
          cur.(slot) <- q;
          Fvec.push del (float_of_int (t1 - t0));
          Fvec.push ins (float_of_int (t2 - t1)))
    ops;
  [
    ("processor.identify_ns_per_event", "ns", per identify.ns identify.n);
    ("processor.stage_ns_per_event", "ns", per stage.ns stage.n);
    ("processor.probe_ns_per_event", "ns", per probe.ns probe.n);
    ("processor.probe_words_per_result", "words", per probe.words !results);
    ("processor.insert_query_us", "us", median (Fvec.to_array ins) /. 1e3);
    ("processor.delete_query_us", "us", median (Fvec.to_array del) /. 1e3);
  ]

(* ---- the stabbing index ------------------------------------------------- *)

module Itree = Cq_index.Stab_backend.Interval_tree

(* Select workloads: the range_a windows, stabbed by each R batch's R.A
   column, as the scattered-query index is.  band-hot: the band windows,
   stabbed by offsets S.B - R.B of each event against a fixed S row. *)
let stab kind seed =
  let w, ops = ops kind seed in
  let ivl = function
    | Gen.Band { lo; hi } -> interval lo hi
    | Gen.Select { alo; ahi; _ } -> interval alo ahi
  in
  let tree = Itree.create ~seed:Engine.Config.default.seed in
  let cur = Array.map ivl w.queries in
  Array.iteri (fun slot iv -> Itree.add tree iv slot) cur;
  let owner = Array.init (Array.length cur) Fun.id in
  let nb = Array.length w.preload_s in
  let batch = acc () and add = Fvec.create () and remove = Fvec.create () in
  let hits = ref 0 in
  let inst = ref (Array.length w.queries) in
  Array.iter
    (function
      | Gen.Batch { side = Gen.R; rows; first_ord; _ } ->
          let keys =
            Array.init (B.length rows) (fun i ->
                match w.kind with
                | Gen.Band_hot -> fst w.preload_s.((first_ord + i) * 7919 mod nb) -. B.y rows i
                | Gen.Select_scatter | Gen.Serve_churn -> B.x rows i)
          in
          measure batch (Array.length keys) (fun () -> Itree.stab_batch tree ~keys ~f:(fun ~idx:_ _ -> incr hits))
      | Gen.Batch { side = Gen.S; _ } -> ()
      | Gen.Churn { slot; spec; _ } ->
          let old = owner.(slot) and iv = ivl spec in
          let t0 = now_ns () in
          ignore (Itree.remove tree cur.(slot) (fun p -> p = old));
          let t1 = now_ns () in
          Itree.add tree iv !inst;
          let t2 = now_ns () in
          cur.(slot) <- iv;
          owner.(slot) <- !inst;
          incr inst;
          Fvec.push remove (float_of_int (t1 - t0));
          Fvec.push add (float_of_int (t2 - t1)))
    ops;
  [
    ("stab.batch_ns_per_key", "ns", per batch.ns batch.n);
    ("stab.add_ns", "ns", median (Fvec.to_array add));
    ("stab.remove_ns", "ns", median (Fvec.to_array remove));
  ]

(* ---- frames ------------------------------------------------------------- *)

let frames kind seed groups =
  let _, ops = ops kind seed in
  let buf = Buffer.create 65536 in
  let benc = acc () and bdec = acc () and renc = acc () and rdec = acc () in
  let bytes = ref 0 and rrows = ref 0 in
  (* One decoder per direction, reused across frames as a session's is. *)
  let cdec = Frame.Decoder.create () and sdec = Frame.Decoder.create () in
  let decode a units d next =
    let b = Buffer.to_bytes buf in
    measure a units (fun () ->
        Frame.Decoder.feed d b ~off:0 ~len:(Bytes.length b);
        next d)
  in
  Array.iter
    (function
      | Gen.Batch { side; rows; _ } ->
          let n = B.length rows in
          let side = match side with Gen.R -> Frame.R | Gen.S -> Frame.S in
          Buffer.clear buf;
          measure benc n (fun () -> Frame.encode_client buf (Frame.Batch { side; rows }));
          ignore (decode bdec n cdec Frame.Decoder.next_client)
      | Gen.Churn _ -> ())
    ops;
  List.iter
    (fun (qid, rows) ->
      let n = Array.length rows in
      Buffer.clear buf;
      measure renc n (fun () -> Frame.encode_server buf (Frame.Results { qid; rows }));
      bytes := !bytes + Buffer.length buf;
      rrows := !rrows + n;
      ignore (decode rdec n sdec Frame.Decoder.next_server))
    groups;
  [
    ("frame.batch_encode_ns_per_row", "ns", per benc.ns benc.n);
    ("frame.batch_decode_ns_per_row", "ns", per bdec.ns bdec.n);
    ("frame.results_encode_ns_per_row", "ns", per renc.ns renc.n);
    ("frame.results_decode_ns_per_row", "ns", per rdec.ns rdec.n);
    ("frame.bytes_per_result", "bytes", per (float_of_int !bytes) !rrows);
  ]

(* ---- the served engine ---------------------------------------------------- *)

(* The same ops over loopback; the differences from the in-process
   Parallel replay are what the server adds. *)
let server kind seed (par : par_out) =
  let w, ops = ops kind seed in
  let o = Check.create () in
  let t = Drive.wire_prepare w o () in
  t.prepare_round ops;
  let rtt = Fvec.create () and churn = Fvec.create () in
  let inst = ref (Array.length w.queries) and events = ref 0 and i = ref 0 in
  t.mark ();
  Array.iter
    (fun op ->
      match op with
      | Gen.Batch { rows; _ } ->
          let t0 = now_ns () in
          ignore (t.batch !i op);
          Fvec.push rtt (elapsed t0);
          t.after_batch !i op;
          events := !events + B.length rows;
          incr i
      | Gen.Churn _ ->
          let t0 = now_ns () in
          ignore (t.churn op !inst);
          Fvec.push churn (elapsed t0);
          incr inst)
    ops;
  t.mark ();
  t.finish ();
  t.close ();
  let cpu = match t.marks () with [ m0; m1 ] -> m1.cpu_s -. m0.cpu_s | _ -> 0.0 in
  [
    ("server.rtt_over_engine_us", "us", (median (Fvec.to_array rtt) -. median par.per_batch_ns) /. 1e3);
    ("server.churn_over_engine_us", "us", (median (Fvec.to_array churn) -. median par.churn_ns) /. 1e3);
    ("server.cpu_us_per_event", "us", per (cpu *. 1e6) !events);
  ]
