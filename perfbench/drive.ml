(* The three ways the benchmark drives the program, behind one target
   interface that Run's timed loop calls.  Set-up (creating the engine
   or server, loading tables and registering the initial queries) is the
   thunk each [*_prepare] returns, so callers can time it; input batches
   are built before it. *)

open Util
module B = Cq_relation.Batch
module T = Cq_relation.Tuple
module I = Cq_interval.Interval
module Engine = Cq_engine.Engine
module Par = Cq_engine.Parallel
module Client = Cq_net.Client

type target = {
  prepare_round : Gen.op array -> unit;  (** Untimed, before a round runs. *)
  batch : int -> Gen.op -> bool;  (** Run batch [i]; [false] on an error. *)
  after_batch : int -> Gen.op -> unit;  (** Untimed, after each batch. *)
  churn : Gen.op -> int -> bool;  (** Replace a query by instance [inst]. *)
  finish : unit -> unit;  (** Collect results still in flight. *)
  close : unit -> unit;
  mark : unit -> unit;  (** Sample the engine process's counters (server child only). *)
  marks : unit -> Wire.mark list;
}

(* The engine's own seed (its randomised partitions) keeps its default,
   as an embedding program would: the workload seed shapes only the
   inputs.  Across engine seeds the same select-scatter inputs ran 13 %
   faster or slower, which would swamp a change to the program. *)
let engine_cfg = { Engine.Config.default with shards = 1 }

let note_exn what e = Printf.eprintf "perfbench: %s: %s\n%!" what (Printexc.to_string e)

let interval lo hi = I.make lo hi

(* ---- Parallel at one shard ---------------------------------------------- *)

let par_subscribe p (o : Check.obs) spec inst =
  let cb (r : T.r) (s : T.s) =
    Check.record_here o ~inst ~key:(if o.key_s then s.sid else r.rid) r.a r.b s.b s.c
  in
  match spec with
  | Gen.Band { lo; hi } -> Par.try_subscribe_band p ~range:(interval lo hi) cb
  | Gen.Select { alo; ahi; clo; chi } ->
      Par.try_subscribe_select p ~range_a:(interval alo ahi) ~range_c:(interval clo chi) cb

let psides = function Gen.R -> Par.R | Gen.S -> Par.S

let par_prepare (w : Gen.t) (o : Check.obs) =
  let pre = [ (Par.R, B.of_rows w.preload_r); (Par.S, B.of_rows w.preload_s) ] in
  fun () ->
    let p = Par.create_cfg engine_cfg in
    List.iter
      (fun (side, rows) ->
        if B.length rows > 0 then begin
          o.loads <- o.loads + 1;
          match Par.try_ingest_batch_flat p side rows with
          | Ok () -> ()
          | Error _ -> o.load_fail <- o.load_fail + 1
        end)
      pre;
    ignore (Par.flush p);
    let subs =
      Array.mapi
        (fun slot spec ->
          o.loads <- o.loads + 1;
          match par_subscribe p o spec slot with
          | Ok s -> Some s
          | Error _ ->
              o.load_fail <- o.load_fail + 1;
              None)
        w.queries
    in
    let batch i = function
      | Gen.Batch { side; rows; _ } -> (
          Check.start_batch o i;
          o.key_s <- side = Gen.S;
          let sp = Span.enter Span.ingest in
          let ok = match Par.try_ingest_batch_flat p (psides side) rows with Ok () -> true | Error _ -> false in
          Span.leave sp;
          let sp = Span.enter Span.flush in
          match Par.flush p with
          | _ ->
              Span.leave sp;
              ok
          | exception e ->
              Span.leave sp;
              note_exn "flush" e;
              false)
      | Gen.Churn _ -> false
    in
    let churn op inst =
      match op with
      | Gen.Churn { slot; spec; _ } ->
          let sp = Span.enter Span.unsubscribe in
          let gone = match subs.(slot) with Some s -> Par.unsubscribe p s | None -> false in
          Span.leave sp;
          let sp = Span.enter Span.subscribe in
          let r = par_subscribe p o spec inst in
          Span.leave sp;
          (match r with Ok s -> subs.(slot) <- Some s | Error _ -> subs.(slot) <- None);
          gone && Result.is_ok r
      | Gen.Batch _ -> false
    in
    {
      prepare_round = ignore;
      batch;
      after_batch = (fun _ _ -> ());
      churn;
      finish = ignore;
      close = (fun () -> Par.shutdown p);
      mark = ignore;
      marks = (fun () -> []);
    }

(* ---- the sequential Engine, with count windows ----------------------------- *)

(* Rows of one relation in insertion order, for eviction. *)
type fifo = { ids : int array; xs : float array; ys : float array; mutable head : int; mutable len : int }

let fifo_create cap = { ids = Array.make cap 0; xs = Array.make cap 0.0; ys = Array.make cap 0.0; head = 0; len = 0 }

let fifo_push f id x y =
  let cap = Array.length f.ids in
  let i = (f.head + f.len) mod cap in
  f.ids.(i) <- id;
  f.xs.(i) <- x;
  f.ys.(i) <- y;
  f.len <- f.len + 1

let fifo_take_ids f rows =
  for i = 0 to B.length rows - 1 do
    fifo_push f (B.id rows i) (B.x rows i) (B.y rows i)
  done

let eng_subscribe e (o : Check.obs) spec inst =
  let cb (r : T.r) (s : T.s) =
    Check.record_here o ~inst ~key:(if o.key_s then s.sid else r.rid) r.a r.b s.b s.c
  in
  let on_retract _ _ = Check.retracted o in
  match spec with
  | Gen.Band { lo; hi } -> Engine.try_subscribe_band e ~on_retract ~range:(interval lo hi) cb
  | Gen.Select { alo; ahi; clo; chi } ->
      Engine.try_subscribe_select e ~on_retract ~range_a:(interval alo ahi)
        ~range_c:(interval clo chi) cb

let eng_ingest e side rows =
  match side with Gen.R -> Engine.try_ingest_batch_r e rows | Gen.S -> Engine.try_ingest_batch_s e rows

let eng_prepare (w : Gen.t) (o : Check.obs) =
  let pre_r = B.of_rows w.preload_r and pre_s = B.of_rows w.preload_s in
  let cap side = Array.length side + Gen.batch_rows in
  fun () ->
    let e = Engine.create_cfg engine_cfg in
    let fr = fifo_create (cap w.preload_r) and fs = fifo_create (cap w.preload_s) in
    List.iter
      (fun (side, rows, f) ->
        if B.length rows > 0 then begin
          o.loads <- o.loads + 1;
          match eng_ingest e side rows with
          | Ok _ -> fifo_take_ids f rows
          | Error _ -> o.load_fail <- o.load_fail + 1
        end)
      [ (Gen.R, pre_r, fr); (Gen.S, pre_s, fs) ];
    let subs =
      Array.mapi
        (fun slot spec ->
          o.loads <- o.loads + 1;
          match eng_subscribe e o spec slot with
          | Ok s -> Some s
          | Error _ ->
              o.load_fail <- o.load_fail + 1;
              None)
        w.queries
    in
    let evict side f n =
      let cap = Array.length f.ids in
      for _ = 1 to n do
        let i = f.head in
        f.head <- (f.head + 1) mod cap;
        f.len <- f.len - 1;
        o.cur_ret <- 0;
        let r =
          match side with
          | Gen.R -> Engine.delete_r e { T.rid = f.ids.(i); a = f.xs.(i); b = f.ys.(i) }
          | Gen.S -> Engine.delete_s e { T.sid = f.ids.(i); b = f.xs.(i); c = f.ys.(i) }
        in
        Ivec.push o.ret (match r with Some k -> k | None -> -1);
        Ivec.push o.ret_cb o.cur_ret
      done
    in
    let batch i = function
      | Gen.Batch { side; rows; _ } ->
          Check.start_batch o i;
          o.key_s <- side = Gen.S;
          let f = match side with Gen.R -> fr | Gen.S -> fs in
          let sp = Span.enter Span.ingest in
          let r = eng_ingest e side rows in
          Span.leave sp;
          (match r with Ok _ -> fifo_take_ids f rows | Error _ -> ());
          if w.evict then begin
            let sp = Span.enter Span.evict in
            evict side f (B.length rows);
            Span.leave sp
          end;
          Result.is_ok r
      | Gen.Churn _ -> false
    in
    let churn op inst =
      match op with
      | Gen.Churn { slot; spec; _ } ->
          let sp = Span.enter Span.unsubscribe in
          let gone = match subs.(slot) with Some s -> Engine.unsubscribe e s | None -> false in
          Span.leave sp;
          let sp = Span.enter Span.subscribe in
          let r = eng_subscribe e o spec inst in
          Span.leave sp;
          (match r with Ok s -> subs.(slot) <- Some s | Error _ -> subs.(slot) <- None);
          gone && Result.is_ok r
      | Gen.Batch _ -> false
    in
    {
      prepare_round = ignore;
      batch;
      after_batch = (fun _ _ -> ());
      churn;
      finish = ignore;
      close = ignore;
      mark = ignore;
      marks = (fun () -> []);
    }

(* ---- Client sessions against a served engine ----------------------------- *)

let live_children : Wire.child list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun (c : Wire.child) ->
          (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
          try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error (_, _, _) -> ())
        !live_children)

exception Wire_failure of string

let ok_or what = function Ok x -> x | Error e -> raise (Wire_failure (what ^ ": " ^ Client.error_to_string e))

let fsides = function Gen.R -> Cq_net.Frame.R | Gen.S -> Cq_net.Frame.S

let wire_register c spec =
  match spec with
  | Gen.Band { lo; hi } -> Client.register_band c ~lo ~hi
  | Gen.Select { alo; ahi; clo; chi } -> Client.register_select c ~a_lo:alo ~a_hi:ahi ~c_lo:clo ~c_hi:chi

(* Batch frame size for preloading tables. *)
let preload_rows = 500

let chunks rows =
  let n = Array.length rows in
  List.init ((n + preload_rows - 1) / preload_rows) (fun k ->
      B.of_rows (Array.sub rows (k * preload_rows) (min preload_rows (n - (k * preload_rows)))))

let wire_prepare (w : Gen.t) (o : Check.obs) =
  let pre = List.map (fun b -> (Gen.R, b)) (chunks w.preload_r) @ List.map (fun b -> (Gen.S, b)) (chunks w.preload_s) in
  let nq = Array.length w.queries in
  let owner slot = slot * w.sessions / nq in
  (* R.A bits of every generated event -> its ordinal, to attribute
     result rows to batches and check their order. *)
  let amap : (int, int) Hashtbl.t = Hashtbl.create 65536 in
  fun () ->
    let child = Wire.spawn engine_cfg in
    live_children := child :: !live_children;
    let clients =
      Array.init w.sessions (fun _ -> ok_or "connect" (Client.connect ~recv_timeout:60.0 ~addr:(Wire.addr child) ()))
    in
    List.iter
      (fun (side, rows) ->
        o.loads <- o.loads + 1;
        match Client.send_batch clients.(0) ~side:(fsides side) rows with
        | Ok (Client.Accepted n) when n = B.length rows -> ()
        | Ok _ | Error _ -> o.load_fail <- o.load_fail + 1)
      pre;
    ignore (ok_or "flush" (Client.flush clients.(0)));
    let qid_inst = Ivec.create () in
    let slot_qid = Array.make nq (-1) in
    let register slot spec inst =
      match wire_register clients.(owner slot) spec with
      | Ok qid ->
          Ivec.ensure qid_inst qid;
          Ivec.set qid_inst qid inst;
          slot_qid.(slot) <- qid;
          true
      | Error _ ->
          slot_qid.(slot) <- -1;
          false
    in
    Array.iteri
      (fun slot spec ->
        o.loads <- o.loads + 1;
        if not (register slot spec slot) then o.load_fail <- o.load_fail + 1)
      w.queries;
    let last_ord = Ivec.create () in
    let on_frame qid rows =
      let inst = if qid < Ivec.length qid_inst then Ivec.get qid_inst qid else -1 in
      Array.iter
        (fun (ra, rb, sb, sc) ->
          match Hashtbl.find_opt amap (fbits ra) with
          | Some ord when inst >= 0 ->
              let batch = ord / Gen.batch_rows in
              Ivec.ensure last_ord inst;
              Ivec.ensure o.b_bad batch;
              (* Ordinals are stored plus one, so 0 means "none yet". *)
              if ord + 1 < Ivec.get last_ord inst then Ivec.add o.b_bad batch 1;
              Ivec.set last_ord inst (ord + 1);
              Check.record o ~batch ~inst ra rb sb sc
          | Some _ | None -> o.stray <- o.stray + 1)
        rows
    in
    (* Result frames the traced reply loop read itself, in arrival order. *)
    let pending = Queue.create () in
    let drain c =
      Queue.iter (fun (qid, rows) -> on_frame qid rows) pending;
      Queue.clear pending;
      List.iter (fun (qid, rows) -> on_frame qid rows) (Client.take_results c);
      List.iter (fun (_, dropped, _) -> o.dropped_rows <- o.dropped_rows + dropped) (Client.take_overloads c)
    in
    let prepare_round ops =
      Array.iter
        (function
          | Gen.Batch { rows; first_ord; _ } ->
              for i = 0 to B.length rows - 1 do
                Hashtbl.replace amap (fbits (B.x rows i)) (first_ord + i)
              done
          | Gen.Churn _ -> ())
        ops
    in
    (* The traced form splits the call into writing the frame and
       waiting for its reply, so each gets a span. *)
    let send_batch c side rows =
      if not Span.buf.enabled then Client.send_batch c ~side rows
      else begin
        let sp = Span.enter Span.send in
        let sent = Client.send c (Cq_net.Frame.Batch { side; rows }) in
        Span.leave sp;
        let sp = Span.enter Span.reply in
        let rec wait () =
          match Client.recv c with
          | Ok (Cq_net.Frame.Batch_ok { rows }) -> Ok (Client.Accepted rows)
          | Ok (Cq_net.Frame.Overload { source = Cq_net.Frame.Engine_admission as source; dropped; retry_after_ms }) ->
              Ok (Client.Overloaded { source; dropped; retry_after_ms })
          | Ok (Cq_net.Frame.Results { qid; rows }) ->
              Queue.add (qid, rows) pending;
              wait ()
          | Ok (Cq_net.Frame.Overload { dropped; _ }) ->
              o.dropped_rows <- o.dropped_rows + dropped;
              wait ()
          | Ok f -> Error (Client.Unexpected (Format.asprintf "%a" Cq_net.Frame.pp_server_frame f))
          | Error e -> Error e
        in
        let r = match sent with Error e -> Error e | Ok () -> wait () in
        Span.leave sp;
        r
      end
    in
    let batch _i = function
      | Gen.Batch { side; rows; session; _ } -> (
          match send_batch clients.(session) (fsides side) rows with
          | Ok (Client.Accepted n) -> n = B.length rows
          | Ok (Client.Overloaded _) | Error _ -> false)
      | Gen.Churn _ -> false
    in
    let after_batch _ = function
      | Gen.Batch { session; _ } ->
          drain clients.(session);
          Array.iteri (fun k c -> if k <> session then ignore (Client.pump c)) clients
      | Gen.Churn _ -> ()
    in
    let churn op inst =
      match op with
      | Gen.Churn { slot; spec; session } ->
          let c = clients.(session) in
          let sp = Span.enter Span.unsubscribe in
          let gone = slot_qid.(slot) >= 0 && Result.is_ok (Client.drop c ~qid:slot_qid.(slot)) in
          Span.leave sp;
          let sp = Span.enter Span.subscribe in
          let ok = register slot spec inst in
          Span.leave sp;
          gone && ok
      | Gen.Batch _ -> false
    in
    let finish () =
      Array.iter
        (fun c ->
          ignore (ok_or "flush" (Client.flush c));
          drain c)
        clients
    in
    let marks = ref [] in
    let close () =
      Array.iter (fun c -> ignore (Client.bye c)) clients;
      live_children := List.filter (fun (c : Wire.child) -> c.pid <> child.pid) !live_children;
      marks := Wire.stop child
    in
    { prepare_round; batch; after_batch; churn; finish; close; mark = (fun () -> Wire.mark child); marks = (fun () -> !marks) }
