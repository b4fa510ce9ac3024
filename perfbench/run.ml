(* The timed loop, and the two kinds of run built on it: the end-to-end
   run (tracing off) and the traced run (tracing on in every other
   round, then per-layer replays). *)

open Util

(* An end-to-end run is [parts kind] sub-runs, each in a fresh process
   with inputs from its own derived seed and a share of the time.  The
   figures pool them: on this host one process's speed depends on where
   its memory landed (some band-hot processes run a quarter faster than
   others), and one seed's on its query structure (serve-churn's server
   allocates up to 10 % more per event on some seeds); pooling several
   of each narrows the spread between runs.  select-scatter pools only
   three because each of its set-ups takes about 4 s. *)
let parts = function Gen.Band_hot | Gen.Serve_churn -> 6 | Gen.Select_scatter -> 3

let part_seed seed part = (seed * 16) + part

(* Every run holds at least this many batches, so the 99th percentile
   has ten or more samples beyond it. *)
let min_batches = 1000

(* Allocation and heap figures cover exactly the first [prefix_batches]
   batches, so they repeat to the word for a given seed in process, and
   do not grow with a run's length where a table grows. *)
let prefix_batches = 400

(* Set-ups per sub-run; setup_s is the median of all of them.  A cheap
   set-up is repeated more often so the median rests on enough work. *)
let setups = function Gen.Band_hot -> 9 | Gen.Select_scatter -> 1 | Gen.Serve_churn -> 3

type stream = {
  lat_ns : float array;  (** Per batch, untraced rounds. *)
  churn_ns : float array;
  events : int;  (** Events in untraced rounds. *)
  batch_ns : float;  (** Summed batch time of untraced rounds. *)
  t_events : int;  (** The same for traced rounds. *)
  t_batch_ns : float;
  rounds : int;
  prefix_words : float;  (** Minor words over the prefix, input generation excluded. *)
  prefix_events : int;
  prefix_heap_words : int;
  gc_minor : int;  (** GC deltas over traced rounds. *)
  gc_major : int;
  gc_promoted : float;
}

let stream ?max_rounds ?(min_batches = min_batches) (w : Gen.t) (t : Drive.target) (o : Check.obs) ~seconds
    ~alternate =
  let lat = Fvec.create () and clat = Fvec.create () in
  let nq = Array.length w.queries in
  let next_inst = ref nq in
  let batches = ref 0 and rounds = ref 0 in
  let events = ref 0 and batch_ns = ref 0 and t_events = ref 0 and t_batch_ns = ref 0 in
  let gen_words = ref 0.0 in
  let prefix = ref None in
  let gc_minor = ref 0 and gc_major = ref 0 and gc_promoted = ref 0.0 in
  let w0 = Gc.minor_words () in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let more () =
    match max_rounds with
    | Some r -> !rounds < r
    | None -> now_ns () < deadline || !batches < max min_batches prefix_batches
  in
  while more () do
    let g0 = Gc.minor_words () in
    let ops = w.next_round () in
    t.prepare_round ops;
    gen_words := !gen_words +. (Gc.minor_words () -. g0);
    let traced = alternate && !rounds land 1 = 1 in
    Span.buf.enabled <- traced;
    let gc0 = if traced then Some (Gc.quick_stat ()) else None in
    Array.iter
      (fun op ->
        match op with
        | Gen.Batch { rows; _ } ->
            let i = !batches in
            let sp = Span.enter Span.batch in
            let t0 = now_ns () in
            let ok = t.batch i op in
            let dt = now_ns () - t0 in
            Span.leave sp;
            if not ok then Check.fail_batch o i;
            let n = Cq_relation.Batch.length rows in
            if traced then begin
              t_events := !t_events + n;
              t_batch_ns := !t_batch_ns + dt
            end
            else begin
              events := !events + n;
              batch_ns := !batch_ns + dt;
              Fvec.push lat (float_of_int dt)
            end;
            t.after_batch i op;
            incr batches
        | Gen.Churn _ ->
            let inst = !next_inst in
            incr next_inst;
            let sp = Span.enter Span.churn in
            let t0 = now_ns () in
            let ok = t.churn op inst in
            let dt = now_ns () - t0 in
            Span.leave sp;
            o.churns <- o.churns + 1;
            if not ok then o.churn_fail <- o.churn_fail + 1;
            if not traced then Fvec.push clat (float_of_int dt))
      ops;
    (match gc0 with
    | Some g0 ->
        let g1 = Gc.quick_stat () in
        gc_minor := !gc_minor + (g1.minor_collections - g0.minor_collections);
        gc_major := !gc_major + (g1.major_collections - g0.major_collections);
        gc_promoted := !gc_promoted +. (g1.promoted_words -. g0.promoted_words)
    | None -> ());
    Span.buf.enabled <- false;
    incr rounds;
    if Option.is_none !prefix && !batches >= prefix_batches then begin
      t.mark ();
      prefix :=
        Some
          ( Gc.minor_words () -. w0 -. !gen_words,
            !batches * Gen.batch_rows,
            (Gc.quick_stat ()).top_heap_words )
    end
  done;
  o.batches <- !batches;
  let pw, pe, ph = match !prefix with Some p -> p | None -> (0.0, 1, 0) in
  {
    lat_ns = Fvec.to_array lat;
    churn_ns = Fvec.to_array clat;
    events = !events;
    batch_ns = float_of_int !batch_ns;
    t_events = !t_events;
    t_batch_ns = float_of_int !t_batch_ns;
    rounds = !rounds;
    prefix_words = pw;
    prefix_events = pe;
    prefix_heap_words = ph;
    gc_minor = !gc_minor;
    gc_major = !gc_major;
    gc_promoted = !gc_promoted;
  }

let prepare (w : Gen.t) o =
  match w.kind with
  | Gen.Band_hot -> Drive.par_prepare w o
  | Gen.Select_scatter -> Drive.eng_prepare w o
  | Gen.Serve_churn -> Drive.wire_prepare w o

let timed f =
  let t0 = now_ns () in
  let x = f () in
  (x, float_of_int (now_ns () - t0) /. 1e9)

type outcome = {
  attempted : int;
  failed : int;
  correct : bool;
  kinds : (string * int * int) list;  (** Per operation kind: attempted, failed. *)
}

(* Check a finished stream against the mirror and count operations. *)
let verdict (w : Gen.t) ~seed (o : Check.obs) (s : stream) =
  let e = Mirror.replay w.kind seed ~rounds:s.rounds in
  let v = Check.compare o e ~nb:o.batches ~rows_per_batch:Gen.batch_rows in
  List.iter (fun n -> Printf.eprintf "perfbench: mismatch: %s\n%!" n) v.notes;
  let failed = v.batch_fail + o.churn_fail + o.load_fail in
  {
    attempted = o.batches + o.churns + o.loads;
    failed;
    correct = failed > 0 || (v.query_fail = 0 && o.stray = 0);
    kinds =
      [ ("batches", o.batches, v.batch_fail); ("churn", o.churns, o.churn_fail); ("loads", o.loads, o.load_fail) ];
  }

let mib words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.0

(* ---- end to end ---------------------------------------------------------- *)

type part = {
  p_kinds : (string * int * int) list;
  p_correct : bool;
  p_alloc : float;
  p_heap : float;
  p_lat : float array;
  p_churn : float array;
  p_setup : float array;
}

(* One sub-run, in this process. *)
let run_part kind ~seed ~seconds =
  let w = Gen.make kind seed in
  let o = Check.create () in
  let prep = prepare w o in
  let t, setup1 = timed prep in
  t.mark ();
  let min_batches = (min_batches + parts kind - 1) / parts kind in
  let s, stream_s = timed (fun () -> stream ~min_batches w t o ~seconds ~alternate:false) in
  t.mark ();
  t.finish ();
  t.close ();
  let more, more_s =
    timed (fun () ->
        List.init (setups kind - 1) (fun _ ->
            (* Start each from a heap without the stream's garbage, as
               the first set-up did. *)
            Gc.compact ();
            let t', dt = timed prep in
            t'.close ();
            dt))
  in
  let out, check_s = timed (fun () -> verdict w ~seed o s) in
  let results = ref 0 in
  for i = 0 to Ivec.length o.b_cnt - 1 do
    results := !results + Ivec.get o.b_cnt i
  done;
  (* Throughput of each quarter of the stream shows whether the host
     slowed down during the run. *)
  let q = Array.length s.lat_ns / 4 in
  Printf.eprintf
    "perfbench: %s seed %d: stream %.1f s (%d batches, %.1f results per event, events/s by quarter %s), %d more set-ups %.1f s, mirror %.1f s\n%!"
    (Gen.name kind) seed stream_s o.batches
    (float_of_int !results /. float_of_int (o.batches * Gen.batch_rows))
    (String.concat " "
       (List.init 4 (fun k ->
            Printf.sprintf "%.0f" (float_of_int (q * Gen.batch_rows) /. (sum (Array.sub s.lat_ns (k * q) q) /. 1e9)))))
    (setups kind - 1) more_s check_s;
  (* Both cover the prefix; on serve-churn they are the server child's,
     sampled at its marks. *)
  let alloc, heap =
    match t.marks () with
    | [ m0; mp; _ ] -> ((mp.minor_words -. m0.minor_words) /. float_of_int s.prefix_events, mib mp.top_heap_words)
    | _ -> (s.prefix_words /. float_of_int s.prefix_events, mib s.prefix_heap_words)
  in
  {
    p_kinds = out.kinds;
    p_correct = out.correct;
    p_alloc = alloc;
    p_heap = heap;
    p_lat = s.lat_ns;
    p_churn = s.churn_ns;
    p_setup = Array.of_list (setup1 :: more);
  }

(* A sub-run's result travels to the parent as tagged lines of text;
   floats in hex, so they arrive exactly. *)
let print_part p =
  let floats tag a =
    print_string tag;
    Array.iter (fun x -> Printf.printf " %h" x) a;
    print_newline ()
  in
  List.iter (fun (k, a, f) -> Printf.printf "kind %s %d %d\n" k a f) p.p_kinds;
  Printf.printf "correct %b\n" p.p_correct;
  floats "scalars" [| p.p_alloc; p.p_heap |];
  floats "lat" p.p_lat;
  floats "churn" p.p_churn;
  floats "setup" p.p_setup

let parse_part lines =
  let fl rest = Array.of_list (List.map float_of_string rest) in
  List.fold_left
    (fun p line ->
      match String.split_on_char ' ' line with
      | [ "kind"; k; a; f ] -> { p with p_kinds = p.p_kinds @ [ (k, int_of_string a, int_of_string f) ] }
      | [ "correct"; b ] -> { p with p_correct = bool_of_string b }
      | "scalars" :: rest -> (
          match fl rest with
          | [| a; h |] -> { p with p_alloc = a; p_heap = h }
          | _ -> failwith "perfbench: bad scalars line")
      | "lat" :: rest -> { p with p_lat = fl rest }
      | "churn" :: rest -> { p with p_churn = fl rest }
      | "setup" :: rest -> { p with p_setup = fl rest }
      | _ -> failwith ("perfbench: bad sub-run line: " ^ line))
    {
      p_kinds = [];
      p_correct = false;
      p_alloc = 0.0;
      p_heap = 0.0;
      p_lat = [||];
      p_churn = [||];
      p_setup = [||];
    }
    lines

(* Run sub-run [k] as a fresh process and wait for it. *)
let spawn_part kind ~seed ~seconds k =
  flush stdout;
  let args =
    [| Sys.executable_name; "--part"; string_of_int k; "--workload"; Gen.name kind; "--seed"; string_of_int seed;
       "--seconds"; Printf.sprintf "%h" seconds |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (fun l -> l <> "") in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> parse_part lines
  | _ -> failwith (Printf.sprintf "perfbench: sub-run %d of %s failed" k (Gen.name kind))

(* The batch figures are medians over windows of [window_batches]
   consecutive batches, a whole number of rounds of every workload.  The
   host runs slower in spells of a few seconds; a figure over the pooled
   run moves with how much of the run a spell covered, while the median
   window ignores spells that cover less than half of the run.  Each
   window's 99th percentile lies near its second largest batch, so a
   run's windows hold together more than ten batches beyond it. *)
let window_batches = 200

(* (events per second, p50 ns, p99 ns) of each whole window of [lat]. *)
let windows lat =
  List.init
    (Array.length lat / window_batches)
    (fun k ->
      let w = Array.sub lat (k * window_batches) window_batches in
      let sorted = sorted_copy w in
      (float_of_int (window_batches * Gen.batch_rows) /. (sum w /. 1e9), quantile sorted 0.5, quantile sorted 0.99))

let end_to_end kind ~seed ~seconds =
  let n = parts kind in
  let ps = List.init n (spawn_part kind ~seed ~seconds:(seconds /. float_of_int n)) in
  let cat f = Array.concat (List.map f ps) in
  let total f = List.fold_left (fun acc p -> acc +. f p) 0.0 ps in
  let kinds =
    List.map
      (fun (k, _, _) ->
        let a, f =
          List.fold_left
            (fun (a, f) p ->
              match List.find_opt (fun (k', _, _) -> String.equal k k') p.p_kinds with
              | Some (_, a', f') -> (a + a', f + f')
              | None -> (a, f))
            (0, 0) ps
        in
        (k, a, f))
      (List.hd ps).p_kinds
  in
  let attempted = List.fold_left (fun n (_, a, _) -> n + a) 0 kinds in
  let failed = List.fold_left (fun n (_, _, f) -> n + f) 0 kinds in
  let out = { attempted; failed; correct = List.for_all (fun p -> p.p_correct) ps; kinds } in
  let ws = List.concat_map (fun p -> windows p.p_lat) ps in
  let mid f = median (Array.of_list (List.map f ws)) in
  let n = float_of_int n in
  let metrics =
    [
      ("events_per_s", "1/s", mid (fun (rate, _, _) -> rate));
      ("batch_p50_us", "us", mid (fun (_, p50, _) -> p50) /. 1e3);
      ("batch_p99_us", "us", mid (fun (_, _, p99) -> p99) /. 1e3);
      ("churn_p50_us", "us", median (cat (fun p -> p.p_churn)) /. 1e3);
      ("setup_s", "s", median (cat (fun p -> p.p_setup)));
      ("alloc_words_per_event", "words", total (fun p -> p.p_alloc) /. n);
      ("heap_peak_mb", "MB", total (fun p -> p.p_heap) /. n);
    ]
  in
  (out, metrics)
