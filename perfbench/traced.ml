(* The traced run: the workload's own stream with spans on in every
   other round (the rounds between give the untraced rate the overhead
   is measured against), then the per-layer replays.  The spans are
   written as a Chrome trace under perfbench/_trace/. *)

open Util

let trace_dir = Filename.concat "perfbench" "_trace"

let run kind ~seed ~seconds =
  let w = Gen.make kind seed in
  let o = Check.create () in
  let t = Run.prepare w o () in
  t.mark ();
  let s = Run.stream w t o ~seconds ~alternate:true in
  t.mark ();
  t.finish ();
  t.close ();
  let out = Run.verdict w ~seed o s in
  let untraced = float_of_int s.events /. s.batch_ns and traced = float_of_int s.t_events /. s.t_batch_ns in
  let gc =
    match t.marks () with
    | [ m0; _; m1 ] ->
        let ev = float_of_int (s.events + s.t_events) in
        [
          ("gc.minor_collections_per_kevent", "count", 1000.0 *. float_of_int (m1.minor_collections - m0.minor_collections) /. ev);
          ("gc.major_collections_per_kevent", "count", 1000.0 *. float_of_int (m1.major_collections - m0.major_collections) /. ev);
          ("gc.promoted_words_per_event", "words", (m1.promoted_words -. m0.promoted_words) /. ev);
        ]
    | _ ->
        let ev = float_of_int s.t_events in
        [
          ("gc.minor_collections_per_kevent", "count", 1000.0 *. float_of_int s.gc_minor /. ev);
          ("gc.major_collections_per_kevent", "count", 1000.0 *. float_of_int s.gc_major /. ev);
          ("gc.promoted_words_per_event", "words", s.gc_promoted /. ev);
        ]
  in
  let trace =
    [
      ("trace.overhead_pct", "%", 100.0 *. ((untraced /. traced) -. 1.0));
      ("trace.unattributed_pct", "%", Span.unattributed_pct ());
    ]
  in
  (try Unix.mkdir trace_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat trace_dir (Printf.sprintf "%s-seed%d.json" (Gen.name kind) seed) in
  Span.write_chrome path;
  Printf.eprintf "perfbench: wrote %d spans to %s\n%!" Span.buf.n path;
  let par = Layers.parallel kind seed in
  let metrics =
    par.metrics @ Layers.engine kind seed @ Layers.processor kind seed @ Layers.stab kind seed
    @ Layers.frames kind seed par.groups @ Layers.server kind seed par @ gc @ trace
  in
  ignore median;
  (out, metrics)
