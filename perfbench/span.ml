(* The benchmark's own span buffer: name, start, end and parent of each
   call it makes into a layer, kept in preallocated int arrays (so a
   span costs no minor words) and written out as a Chrome trace at the
   end.  While [enabled] is false, [enter] returns -1 and records
   nothing. *)

let names =
  [| "batch"; "ingest"; "flush"; "evict"; "churn"; "unsubscribe"; "subscribe"; "send"; "reply" |]

let batch = 0
let ingest = 1
let flush = 2
let evict = 3
let churn = 4
let unsubscribe = 5
let subscribe = 6
let send = 7
let reply = 8
let capacity = 1 lsl 18

type t = {
  mutable enabled : bool;
  name : int array;
  start : int array;
  stop : int array;
  parent : int array;
  mutable n : int;
  mutable dropped : int;
  mutable current : int;  (** Innermost open span, -1 at top level. *)
  (* Totals over every closed span, including those past capacity. *)
  total_ns : int array;  (** Per name: summed duration. *)
  child_ns : int array;  (** Per name: duration covered by direct children. *)
}

let buf =
  {
    enabled = false;
    name = Array.make capacity 0;
    start = Array.make capacity 0;
    stop = Array.make capacity 0;
    parent = Array.make capacity 0;
    n = 0;
    dropped = 0;
    current = -1;
    total_ns = Array.make (Array.length names) 0;
    child_ns = Array.make (Array.length names) 0;
  }

(* Open spans past capacity still need a slot for their start and
   parent; they use a small overflow stack. *)
let ov_start = Array.make 64 0
let ov_name = Array.make 64 0
let ov_parent = Array.make 64 0
let ov_depth = ref 0

let enter nm =
  if not buf.enabled then -1
  else begin
    let t = Util.now_ns () in
    if buf.n < capacity then begin
      let id = buf.n in
      buf.n <- id + 1;
      buf.name.(id) <- nm;
      buf.start.(id) <- t;
      buf.parent.(id) <- buf.current;
      buf.current <- id;
      id
    end
    else begin
      let d = !ov_depth in
      ov_depth := d + 1;
      ov_start.(d) <- t;
      ov_name.(d) <- nm;
      ov_parent.(d) <- buf.current;
      buf.dropped <- buf.dropped + 1;
      buf.current <- -2 - d;
      -2 - d
    end
  end

let parent_name p = if p >= 0 then buf.name.(p) else if p <= -2 then ov_name.(-2 - p) else -1

let close nm st par t =
  let dur = t - st in
  buf.total_ns.(nm) <- buf.total_ns.(nm) + dur;
  let pn = parent_name par in
  if pn >= 0 then buf.child_ns.(pn) <- buf.child_ns.(pn) + dur;
  buf.current <- par

let leave id =
  if id >= 0 then begin
    let t = Util.now_ns () in
    buf.stop.(id) <- t;
    close buf.name.(id) buf.start.(id) buf.parent.(id) t
  end
  else if id <= -2 then begin
    let t = Util.now_ns () in
    decr ov_depth;
    let d = -2 - id in
    close ov_name.(d) ov_start.(d) ov_parent.(d) t
  end

(* Share of the top-level spans' time that no child span covers. *)
let unattributed_pct () =
  let total = buf.total_ns.(batch) + buf.total_ns.(churn) in
  let covered = buf.child_ns.(batch) + buf.child_ns.(churn) in
  if total = 0 then 0.0 else 100.0 *. float_of_int (total - covered) /. float_of_int total

(* Chrome trace_event JSON ("X" complete events, microseconds); open it
   in chrome://tracing or ui.perfetto.dev. *)
let write_chrome path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  let t0 = if buf.n > 0 then buf.start.(0) else 0 in
  let first = ref true in
  for i = 0 to buf.n - 1 do
    if buf.stop.(i) >= buf.start.(i) then begin
      if not !first then output_string oc ",\n";
      first := false;
      Printf.fprintf oc
        "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
        names.(buf.name.(i))
        (float_of_int (buf.start.(i) - t0) /. 1e3)
        (float_of_int (buf.stop.(i) - buf.start.(i)) /. 1e3)
        i buf.parent.(i)
    end
  done;
  Printf.fprintf oc "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{\"spans\":%d,\"dropped\":%d}}\n" buf.n
    buf.dropped;
  close_out oc
