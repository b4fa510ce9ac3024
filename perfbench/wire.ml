(* A Cq_net.Server in a forked child.  The child is forked before this
   process creates any domain (every engine here runs at one shard, so
   none ever does).  It reports to the parent over a pipe: its port when
   listening, an acknowledgement for each SIGUSR1 mark, and at exit the
   GC and CPU counters it sampled at each mark. *)

type child = { pid : int; ctl : Unix.file_descr; port : int }

(* Counters the child samples at a mark. *)
type mark = {
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  top_heap_words : int;
  cpu_s : float;
}

let write_line fd s =
  let b = Bytes.of_string (s ^ "\n") in
  let off = ref 0 in
  while !off < Bytes.length b do
    match Unix.write fd b !off (Bytes.length b - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

exception Child_silent of string

(* One line from the child, waiting at most [timeout] seconds. *)
let read_line ?(timeout = 60.0) fd =
  let b = Buffer.create 64 in
  let one = Bytes.create 1 in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then raise (Child_silent "timed out waiting for the server child");
    match Unix.select [ fd ] [] [] left with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | [], _, _ -> go ()
    | _ -> (
        match Unix.read fd one 0 1 with
        | 0 -> raise (Child_silent "server child closed its pipe")
        | _ when Bytes.get one 0 = '\n' -> Buffer.contents b
        | _ ->
            Buffer.add_char b (Bytes.get one 0);
            go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

let sample () =
  let g = Gc.quick_stat () and t = Unix.times () in
  Printf.sprintf "%.0f %.0f %d %d %d %.6f" g.minor_words g.promoted_words g.minor_collections
    g.major_collections g.top_heap_words (t.tms_utime +. t.tms_stime)

let parse_mark s =
  Scanf.sscanf s "%f %f %d %d %d %f" (fun mw pw mc jc th cpu ->
      {
        minor_words = mw;
        promoted_words = pw;
        minor_collections = mc;
        major_collections = jc;
        top_heap_words = th;
        cpu_s = cpu;
      })

let serve_child wr engine =
  let config =
    {
      Cq_net.Server.default_config with
      engine;
      max_sessions = 8;
      (* Deep enough that no result frame is ever dropped for a reader
         that is merely taking its turn. *)
      session_queue = 1 lsl 16;
    }
  in
  let srv = Cq_net.Server.create ~config ~addr:(Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) () in
  let marks = ref [] in
  Sys.set_signal Sys.sigusr1
    (Sys.Signal_handle
       (fun _ ->
         marks := sample () :: !marks;
         write_line wr "m"));
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Cq_net.Server.stop srv));
  write_line wr (string_of_int (Cq_net.Server.port srv));
  Cq_net.Server.serve srv;
  write_line wr (String.concat ";" (List.rev !marks))

(* Pins this process, and so the child forked after it, to one core;
   returns the core, or -1 where the host does not allow it. *)
external pin_to_current_cpu : unit -> int = "perfbench_pin_to_current_cpu"

let spawn engine =
  ignore (pin_to_current_cpu ());
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let code =
        match serve_child wr engine with
        | () -> 0
        | exception e ->
            prerr_endline ("perfbench: server child: " ^ Printexc.to_string e);
            2
      in
      Unix._exit code
  | pid -> (
      Unix.close wr;
      match int_of_string (read_line rd) with
      | port -> { pid; ctl = rd; port }
      | exception e ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
          ignore (Unix.waitpid [] pid);
          Unix.close rd;
          raise e)

let addr c = Unix.ADDR_INET (Unix.inet_addr_loopback, c.port)

let mark c =
  Unix.kill c.pid Sys.sigusr1;
  let ack = read_line c.ctl in
  if not (String.equal ack "m") then raise (Child_silent ("unexpected mark reply " ^ ack))

(* Stop the child, reap it, and return the marks it took. *)
let stop c =
  let marks =
    match
      Unix.kill c.pid Sys.sigterm;
      read_line c.ctl
    with
    | "" -> []
    | line -> List.map parse_mark (String.split_on_char ';' line)
    | exception e ->
        (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
        ignore (Unix.waitpid [] c.pid);
        Unix.close c.ctl;
        raise e
  in
  let _, status = Unix.waitpid [] c.pid in
  Unix.close c.ctl;
  (match status with
  | Unix.WEXITED 0 -> ()
  | _ -> raise (Child_silent "server child did not exit cleanly"));
  marks
