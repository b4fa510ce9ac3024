(* perfbench: the end-to-end and per-layer benchmark of the hotspot
   engine and its served stack.  See perfbench/README.md.

   perfbench/run.sh --workload band-hot|select-scatter|serve-churn|all
                    --seed N --seconds S --trace 0|1
   perfbench/run.sh --self-test *)

let usage () =
  prerr_endline
    "usage: run.sh --workload band-hot|select-scatter|serve-churn|all --seed N --seconds S --trace 0|1\n\
    \       run.sh --self-test";
  exit 64

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~name (out : Run.outcome) metrics =
  List.iter
    (fun (kind, a, f) -> Printf.printf "%-16s %-8s attempted %8d  failed %d\n" name kind a f)
    out.kinds;
  List.iter (fun (m, unit, v) -> Printf.printf "%-16s %-40s %16.6f %s\n" name m v unit) metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (m, unit, v) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m (json_number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" out.correct
    out.attempted out.failed body

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30.0 and trace = ref 0 and self_test = ref false in
  let part = ref (-1) in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with Some n -> seed := n | None -> usage ());
        parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with Some x when x > 0.0 -> seconds := x | _ -> usage ());
        parse rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> trace := 0 | "1" -> trace := 1 | _ -> usage ());
        parse rest
    | "--part" :: v :: rest ->
        (match int_of_string_opt v with Some k when k >= 0 -> part := k | _ -> usage ());
        parse rest
    | "--self-test" :: rest ->
        self_test := true;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !self_test then exit (Selftest.run ())
  else if !part >= 0 then begin
    (* A sub-run of an end-to-end run; see Run.parts. *)
    match Gen.of_name !workload with
    | Some kind -> Run.print_part (Run.run_part kind ~seed:(Run.part_seed !seed !part) ~seconds:!seconds)
    | None -> usage ()
  end
  else begin
    let kinds =
      if String.equal !workload "all" then Gen.kinds
      else match Gen.of_name !workload with Some k -> [ k ] | None -> usage ()
    in
    List.iter
      (fun kind ->
        let name = Gen.name kind in
        if !trace = 0 then begin
          let out, metrics = Run.end_to_end kind ~seed:!seed ~seconds:!seconds in
          print_result ~name out metrics
        end
        else begin
          let out, metrics = Traced.run kind ~seed:!seed ~seconds:!seconds in
          print_result ~name out metrics
        end)
      kinds
  end
