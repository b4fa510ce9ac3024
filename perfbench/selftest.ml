(* Plants one fault at a time in what a short run observes and shows
   that the checks catch each one, and that a clean run passes. *)

let rounds = 10

let case kind fault =
  let w = Gen.make kind 1 in
  let o = Check.create () in
  o.fault <- fault;
  let t = Run.prepare w o () in
  let s = Run.stream ~max_rounds:rounds w t o ~seconds:0.0 ~alternate:false in
  t.finish ();
  t.close ();
  let e = Mirror.replay kind 1 ~rounds:s.rounds in
  let v = Check.compare o e ~nb:o.batches ~rows_per_batch:Gen.batch_rows in
  v.batch_fail + v.query_fail + v.retract_fail + o.churn_fail + o.load_fail > 0

let fault_name = function
  | Check.No_fault -> "none"
  | Check.Drop_result -> "dropped result"
  | Check.Dup_result -> "duplicated result"
  | Check.Wrong_pair -> "wrong pair"
  | Check.Reorder -> "out-of-order delivery"
  | Check.Miss_retraction -> "missed retraction"

let run () =
  let cases =
    [
      (Gen.Band_hot, Check.No_fault);
      (Gen.Band_hot, Check.Drop_result);
      (Gen.Band_hot, Check.Dup_result);
      (Gen.Band_hot, Check.Wrong_pair);
      (Gen.Band_hot, Check.Reorder);
      (Gen.Select_scatter, Check.No_fault);
      (Gen.Select_scatter, Check.Miss_retraction);
    ]
  in
  let ok =
    List.fold_left
      (fun ok (kind, fault) ->
        let caught = case kind fault in
        let expected = fault <> Check.No_fault in
        Printf.printf "%-16s planted %-22s %s\n%!" (Gen.name kind) (fault_name fault)
          (match (expected, caught) with
          | true, true -> "caught"
          | false, false -> "clean run passes"
          | true, false -> "NOT CAUGHT"
          | false, true -> "CLEAN RUN FAILED");
        ok && caught = expected)
      true cases
  in
  if ok then 0 else 1
