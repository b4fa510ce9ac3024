(* Seeded inputs for the three workloads.  [make kind seed] returns the
   initial queries, the preloaded tables and a generator of rounds; two
   calls with the same seed yield identical values, which is how the
   mirror replays exactly what the timed run executed. *)

module B = Cq_relation.Batch

type side = R | S

type spec =
  | Band of { lo : float; hi : float }
  | Select of { alo : float; ahi : float; clo : float; chi : float }

type op =
  | Batch of { side : side; rows : B.t; session : int; first_ord : int }
      (** [first_ord] is the global ordinal of the batch's first event. *)
  | Churn of { slot : int; spec : spec; session : int }
      (** Replace the query in [slot] by a new one. *)

type kind = Band_hot | Select_scatter | Serve_churn

let kinds = [ Band_hot; Select_scatter; Serve_churn ]

let name = function
  | Band_hot -> "band-hot"
  | Select_scatter -> "select-scatter"
  | Serve_churn -> "serve-churn"

let of_name s = List.find_opt (fun k -> String.equal (name k) s) kinds

type t = {
  kind : kind;
  queries : spec array;  (** Slot [i] holds query instance [i] at start. *)
  preload_r : (float * float) array;  (** [(a, b)] *)
  preload_s : (float * float) array;  (** [(b, c)] *)
  evict : bool;  (** Count windows: each batch evicts as many oldest rows of its side. *)
  sessions : int;
  next_round : unit -> op array;
}

let batch_rows = 16

(* Sizes.  They fix the work per event, so changing any of them changes
   what every metric means: treat them as part of the benchmark. *)
let band_s_rows = 5000
let band_queries = 1000
let band_hotspots = 8
let band_clustered = 0.9
let select_b_values = 1000
let select_r_rows = 20000
let select_s_rows = 20000
let select_queries = 20000
let select_hotspots = 10
let select_clustered = 0.8
let serve_s_rows = 20000
let serve_queries = 2000
let domain = 10000.0

let uniform st lo hi = lo +. Random.State.float st (hi -. lo)

let zipf_cdf n =
  let w = Array.init n (fun k -> 1.0 /. float_of_int (k + 1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf st cdf =
  let u = Random.State.float st 1.0 in
  let n = Array.length cdf in
  let rec go i = if i >= n - 1 || u < cdf.(i) then i else go (i + 1) in
  go 0

(* Band windows over the offset S.B - R.B: narrow (length 1..3 at S.B
   density 0.5, so about one result per query per event), most of them
   piled on a few hot offsets. *)
let band_spec st hot cdf =
  let mid =
    if Random.State.float st 1.0 < band_clustered then hot.(zipf st cdf) +. uniform st (-1.0) 1.0
    else uniform st (-1500.0) 1500.0
  in
  let len = uniform st 1.0 3.0 in
  Band { lo = mid -. (len /. 2.0); hi = mid +. (len /. 2.0) }

(* Select queries: narrow, scattered range_a; range_c mostly clustered
   on a few hot centres, which is where the hotspots form. *)
let select_spec st ~alen hot cdf =
  let amid = uniform st 0.0 domain in
  let al = uniform st (fst alen) (snd alen) in
  let clo, chi =
    if Random.State.float st 1.0 < select_clustered then
      (* Half-widths stay under half the 800 gap between centres, so
         each cluster is one stabbing group whatever the seed. *)
      let c = hot.(zipf st cdf) in
      (c -. uniform st 150.0 300.0, c +. uniform st 150.0 300.0)
    else
      let m = uniform st 0.0 domain and l = uniform st 100.0 600.0 in
      (m -. (l /. 2.0), m +. (l /. 2.0))
  in
  Select { alo = amid -. (al /. 2.0); ahi = amid +. (al /. 2.0); clo; chi }

(* Hot centres evenly spaced over [lo, hi] with a little jitter, their
   Zipf ranks shuffled: the seed moves the hotspots but not how much
   they overlap, which would change the work per event. *)
let hot_centres st n ~lo ~hi =
  let gap = (hi -. lo) /. float_of_int n in
  let c = Array.init n (fun k -> lo +. ((float_of_int k +. 0.5) *. gap) +. uniform st (-0.05 *. gap) (0.05 *. gap)) in
  for k = n - 1 downto 1 do
    let j = Random.State.int st (k + 1) in
    let x = c.(k) in
    c.(k) <- c.(j);
    c.(j) <- x
  done;
  c

let b_value st = float_of_int (Random.State.int st select_b_values)

let make_batch n f =
  let b = B.create ~capacity:n () in
  for i = 0 to n - 1 do
    let x, y = f i in
    B.push b ~x ~y
  done;
  b

let make kind seed =
  let st = Random.State.make [| seed; 0x5eed; Hashtbl.hash (name kind) |] in
  let ord = ref 0 in
  let batch side session f =
    let first_ord = !ord in
    ord := !ord + batch_rows;
    Batch { side; rows = make_batch batch_rows (fun i -> f (first_ord + i)); session; first_ord }
  in
  match kind with
  | Band_hot ->
      let cdf = zipf_cdf band_hotspots in
      let hot = hot_centres st band_hotspots ~lo:(-1500.0) ~hi:1500.0 in
      let preload_s = Array.init band_s_rows (fun i -> (uniform st 0.0 domain, float_of_int i)) in
      let queries = Array.init band_queries (fun _ -> band_spec st hot cdf) in
      (* R.A carries the event ordinal (band joins ignore it); R.B keeps
         every instantiated window inside S's domain, so the result
         count per event does not depend on where the hotspots fell. *)
      let r () = batch R 0 (fun o -> (float_of_int o, uniform st 2000.0 8000.0)) in
      let next_round () =
        let b1 = r () in
        let b2 = r () in
        let b3 = r () in
        let b4 = r () in
        let c =
          Churn { slot = Random.State.int st band_queries; spec = band_spec st hot cdf; session = 0 }
        in
        [| b1; b2; b3; b4; c |]
      in
      { kind; queries; preload_r = [||]; preload_s; evict = false; sessions = 1; next_round }
  | Select_scatter ->
      let cdf = zipf_cdf select_hotspots in
      let hot = hot_centres st select_hotspots ~lo:1000.0 ~hi:9000.0 in
      let alen = (2.0, 8.0) in
      let preload_r = Array.init select_r_rows (fun _ -> (uniform st 0.0 domain, b_value st)) in
      let preload_s = Array.init select_s_rows (fun _ -> (b_value st, uniform st 0.0 domain)) in
      let queries = Array.init select_queries (fun _ -> select_spec st ~alen hot cdf) in
      let churn () =
        Churn
          { slot = Random.State.int st select_queries; spec = select_spec st ~alen hot cdf; session = 0 }
      in
      (* Three R batches to one S batch: S events stab the clustered
         range_c windows and cost several times an R event, so an even
         mix would put the median batch between the two modes. *)
      let next_round () =
        let r () = batch R 0 (fun _ -> (uniform st 0.0 domain, b_value st)) in
        let b1 = r () in
        let c1 = churn () in
        let b2 = r () in
        let c2 = churn () in
        let b3 = r () in
        let c3 = churn () in
        let b4 = batch S 0 (fun _ -> (b_value st, uniform st 0.0 domain)) in
        let c4 = churn () in
        [| b1; c1; b2; c2; b3; c3; b4; c4 |]
      in
      { kind; queries; preload_r; preload_s; evict = true; sessions = 1; next_round }
  | Serve_churn ->
      let cdf = zipf_cdf select_hotspots in
      let hot = hot_centres st select_hotspots ~lo:1000.0 ~hi:9000.0 in
      let alen = (10.0, 30.0) in
      let preload_s = Array.init serve_s_rows (fun _ -> (b_value st, uniform st 0.0 domain)) in
      let queries = Array.init serve_queries (fun _ -> select_spec st ~alen hot cdf) in
      let half = serve_queries / 2 in
      let churn session =
        Churn
          {
            slot = (session * half) + Random.State.int st half;
            spec = select_spec st ~alen hot cdf;
            session;
          }
      in
      let r session = batch R session (fun _ -> (uniform st 0.0 domain, b_value st)) in
      let next_round () =
        (* Sessions take turns; each replaces one of its queries every
           four of its batches. *)
        let ops = ref [] in
        for i = 0 to 3 do
          let b0 = r 0 in
          let b1 = r 1 in
          ops := b1 :: b0 :: !ops;
          if i = 1 then ops := churn 0 :: !ops;
          if i = 3 then ops := churn 1 :: !ops
        done;
        Array.of_list (List.rev !ops)
      in
      { kind; queries; preload_r = [||]; preload_s; evict = false; sessions = 2; next_round }

let batches_per_round = function Band_hot -> 4 | Select_scatter -> 4 | Serve_churn -> 8
