module Json = Pet_pet.Json
module Metrics = Pet_obs.Metrics
module Slo = Pet_obs.Slo
module Smap = Map.Make (String)

let n_buckets = Array.length Metrics.bucket_bounds

(* Requests summed: a cell's running total, or one slice of its SLO
   ring, whose aligned start [t0] is nan until first used. [counts] is
   empty until the tally's first [add]: most of a tenant's slices, and
   most methods' cells, never record anything. *)
type tally = {
  mutable t0 : float;
  mutable n : int;
  mutable errors : int;
  mutable sum : float;
  mutable max : float;
  mutable counts : int array;
}

let tally () = { t0 = nan; n = 0; errors = 0; sum = 0.; max = 0.; counts = [||] }

let add x ~bucket ~latency ~error =
  x.n <- x.n + 1;
  if error then x.errors <- x.errors + 1;
  x.sum <- x.sum +. latency;
  if latency > x.max then x.max <- latency;
  if Array.length x.counts = 0 then x.counts <- Array.make n_buckets 0;
  x.counts.(bucket) <- x.counts.(bucket) + 1

type cell = { total : tally; ring : tally array }

let cell () = { total = tally (); ring = Array.init Slo.slices (fun _ -> tally ()) }
let width = Slo.default_objective.Slo.window_s /. float_of_int Slo.slices

(* The slice [now] lands in, reset first if it still holds a previous
   revolution of the ring. *)
let slice_for cell ~now =
  let turn = floor (now /. width) in
  let s = cell.ring.(((int_of_float turn mod Slo.slices) + Slo.slices) mod Slo.slices) in
  let t0 = turn *. width in
  if s.t0 <> t0 then begin
    s.t0 <- t0;
    s.n <- 0;
    s.errors <- 0;
    s.sum <- 0.;
    s.max <- 0.;
    Array.fill s.counts 0 (Array.length s.counts) 0
  end;
  s

(* Wire method names in byte order, so [stats] and the snapshot list
   them sorted; "invalid" holds undecodable lines. *)
let methods =
  [|
    "audit"; "choose_option"; "expire"; "get_report"; "invalid"; "metrics";
    "new_session"; "publish_rules"; "revoke"; "stats"; "submit_form";
    "tenant"; "trace"; "update_rules"; "watch";
  |]

let invalid = 4

let method_index = function
  | Proto.Audit _ -> 0
  | Proto.Choose_option _ -> 1
  | Proto.Expire _ -> 2
  | Proto.Get_report _ -> 3
  | Proto.Metrics _ -> 5
  | Proto.New_session _ -> 6
  | Proto.Publish_rules _ -> 7
  | Proto.Revoke _ -> 8
  | Proto.Stats -> 9
  | Proto.Submit_form _ -> 10
  | Proto.Tenant_info _ -> 11
  | Proto.Trace_req _ -> 12
  | Proto.Update_rules _ -> 13
  | Proto.Watch _ -> 14

type t = {
  mutable arrivals : int;
  hold : tally;
      (* how long the shard held rendered replies for their commit *)
  by_method : cell array;
  mutable by_tenant : cell Smap.t;
      (* replaced whole on insert, never mutated in place, so a reader
         on another domain always sees a complete map *)
}

let create () =
  {
    arrivals = 0;
    hold = tally ();
    by_method = Array.init (Array.length methods) (fun _ -> cell ());
    by_tenant = Smap.empty;
  }

let arrive t = t.arrivals <- t.arrivals + 1

let record t ~meth ~tenant ~now ~latency ~error =
  let latency = Float.max 0. latency in
  let bucket = Metrics.bucket_of latency in
  let into c =
    add c.total ~bucket ~latency ~error;
    add (slice_for c ~now) ~bucket ~latency ~error
  in
  into t.by_method.(meth);
  Option.iter
    (fun name ->
      match Smap.find_opt name t.by_tenant with
      | Some c -> into c
      | None ->
        let c = cell () in
        t.by_tenant <- Smap.add name c t.by_tenant;
        into c)
    tenant

let record_hold t seconds =
  let seconds = Float.max 0. seconds in
  add t.hold ~bucket:(Metrics.bucket_of seconds) ~latency:seconds ~error:false

let requests_json t =
  let by_method =
    List.filter_map
      (fun (name, { total = x; _ }) ->
        if x.n = 0 then None
        else
          Some
            ( name,
              Json.Obj
                [
                  ("count", Json.Int x.n);
                  ("errors", Json.Int x.errors);
                  ( "latency_s",
                    Json.Obj
                      [ ("total", Json.Float x.sum); ("max", Json.Float x.max) ] );
                ] ))
      (List.combine (Array.to_list methods) (Array.to_list t.by_method))
  in
  Json.Obj [ ("total", Json.Int t.arrivals); ("by_method", Json.Obj by_method) ]

(* --- Readers: merged views over every shard's set ------------------------------ *)

let () =
  List.iter
    (fun (name, help) -> Metrics.set_help name help)
    [
      ( "pet_tenant_requests_total",
        "Requests attributed to a tenant (by session or by name)." );
      ("pet_tenant_errors_total", "Failed requests attributed to a tenant.");
      ("pet_tenant_request_seconds", "Request latency attributed to a tenant.");
      ("pet_server_requests_total", "Protocol requests received.");
      ("pet_server_errors_total", "Protocol requests answered with an error.");
      ("pet_server_request_seconds", "Request latency by wire method.");
      ( "pet_net_reply_hold_seconds",
        "Time a rendered reply waited for its commit before it was written." );
    ]

(* Tallies summed into one histogram and their error count. *)
let summed tallies =
  let counts = Array.make n_buckets 0 in
  let count, sum, max, errors =
    List.fold_left
      (fun (count, sum, max, errors) x ->
        Array.iteri (fun i n -> counts.(i) <- counts.(i) + n) x.counts;
        (count + x.n, sum +. x.sum, Float.max max x.max, errors + x.errors))
      (0, 0., 0., 0) tallies
  in
  let buckets =
    List.filter_map
      (fun i ->
        if counts.(i) = 0 then None
        else Some (Metrics.bucket_bounds.(i), counts.(i)))
      (List.init n_buckets Fun.id)
  in
  ({ Metrics.count; sum; max; buckets }, errors)

(* The cells' SLO window at [now]: the slices that started within it
   (never-used slices have a nan start and compare false). *)
let judge key cells ~now =
  let from = now -. Slo.default_objective.Slo.window_s in
  let slices =
    List.concat_map
      (fun c -> List.filter (fun s -> s.t0 > from) (Array.to_list c.ring))
      cells
  in
  let hist, errors = summed slices in
  Slo.evaluate key ~errors hist

let snapshot sets ~now (base : Metrics.snapshot) =
  let label k v = Printf.sprintf "{%s=\"%s\"}" k (Metrics.escape_label v) in
  (* One series per method and per tenant: its cells on every shard,
     their merged histogram and error count. *)
  let series key cells =
    let hist, errors = summed (List.map (fun c -> c.total) cells) in
    (key, cells, hist, errors)
  in
  let by_method =
    List.mapi
      (fun i m -> series m (List.map (fun t -> t.by_method.(i)) sets))
      (Array.to_list methods)
  in
  let by_tenant =
    List.concat_map (fun t -> List.map fst (Smap.bindings t.by_tenant)) sets
    |> List.sort_uniq String.compare
    |> List.map (fun name ->
           series name (List.filter_map (fun t -> Smap.find_opt name t.by_tenant) sets))
  in
  let sum f l = List.fold_left (fun n x -> n + f x) 0 l in
  let counters =
    [
      ("pet_server_requests_total", sum (fun t -> t.arrivals) sets);
      ("pet_server_errors_total", sum (fun (_, _, _, e) -> e) by_method);
    ]
    @ List.mapi
        (fun i t ->
          ( "pet_net_shard_requests_total" ^ label "domain" (string_of_int i),
            t.arrivals ))
        sets
    @ List.concat_map
        (fun (name, _, (h : Metrics.hist_stats), errors) ->
          ("pet_tenant_requests_total" ^ label "tenant" name, h.Metrics.count)
          ::
          (if errors = 0 then []
           else [ ("pet_tenant_errors_total" ^ label "tenant" name, errors) ]))
        by_tenant
  in
  let histogram family key (name, _, h, _) = (family ^ label key name, h) in
  let hold, _ = summed (List.map (fun t -> t.hold) sets) in
  let histograms =
    List.map (histogram "pet_server_request_seconds" "method") by_method
    @ List.map (histogram "pet_tenant_request_seconds" "tenant") by_tenant
    @ if hold.Metrics.count = 0 then [] else [ ("pet_net_reply_hold_seconds", hold) ]
  in
  (* An SLO key appears once it recorded a request, like the series it
     watches; tenants key as "tenant:NAME". *)
  let gauges =
    List.concat_map
      (fun (key, cells, (h : Metrics.hist_stats), _) ->
        if h.Metrics.count = 0 then [] else Slo.gauges (judge key cells ~now))
      (by_method
      @ List.map (fun (name, c, h, e) -> ("tenant:" ^ name, c, h, e)) by_tenant)
  in
  let merged base extra =
    List.sort (fun (a, _) (b, _) -> String.compare a b) (base @ extra)
  in
  {
    Metrics.counters = merged base.Metrics.counters counters;
    gauges = merged base.Metrics.gauges gauges;
    histograms = merged base.Metrics.histograms histograms;
  }
