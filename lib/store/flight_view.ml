module Json = Pet_pet.Json
module Metrics = Pet_obs.Metrics

let metric_labels name =
  match String.index_opt name '{' with
  | None -> (name, [])
  | Some i ->
    let n = String.length name in
    (* key="value" pairs from [j]; a value ends at its first unescaped
       quote, and anything malformed ends the list *)
    let rec pairs j acc =
      match String.index_from_opt name j '=' with
      | Some eq when j < n && name.[j] <> '}' -> (
        let buf = Buffer.create 8 in
        let rec value p =
          if p >= n then None
          else
            match name.[p] with
            | '"' -> Some (p + 1)
            | '\\' when p + 1 < n ->
              Buffer.add_char buf name.[p + 1];
              value (p + 2)
            | c ->
              Buffer.add_char buf c;
              value (p + 1)
        in
        match value (eq + 2) with
        | None -> List.rev acc
        | Some next ->
          let acc = (String.sub name j (eq - j), Buffer.contents buf) :: acc in
          pairs (if next < n && name.[next] = ',' then next + 1 else next) acc)
      | _ -> List.rev acc
    in
    (String.sub name 0 i, pairs (i + 1) [])

let le_value s =
  if s = "+Inf" then infinity
  else match float_of_string_opt s with Some f -> f | None -> infinity

let p99 buckets total =
  if total <= 0 then 0.
  else
    let buckets = List.sort (fun (a, _) (b, _) -> compare a b) buckets in
    let max =
      List.fold_left
        (fun acc (b, _) -> if b < infinity then b else acc)
        0. buckets
    in
    Metrics.quantile { Metrics.count = total; sum = 0.; max; buckets } 0.99

let num = function Json.Int i -> float_of_int i | Json.Float f -> f | _ -> 0.
let obj = function Some (Json.Obj kvs) -> kvs | _ -> []
let num_at json key = Option.fold ~none:0. ~some:num (Json.member key json)

(* Every sample of one family that carries [label], as
   (label value, full name, sample), sorted. *)
let series family label samples =
  List.filter_map
    (fun (name, v) ->
      let fam, labels = metric_labels name in
      if fam = family then
        Option.map (fun key -> (key, name, v)) (List.assoc_opt label labels)
      else None)
    samples
  |> List.sort compare

(* --- The journal -------------------------------------------------------------- *)

let report dir =
  (* Gauges keep last-seen and maximum (burn-rate peaks), histogram
     bucket deltas sum back to cumulative distributions. *)
  let bump table key n =
    Hashtbl.replace table key (n + Option.value ~default:0 (Hashtbl.find_opt table key))
  in
  let gauges = Hashtbl.create 64 in
  let hists = Hashtbl.create 32 in
  let kinds = Hashtbl.create 4 in
  let metas = ref [] and wal = ref Json.Null in
  let tmin = ref infinity and tmax = ref neg_infinity in
  let records = ref 0 and bad = ref 0 in
  let fnum v = if Float.is_integer v then Json.Int (int_of_float v) else Json.Float v in
  let add (r : Flight_log.record) =
    match Json.parse r.Flight_log.payload with
    | Error _ -> incr bad
    | Ok payload ->
      incr records;
      let t = num_at payload "t" in
      if t < !tmin then tmin := t;
      if t > !tmax then tmax := t;
      let kind =
        match Json.member "kind" payload with Some (Json.String k) -> k | _ -> "?"
      in
      bump kinds kind 1;
      (match Json.member "event" payload with
      | Some (Json.String e) when kind = "meta" ->
        metas := Json.Obj [ ("event", Json.String e); ("t", fnum t) ] :: !metas
      | _ -> ());
      (match Json.member "wal" payload with
      | Some w -> (
        match (Json.member "file" w, Json.member "off" w) with
        | Some (Json.String file), Some off ->
          wal :=
            Json.Obj
              [
                ("file", Json.String file);
                ("off", Json.Int (int_of_float (num off)));
                ("t", fnum t);
              ]
        | _ -> ())
      | None -> ());
      List.iter
        (fun (name, v) ->
          let v = num v in
          let _, prev_max =
            Option.value ~default:(0., neg_infinity) (Hashtbl.find_opt gauges name)
          in
          Hashtbl.replace gauges name (v, Float.max v prev_max))
        (obj (Json.member "gauges" payload));
      List.iter
        (fun (name, h) ->
          let hn, hbuckets =
            match Hashtbl.find_opt hists name with
            | Some acc -> acc
            | None ->
              let acc = (ref 0, Hashtbl.create 8) in
              Hashtbl.add hists name acc;
              acc
          in
          hn := !hn + int_of_float (num_at h "n");
          List.iter
            (fun (le, c) -> bump hbuckets (le_value le) (int_of_float (num c)))
            (obj (Json.member "buckets" h)))
        (obj (Json.member "hist" payload))
  in
  Result.map
    (fun ((), damage) ->
      let latency family label =
        series family label (List.of_seq (Hashtbl.to_seq hists))
        |> List.map (fun (key, _, (hn, hbuckets)) ->
               Json.Obj
                 [
                   (label, Json.String key);
                   ("requests", Json.Int !hn);
                   ( "p99_s",
                     Json.Float (p99 (List.of_seq (Hashtbl.to_seq hbuckets)) !hn) );
                 ])
      in
      let slo key =
        let gauge family =
          Option.value ~default:(0., 0.)
            (Hashtbl.find_opt gauges (Printf.sprintf "%s{slo=\"%s\"}" family key))
        in
        let last family = Json.Float (fst (gauge family)) in
        let peak family = Json.Float (snd (gauge family)) in
        Json.Obj
          [
            ("key", Json.String key);
            ( "window_requests",
              Json.Int (int_of_float (fst (gauge "pet_slo_window_requests"))) );
            ("p99_s", last "pet_slo_p99_seconds");
            ("error_ratio", last "pet_slo_error_ratio");
            ("error_burn", last "pet_slo_error_burn");
            ("error_burn_max", peak "pet_slo_error_burn");
            ("latency_burn", last "pet_slo_latency_burn");
            ("latency_burn_max", peak "pet_slo_latency_burn");
            ("breached", Json.Bool (snd (gauge "pet_slo_breached") > 0.));
          ]
      in
      let slo_keys =
        Hashtbl.fold
          (fun name _ acc ->
            let fam, labels = metric_labels name in
            match List.assoc_opt "slo" labels with
            | Some key when String.starts_with ~prefix:"pet_slo_" fam -> key :: acc
            | _ -> acc)
          gauges []
        |> List.sort_uniq compare
      in
      let kind k = Json.Int (Option.value ~default:0 (Hashtbl.find_opt kinds k)) in
      Json.Obj
        [
          ("dir", Json.String dir);
          ("records", Json.Int !records);
          ( "kinds",
            Json.Obj
              (List.map (fun k -> (k, kind k)) [ "snap"; "log"; "trace"; "meta" ]) );
          ("unparsed", Json.Int !bad);
          ("t_min", fnum (if !records = 0 then 0. else !tmin));
          ("t_max", fnum (if !records = 0 then 0. else !tmax));
          ( "damage",
            Json.List
              (List.map
                 (fun (d : Flight_log.damage) ->
                   Json.Obj
                     [
                       ("file", Json.String d.Flight_log.dfile);
                       ("offset", Json.Int d.Flight_log.doffset);
                       ("reason", Json.String d.Flight_log.dreason);
                     ])
                 damage) );
          ("wal", !wal);
          ("lifecycle", Json.List (List.rev !metas));
          ("methods", Json.List (latency "pet_server_request_seconds" "method"));
          ("tenants", Json.List (latency "pet_tenant_request_seconds" "tenant"));
          ("slo", Json.List (List.map slo slo_keys));
        ])
    (Flight_log.fold dir ~init:() (fun () r -> add r))

(* --- Watch frames ------------------------------------------------------------------- *)

type frame = {
  t : float;
  counters : (string * float) list;
  gauges : (string * float) list;
  hists : (string * (float * (float * int) list)) list;
}

let frame line =
  match Json.parse line with
  | Error _ -> None
  | Ok response ->
    Option.map
      (fun w ->
        let samples key = List.map (fun (k, v) -> (k, num v)) (obj (Json.member key w)) in
        {
          t = num_at w "t";
          counters = samples "counters";
          gauges = samples "gauges";
          hists =
            List.map
              (fun (k, h) ->
                ( k,
                  ( num_at h "n",
                    List.map
                      (fun (le, c) -> (le_value le, int_of_float (num c)))
                      (obj (Json.member "buckets" h)) ) ))
              (obj (Json.member "hist" w));
        })
      (Option.bind (Json.member "ok" response) (Json.member "watch"))

let sample samples name = Option.value ~default:0. (List.assoc_opt name samples)

let method_latency ?prev frame =
  let prev_hists = match prev with Some p -> p.hists | None -> [] in
  let interval = match prev with Some p -> frame.t -. p.t > 0. | None -> false in
  series "pet_server_request_seconds" "method" frame.hists
  |> List.map (fun (m, name, (n, buckets)) ->
         let pn, pbuckets =
           Option.value ~default:(0., []) (List.assoc_opt name prev_hists)
         in
         let delta =
           List.map
             (fun (b, c) -> (b, c - Option.value ~default:0 (List.assoc_opt b pbuckets)))
             buckets
         in
         let dn = int_of_float (n -. pn) in
         let p99 =
           if interval && dn > 0 then p99 delta dn else p99 buckets (int_of_float n)
         in
         (m, n, pn, p99))
