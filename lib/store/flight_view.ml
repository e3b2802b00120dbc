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

type latency = { label : string; requests : int; p99 : float }

type slo = {
  key : string;
  window_requests : int;
  p99_s : float;
  error_ratio : float;
  error_burn : float;
  error_burn_max : float;
  latency_burn : float;
  latency_burn_max : float;
  breached : bool;
}

type report = {
  dir : string;
  records : int;
  kinds : (string * int) list;
  unparsed : int;
  t_min : float;
  t_max : float;
  damage : Segment.damage list;
  wal : (string * int * float) option;
  lifecycle : (string * float) list;
  methods : latency list;
  tenants : latency list;
  slos : slo list;
}

let report dir =
  (* Gauges keep last-seen and maximum (burn-rate peaks), histogram
     bucket deltas sum back to cumulative distributions. *)
  let bump table key n =
    Hashtbl.replace table key (n + Option.value ~default:0 (Hashtbl.find_opt table key))
  in
  let gauges = Hashtbl.create 64 in
  let hists = Hashtbl.create 32 in
  let kinds = Hashtbl.create 4 in
  let metas = ref [] and wal = ref None in
  let tmin = ref infinity and tmax = ref neg_infinity in
  let records = ref 0 and bad = ref 0 in
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
      | Some (Json.String e) when kind = "meta" -> metas := (e, t) :: !metas
      | _ -> ());
      (match Json.member "wal" payload with
      | Some w -> (
        match (Json.member "file" w, Json.member "off" w) with
        | Some (Json.String file), Some off ->
          wal := Some (file, int_of_float (num off), t)
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
        |> List.map (fun (label, _, (hn, hbuckets)) ->
               {
                 label;
                 requests = !hn;
                 p99 = p99 (List.of_seq (Hashtbl.to_seq hbuckets)) !hn;
               })
      in
      let slo key =
        let gauge family =
          Option.value ~default:(0., 0.)
            (Hashtbl.find_opt gauges (Printf.sprintf "%s{slo=\"%s\"}" family key))
        in
        let last family = fst (gauge family) and peak family = snd (gauge family) in
        {
          key;
          window_requests = int_of_float (last "pet_slo_window_requests");
          p99_s = last "pet_slo_p99_seconds";
          error_ratio = last "pet_slo_error_ratio";
          error_burn = last "pet_slo_error_burn";
          error_burn_max = peak "pet_slo_error_burn";
          latency_burn = last "pet_slo_latency_burn";
          latency_burn_max = peak "pet_slo_latency_burn";
          breached = peak "pet_slo_breached" > 0.;
        }
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
      {
        dir;
        records = !records;
        kinds =
          List.map
            (fun k -> (k, Option.value ~default:0 (Hashtbl.find_opt kinds k)))
            [ "snap"; "log"; "trace"; "meta" ];
        unparsed = !bad;
        t_min = (if !records = 0 then 0. else !tmin);
        t_max = (if !records = 0 then 0. else !tmax);
        damage;
        wal = !wal;
        lifecycle = List.rev !metas;
        methods = latency "pet_server_request_seconds" "method";
        tenants = latency "pet_tenant_request_seconds" "tenant";
        slos = List.map slo slo_keys;
      })
    (Flight_log.fold dir ~init:() (fun () r -> add r))

let to_json r =
  let fnum v = if Float.is_integer v then Json.Int (int_of_float v) else Json.Float v in
  let latency name l =
    Json.Obj
      [
        (name, Json.String l.label);
        ("requests", Json.Int l.requests);
        ("p99_s", Json.Float l.p99);
      ]
  in
  let slo s =
    Json.Obj
      [
        ("key", Json.String s.key);
        ("window_requests", Json.Int s.window_requests);
        ("p99_s", Json.Float s.p99_s);
        ("error_ratio", Json.Float s.error_ratio);
        ("error_burn", Json.Float s.error_burn);
        ("error_burn_max", Json.Float s.error_burn_max);
        ("latency_burn", Json.Float s.latency_burn);
        ("latency_burn_max", Json.Float s.latency_burn_max);
        ("breached", Json.Bool s.breached);
      ]
  in
  Json.Obj
    [
      ("dir", Json.String r.dir);
      ("records", Json.Int r.records);
      ("kinds", Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) r.kinds));
      ("unparsed", Json.Int r.unparsed);
      ("t_min", fnum r.t_min);
      ("t_max", fnum r.t_max);
      ( "damage",
        Json.List
          (List.map
             (fun (d : Segment.damage) ->
               Json.Obj
                 [
                   ("file", Json.String d.file);
                   ("offset", Json.Int d.offset);
                   ("reason", Json.String d.reason);
                 ])
             r.damage) );
      ( "wal",
        match r.wal with
        | None -> Json.Null
        | Some (file, off, t) ->
          Json.Obj [ ("file", Json.String file); ("off", Json.Int off); ("t", fnum t) ] );
      ( "lifecycle",
        Json.List
          (List.map
             (fun (e, t) -> Json.Obj [ ("event", Json.String e); ("t", fnum t) ])
             r.lifecycle)
      );
      ("methods", Json.List (List.map (latency "method") r.methods));
      ("tenants", Json.List (List.map (latency "tenant") r.tenants));
      ("slo", Json.List (List.map slo r.slos));
    ]

let pp_report ppf r =
  let kind k = Option.value ~default:0 (List.assoc_opt k r.kinds) in
  Fmt.pf ppf "flight journal %s: %d records (%d snap, %d log, %d trace, %d meta)@."
    r.dir r.records (kind "snap") (kind "log") (kind "trace") (kind "meta");
  if r.records > 0 then Fmt.pf ppf "  time range t=%g..%g@." r.t_min r.t_max;
  if r.unparsed > 0 then Fmt.pf ppf "  unparsed records: %d@." r.unparsed;
  List.iter
    (fun (d : Segment.damage) ->
      Fmt.pf ppf "  damage %s:%d %s@." d.file d.offset d.reason)
    r.damage;
  List.iter (fun (e, t) -> Fmt.pf ppf "  lifecycle %s at t=%g@." e t) r.lifecycle;
  Option.iter
    (fun (file, off, t) ->
      Fmt.pf ppf "  wal frontier %s:%d at t=%g (byte offsets as in pet audit --json)@."
        file off t)
    r.wal;
  List.iter
    (fun (title, rows) ->
      if rows <> [] then begin
        Fmt.pf ppf "%s@." title;
        List.iter
          (fun l ->
            Fmt.pf ppf "  %-16s %8d requests  p99 <= %gs@." l.label l.requests l.p99)
          rows
      end)
    [
      ("per-method latency (reconstructed):", r.methods);
      ("per-tenant latency (reconstructed):", r.tenants);
    ];
  if r.slos <> [] then Fmt.pf ppf "slo (last window seen / peak burn):@.";
  List.iter
    (fun s ->
      Fmt.pf ppf
        "  %-24s %6d req  p99=%gs err=%.4f  burn err=%.2f (peak %.2f) lat=%.2f \
         (peak %.2f)%s@."
        s.key s.window_requests s.p99_s s.error_ratio s.error_burn
        s.error_burn_max s.latency_burn s.latency_burn_max
        (if s.breached then "  BREACHED" else ""))
    r.slos

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

(* One histogram's count, its count in the previous frame, and its p99:
   over the interval from [prev] when it saw new values, else over the
   whole frame. *)
let hist_p99 ?prev frame name (n, buckets) =
  let prev_hists = match prev with Some p -> p.hists | None -> [] in
  let interval = match prev with Some p -> frame.t -. p.t > 0. | None -> false in
  let pn, pbuckets = Option.value ~default:(0., []) (List.assoc_opt name prev_hists) in
  let delta =
    List.map
      (fun (b, c) -> (b, c - Option.value ~default:0 (List.assoc_opt b pbuckets)))
      buckets
  in
  let dn = int_of_float (n -. pn) in
  (n, pn, if interval && dn > 0 then p99 delta dn else p99 buckets (int_of_float n))

let method_latency ?prev frame =
  series "pet_server_request_seconds" "method" frame.hists
  |> List.map (fun (m, name, hist) ->
         let n, pn, p99 = hist_p99 ?prev frame name hist in
         (m, n, pn, p99))

(* Each frame is a full snapshot (the server starts a fresh delta
   encoder per frame), so rates are the difference of consecutive
   frames over their timestamps. *)
let pp_frame ~addr ~frame_no ?prev ppf frame =
  let dt =
    match prev with Some p when frame.t -. p.t > 0. -> Some (frame.t -. p.t) | _ -> None
  in
  let rate cur_v prev_v =
    match dt with
    | Some dt -> Printf.sprintf "%8.1f/s" ((cur_v -. prev_v) /. dt)
    | None -> "       --"
  in
  let counter = sample frame.counters and gauge = sample frame.gauges in
  let prev_counter = sample (match prev with Some p -> p.counters | None -> []) in
  let total = counter "pet_server_requests_total" in
  let errors = counter "pet_server_errors_total" in
  Fmt.pf ppf "pet top %s — frame %d, t=%g@." addr frame_no frame.t;
  Fmt.pf ppf "requests %8.0f %s   errors %8.0f %s@." total
    (rate total (prev_counter "pet_server_requests_total"))
    errors
    (rate errors (prev_counter "pet_server_errors_total"));
  Fmt.pf ppf "sessions active %g   commit queue %g   tenants %g   uptime %gs@."
    (gauge "pet_sessions_active")
    (gauge "pet_net_commit_queue_depth")
    (gauge "pet_tenants")
    (gauge "pet_process_uptime_seconds");
  (* Per-method rows from the request-latency histograms: the
     frame-to-frame count delta is the rate, the bucket deltas give the
     interval p99 (full-frame p99 on the first frame). *)
  let methods = method_latency ?prev frame in
  if methods <> [] then begin
    Fmt.pf ppf "per-method:@.";
    List.iter
      (fun (m, n, pn, p99) -> Fmt.pf ppf "  %-16s %8.0f req %s  p99 <= %gs@." m n (rate n pn) p99)
      methods
  end;
  (* Commit wait, apart from the service time above: how long rendered
     replies were held for their fsync. *)
  let hold = "pet_net_reply_hold_seconds" in
  Option.iter
    (fun hist ->
      let n, pn, p99 = hist_p99 ?prev frame hold hist in
      Fmt.pf ppf "reply hold %8.0f rep %s  p99 <= %gs@." n (rate n pn) p99)
    (List.assoc_opt hold frame.hists);
  (* Per-tenant and SLO rows ride the same gauge/counter families the
     Prometheus export serves. *)
  let tenants = series "pet_tenant_requests_total" "tenant" frame.counters in
  if tenants <> [] then begin
    Fmt.pf ppf "per-tenant:@.";
    List.iter
      (fun (tn, name, v) -> Fmt.pf ppf "  %-16s %8.0f req %s@." tn v (rate v (prev_counter name)))
      tenants
  end;
  let slos = series "pet_slo_window_requests" "slo" frame.gauges in
  if slos <> [] then begin
    Fmt.pf ppf "slo:@.";
    List.iter
      (fun (key, _, _) ->
        let g family = gauge (Printf.sprintf "%s{slo=\"%s\"}" family key) in
        Fmt.pf ppf "  %-24s %6.0f req  p99=%gs err=%.4f  burn lat=%.2f err=%.2f%s@." key
          (g "pet_slo_window_requests")
          (g "pet_slo_p99_seconds")
          (g "pet_slo_error_ratio")
          (g "pet_slo_latency_burn")
          (g "pet_slo_error_burn")
          (if g "pet_slo_breached" > 0. then "  BREACHED" else ""))
      slos
  end
