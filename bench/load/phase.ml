(* One measured phase: what the generator recorded and the summaries
   every workload reports from it. The TCP client and the in-process
   substrate loop both fill this shape. *)

(* A reported number: name, value, unit, and the sample count behind a
   percentile. *)
type metric = { name : string; value : float; unit : string; samples : int option }

let metric ?samples name unit value = { name; value; unit; samples }

exception Missing of string

(* Quantile [q] of sorted samples as a metric, scaled; [None] when the
   samples do not support it ({!Stats.percentile}). *)
let percentile ?(scale = 1.) ~unit name sorted q =
  Option.map
    (fun v -> metric ~samples:(Array.length sorted) name unit (scale *. v))
    (Stats.percentile sorted q)

(* The same, for a number the run cannot report without. *)
let percentile_exn ?scale ~unit name sorted q =
  match percentile ?scale ~unit name sorted q with
  | Some m -> m
  | None ->
    raise
      (Missing
         (Printf.sprintf "%s: %d samples do not support p%g" name (Array.length sorted) (100. *. q)))

type record = {
  flow : int;
  meth : string;
  conn : int;
  due : float;
  sent : float;
  mutable reply : float;  (** [nan] until answered *)
  mutable code : string option;
      (** an error code, ["timeout"] or ["disconnected"]; [None] on ok *)
}

type flow = {
  kind : string;  (** ["respondent"] or, in fleet, ["update"] *)
  first_due : float;
  last_reply : float;
  steps : int;
}
(** A flow that ran to its end without an unexpected error. *)

type t = {
  records : record array;  (** in send order *)
  flows : flow array;
  m0 : float;  (** start of the measured window (after warm-up) *)
  m1 : float;  (** end of the measured window *)
  outstanding_mid : int;
  outstanding_end : int;
  outstanding_max : int;
  sent_second_half : int;
  late : float array;  (** generator lateness per request, seconds *)
}

(* --- Recording a phase ------------------------------------------------------------ *)

(* What both generator loops keep while a phase runs: every send, the
   flows that finished, the lateness of sends due in the window, and the
   backlog (requests due and not yet answered) at its largest, at the
   window's middle and at its end. *)
type recorder = {
  t0 : float;  (** the first arrival *)
  w0 : float;  (** the window, after the warm-up *)
  w1 : float;
  mutable sends : record list;  (** newest first *)
  mutable finished : flow list;
  mutable lateness : float list;
  mutable backlog_max : int;
  mutable backlog_mid : int;  (** -1 until the window's middle *)
  mutable backlog_end : int;  (** -1 until the window's end *)
  mutable sends_second_half : int;
}

let recorder ~warmup ~duration =
  let t0 = Sched.now () +. 0.002 in
  {
    t0;
    w0 = t0 +. warmup;
    w1 = t0 +. warmup +. duration;
    sends = [];
    finished = [];
    lateness = [];
    backlog_max = 0;
    backlog_mid = -1;
    backlog_end = -1;
    sends_second_half = 0;
  }

let window_mid rc = (rc.w0 +. rc.w1) /. 2.

(* A request went out. Its lateness runs from its due time, or from
   [free_since] when the sender was busy until after it fell due. *)
let sent ?(free_since = neg_infinity) rc r =
  rc.sends <- r :: rc.sends;
  if r.due >= rc.w0 && r.due < rc.w1 then
    rc.lateness <- Sched.lateness ~due:(Float.max r.due free_since) ~sent:r.sent :: rc.lateness;
  if r.sent >= window_mid rc && r.sent < rc.w1 then rc.sends_second_half <- rc.sends_second_half + 1

(* [n] requests were outstanding at [t]. *)
let backlog rc ~t n =
  if n > rc.backlog_max then rc.backlog_max <- n;
  if t >= window_mid rc && rc.backlog_mid < 0 then rc.backlog_mid <- n;
  if t >= rc.w1 && rc.backlog_end < 0 then rc.backlog_end <- n

let finished rc f = rc.finished <- f :: rc.finished

let close rc =
  {
    records = Array.of_list (List.rev rc.sends);
    flows = Array.of_list rc.finished;
    m0 = rc.w0;
    m1 = rc.w1;
    outstanding_mid = max 0 rc.backlog_mid;
    outstanding_end = max 0 rc.backlog_end;
    outstanding_max = rc.backlog_max;
    sent_second_half = rc.sends_second_half;
    late = Array.of_list rc.lateness;
  }

(* --- Summaries -------------------------------------------------------------------- *)

let in_window t r = r.due >= t.m0 && r.due < t.m1
let answered r = not (Float.is_nan r.reply)

let ok ~expected r =
  answered r && match r.code with None -> true | Some c -> List.mem c expected

(* Every request due in the window, in milliseconds from its due time; a
   request that failed or was never answered misses any limit, so it
   counts as infinitely late. *)
let latencies_ms ?meth ~expected t =
  Array.to_list t.records
  |> List.filter (fun r ->
         in_window t r && match meth with None -> true | Some m -> r.meth = m)
  |> List.map (fun r -> if ok ~expected r then 1000. *. (r.reply -. r.due) else infinity)
  |> Array.of_list |> Stats.sorted

let flow_waits_ms ?(kind = "respondent") t =
  Array.to_list t.flows
  |> List.filter (fun f -> f.kind = kind && f.first_due >= t.m0 && f.first_due < t.m1)
  |> List.map (fun f ->
         1000. *. Sched.flow_wait ~first_due:f.first_due ~last_reply:f.last_reply ~steps:f.steps)
  |> Array.of_list |> Stats.sorted

let late_ms t = Stats.sorted (Array.map (fun s -> 1000. *. s) t.late)

(* Requests due in the window whose outcome is a failure — an error code
   the workload does not expect, no reply, or a lost connection — counted
   by method and outcome. *)
let failure_kinds ~expected t =
  let h = Hashtbl.create 8 in
  Array.iter
    (fun r ->
      match r.code with
      | Some c when in_window t r && not (List.mem c expected) ->
        let k = r.meth ^ ":" ^ c in
        Hashtbl.replace h k (1 + Option.value ~default:0 (Hashtbl.find_opt h k))
      | _ -> ())
    t.records;
  List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) h [])

let failures ~expected t = List.fold_left (fun n (_, k) -> n + k) 0 (failure_kinds ~expected t)

let attempted t =
  Array.fold_left (fun n r -> if in_window t r then n + 1 else n) 0 t.records

let limit_ms = 100.
let late_limit_ms = 1.

(* The generator kept to its schedule: at most half of its sends were
   more than [late_limit_ms] late. A generator too slow for its rate
   falls behind on most sends; this sandbox also stalls the whole machine
   now and then (an idle sleep loop sees stalls up to ~10 ms, one browse
   run lost ~130 ms at once, and with 10% of CPU time stolen by the host
   over 5% of a fleet run's sends were late), and such a stall delays the
   server as much as the generator and is charged to the requests due
   during it. *)
let late_share = 0.5

let late_ok_samples late =
  let over = Array.fold_left (fun k s -> if 1000. *. s > late_limit_ms then k + 1 else k) 0 late in
  float_of_int over <= late_share *. float_of_int (Array.length late)

let late_ok t = late_ok_samples t.late

(* A knee probe passes when its p99 (failures counting as misses) meets
   the limit, at least 99.5% of its requests were answered within a
   second of its end, the backlog did not grow through the second half,
   and the generator kept to its schedule. "p99 within the limit" is
   decided as "at most 1% of requests over the limit", which needs no
   tail estimate and so holds at any sample size. Returns the first
   condition that failed, if any. *)
let knee_failure ~expected t =
  let lat = latencies_ms ~expected t in
  let n = Array.length lat in
  let over = Array.fold_left (fun k v -> if v > limit_ms then k + 1 else k) 0 lat in
  let answered_in_time =
    Array.fold_left
      (fun k r -> if in_window t r && answered r && r.reply <= t.m1 +. 1. then k + 1 else k)
      0 t.records
  in
  if n = 0 then Some "no requests"
  else if float_of_int over > 0.01 *. float_of_int n then
    Some (Printf.sprintf "%d of %d requests over %.0f ms" over n limit_ms)
  else if float_of_int answered_in_time < 0.995 *. float_of_int n then
    Some (Printf.sprintf "%d of %d answered within 1 s of the end" answered_in_time n)
  else if
    float_of_int t.outstanding_end
    > float_of_int t.outstanding_mid +. (0.01 *. float_of_int t.sent_second_half)
  then Some (Printf.sprintf "backlog grew from %d to %d" t.outstanding_mid t.outstanding_end)
  else if not (late_ok t) then Some "the generator fell behind"
  else None

(* --- Chrome trace ------------------------------------------------------------ *)

(* Write phases as Chrome [trace_event] JSON: one process per phase, one
   thread per connection, one complete event per request from its due
   time to its reply (the send lateness and any error in its args), and
   flow arrows linking the requests of one flow. Open it in
   chrome://tracing or Perfetto. *)
let write_chrome path phases =
  Out_channel.with_open_bin path (fun oc ->
      let first = ref true in
      let event fmt =
        Printf.ksprintf
          (fun s ->
            if not !first then output_string oc ",\n";
            first := false;
            output_string oc s)
          fmt
      in
      output_string oc "{\"traceEvents\":[\n";
      List.iteri
        (fun pid (label, t) ->
          event {|{"name":"process_name","ph":"M","pid":%d,"args":{"name":"%s"}}|} pid label;
          let t0 = if Array.length t.records = 0 then 0. else t.records.(0).due in
          let ts x = 1e6 *. (x -. t0) in
          let by_flow = Hashtbl.create 1024 in
          Array.iter
            (fun r ->
              let dur = if answered r then ts r.reply -. ts r.due else 0. in
              event
                {|{"name":"%s","cat":"request","ph":"X","pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"flow":%d,"late_us":%.3f,"error":"%s"}}|}
                r.meth pid r.conn (ts r.due) dur r.flow
                (ts r.sent -. ts r.due)
                (Option.value ~default:"" r.code);
              Hashtbl.replace by_flow r.flow (r :: Option.value ~default:[] (Hashtbl.find_opt by_flow r.flow)))
            t.records;
          Hashtbl.iter
            (fun flow rs ->
              let rs = List.rev rs in
              let n = List.length rs in
              if n > 1 then
                List.iteri
                  (fun i r ->
                    let ph = if i = 0 then "s" else if i = n - 1 then "f" else "t" in
                    event {|{"name":"flow","cat":"flow","ph":"%s","bp":"e","id":%d,"pid":%d,"tid":%d,"ts":%.3f}|}
                      ph ((pid * 10_000_000) + flow) pid r.conn (ts r.due))
                  rs)
            by_flow)
        phases;
      output_string oc "\n]}\n")
