(* The three TCP workloads: server set-up, the seeded flows, output
   checks, and one run's phases against fresh [pet serve] processes. *)

type ctx = {
  digest : string;
  pool : string array;  (** browse's valuation pool *)
  scenario : Pet_corpus.Corpus.scenario option;  (** fleet's tenants *)
}

type workload = {
  name : string;
  lo : float;
      (** requests per second: about 0.15 and 0.3 to 0.55 of the
          workload's knee, calibrated once at the default seed and frozen
          here *)
  hi : float;
  steps : float;
  expected : string list;  (** error codes that end a flow normally *)
  flow : seed:int -> ctx -> int -> Flows.flow;
}

let journey =
  {
    name = "journey";
    lo = 1600.;
    hi = 3000.;
    steps = Flows.journey_steps;
    expected = [];
    flow = (fun ~seed ctx i -> Flows.journey ~seed ~digest:ctx.digest i);
  }

let browse =
  {
    name = "browse";
    lo = 3800.;
    hi = 9000.;
    steps = Flows.browse_steps;
    expected = [];
    flow = (fun ~seed ctx i -> Flows.browse ~seed ~digest:ctx.digest ~pool:ctx.pool i);
  }

let fleet =
  {
    name = "fleet";
    lo = 42.;
    hi = 140.;
    steps = Flows.fleet_steps;
    expected = [ "ineligible" ];
    flow = (fun ~seed ctx i -> Flows.fleet ~seed ~scenario:(Option.get ctx.scenario) i);
  }

exception Failed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Failed m)) fmt

let expect_ok what line =
  match Wire.error_code line with
  | None -> ()
  | Some code -> fail "%s: unexpected error %s" what code

let req meth params = Wire.request ~id:(Client.fresh_id ()) meth params

(* What a workload publishes before its first respondent, as request
   lines — every form, then a wait for each tenant's build — and the
   context its flows are built from, given the first publication's
   reply. The lines go over TCP at set-up and into an in-process service
   for the traced run's replay. *)
type publication = { publish : string list; settle : string list; ctx : string -> ctx }

let publication ~seed w =
  match w.name with
  | "fleet" ->
    let scenario = Lazy.force Flows.fleet_scenario in
    let forms = Array.to_list scenario.forms in
    {
      publish = List.map (fun f -> req "publish_rules" (Flows.publish f)) forms;
      settle =
        List.map (fun (f : Pet_corpus.Corpus.form) -> req "tenant" (Flows.wait_tenant f.name)) forms;
      ctx = (fun _ -> { digest = ""; pool = [||]; scenario = Some scenario });
    }
  | _ ->
    let text = Pet_rules.Spec.to_string (Lazy.force Flows.hcov) in
    {
      publish = [ req "publish_rules" (Printf.sprintf {|"rules":%s|} (Wire.quote text)) ];
      settle = [];
      ctx =
        (fun reply ->
          {
            digest = Option.get (Wire.string_field reply "digest");
            pool = Flows.browse_pool ~seed;
            scenario = None;
          });
    }

(* Publish through [call] (lines → replies, in order) and check every
   reply. *)
let publish ~seed w call =
  let p = publication ~seed w in
  let replies = call p.publish in
  List.iter (expect_ok "publish_rules") replies;
  List.iter
    (fun line ->
      expect_ok "tenant" line;
      if Wire.string_field line "state" = Some "failed" then fail "a tenant build failed")
    (call p.settle);
  p.ctx (List.hd replies)

(* A running server with its two client connections. *)
type live = { server : Spawn.t; conns : Client.conn array; ctx : ctx; setup_s : float }

(* Spawn → port file → publish (fleet: every tenant settled) → first ok
   reply to a respondent's first request: the time until a user can be
   served. [dir] is recovered if it exists. *)
let start ~pet ~seed ~dir w =
  let t0 = Sched.now () in
  let server = match Spawn.start ~pet dir with Ok s -> s | Error m -> fail "%s" m in
  let conns = Array.init 2 (fun _ -> Client.connect server.port) in
  let ctx = publish ~seed w (Client.call_all conns.(0)) in
  let first =
    match ctx.scenario with
    | Some s -> Printf.sprintf {|"tenant":%s|} (Wire.quote s.forms.(0).name)
    | None -> Printf.sprintf {|"digest":%s|} (Wire.quote ctx.digest)
  in
  expect_ok "new_session" (Client.call conns.(0) (req "new_session" first));
  { server; conns; ctx; setup_s = Sched.now () -. t0 }

let stop live =
  Array.iter Client.close live.conns;
  Spawn.stop live.server

(* Offer [rate] for [duration] seconds after a [warmup]. *)
let phase ?(traced = false) ?side ~seed live w ~rate ~warmup ~duration =
  Client.run live.conns
    {
      Client.rate;
      steps = w.steps;
      warmup;
      duration;
      flow = w.flow ~seed live.ctx;
      side;
      expected = w.expected;
      traced;
    }

(* --- Output checks ------------------------------------------------------------ *)

(* The bytes after ["ok":] or ["error":], up to the closing brace. *)
let payload line =
  match Wire.ok_payload line with
  | Some p -> p
  | None -> (
    match Wire.find line {|"error":|} 0 with
    | Some i -> String.sub line i (String.length line - i)
    | None -> line)

(* For 16 fixed (form, valuation) pairs, the report served over TCP must
   equal, byte for byte, what [Service.handle_line] answers in this
   process for the same rules and valuation. *)
let check_reports ~seed live w =
  let pairs =
    match live.ctx.scenario with
    | None ->
      let text = Pet_rules.Spec.to_string (Lazy.force Flows.hcov) in
      let e = Lazy.force Flows.hcov_eligible in
      List.init 16 (fun k ->
          ( text,
            Printf.sprintf {|"digest":%s|} (Wire.quote live.ctx.digest),
            e.(k * Array.length e / 16) ))
    | Some s ->
      List.init 16 (fun k ->
          let f = s.forms.(k) in
          ( f.text,
            Printf.sprintf {|"tenant":%s|} (Wire.quote f.name),
            Pet_corpus.Corpus.valuation ~seed f (-1 - k) ))
  in
  let local = Pet_server.Service.create ~now:Unix.gettimeofday () in
  let c = live.conns.(0) in
  List.iter
    (fun (text, opener, v) ->
      let over_tcp =
        let reply = Client.call c (req "new_session" opener) in
        expect_ok "new_session" reply;
        let session = Option.get (Wire.string_field reply "session") in
        payload
          (Client.call c
             (req "get_report"
                (Printf.sprintf {|"session":%s,"valuation":%s|} (Wire.quote session)
                   (Wire.quote v))))
      in
      let in_process =
        let h line = Pet_server.Service.handle_line local line in
        let digest =
          Option.get (Wire.string_field (h (req "publish_rules" (Printf.sprintf {|"rules":%s|} (Wire.quote text)))) "digest")
        in
        let session =
          Option.get
            (Wire.string_field
               (h (req "new_session" (Printf.sprintf {|"digest":%s|} (Wire.quote digest))))
               "session")
        in
        payload
          (h
             (req "get_report"
                (Printf.sprintf {|"session":%s,"valuation":%s|} (Wire.quote session) (Wire.quote v))))
      in
      if over_tcp <> in_process then
        fail "%s: report for %s differs over TCP:\n  tcp: %s\n  in-process: %s" w.name v over_tcp
          in_process)
    pairs;
  Pet_server.Service.shutdown local

(* Submissions a phase saw acknowledged: each archived one grant. *)
let acked_grants (p : Phase.t) =
  Array.fold_left
    (fun n (r : Phase.record) ->
      if r.meth = "submit_form" && Phase.answered r && r.code = None then n + 1 else n)
    0 p.records

(* The grants a data directory holds: per ledger every id from 0 up,
   in some order ({!Grants.out_of_order}), and at least the [acked] the
   run saw acknowledged. Returns the number logged after a larger id. *)
let grant_order ~dir ~acked =
  let events =
    match Pet_store.Store.read dir with Ok r -> r.events | Error m -> fail "read %s: %s" dir m
  in
  let ledgers = Hashtbl.create 8 in
  List.iter
    (function
      | Pet_server.Persist.Grant { digest; tenant; grant_id; _ } ->
        let key = Pet_server.Service.ledger_key ~digest ~tenant in
        Hashtbl.replace ledgers key (grant_id :: Option.value ~default:[] (Hashtbl.find_opt ledgers key))
      | _ -> ())
    events;
  let total = Hashtbl.fold (fun _ ids n -> n + List.length ids) ledgers 0 in
  if total < acked then fail "%s: %d grants acknowledged, %d in the WAL" dir acked total;
  Hashtbl.fold
    (fun key ids n ->
      match Grants.out_of_order (List.rev ids) with
      | Ok k -> n + k
      | Error m -> fail "%s: ledger %s: %s" dir key m)
    ledgers 0

(* [pet audit --json] on a data directory; returns its wall time and the
   number of grants logged out of id order.

   Every property must pass, with one exception. With two domains, two
   shards can take grant ids from the shared ledger and reach the WAL
   writer in the opposite order; the audit's replay property flags such
   grants "out of sequence", and recovery rejects the grants that
   follow. That is a defect of the server, not of this run, so those
   violations are tolerated — but only when no grant id is missing from
   the WAL and no acknowledged grant is lost ({!grant_order}), since a
   lost grant draws the same message. Any other violation fails the
   run. *)
let audit ~pet ~dir ~acked =
  let t0 = Sched.now () in
  let out = Spawn.run_capture ~out:(dir ^ ".audit") pet [ "audit"; "--json"; dir ] in
  let dt = Sched.now () -. t0 in
  let module J = Pet_pet.Json in
  let props =
    match Option.bind (Result.to_option (J.parse out)) (J.member "properties") with
    | Some (J.List l) -> l
    | _ -> fail "pet audit %s: unreadable report:\n%s" dir out
  in
  List.iter
    (fun p ->
      let name = Option.bind (J.member "name" p) J.string_opt in
      let details =
        match J.member "violations" p with
        | Some (J.List vs) ->
          List.map (fun v -> Option.value ~default:"" (Option.bind (J.member "detail" v) J.string_opt)) vs
        | _ -> []
      in
      List.iter
        (fun d ->
          if not (name = Some "replay" && Wire.find d "out of sequence" 0 <> None) then
            fail "pet audit %s: %s violation: %s" dir (Option.value ~default:"?" name) d)
        details)
    props;
  (dt, grant_order ~dir ~acked)

(* Restart on a kept data directory → first ok [stats] reply. *)
let recovery ~pet ~dir =
  let t0 = Sched.now () in
  let server = match Spawn.start ~pet dir with Ok s -> s | Error m -> fail "%s" m in
  let c = Client.connect server.port in
  let reply = Client.call c (req "stats" "") in
  let dt = Sched.now () -. t0 in
  Client.close c;
  Spawn.stop server;
  expect_ok "stats" reply;
  dt
