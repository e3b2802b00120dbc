module Json = Pet_pet.Json
module Workflow = Pet_pet.Workflow
module Partial = Pet_valuation.Partial
module Spec = Pet_rules.Spec
module Engine = Pet_rules.Engine
module Exposure = Pet_rules.Exposure
module Algorithm1 = Pet_minimize.Algorithm1
module Persist = Pet_server.Persist
module Service = Pet_server.Service
module Segment = Pet_store.Segment
module Store = Pet_store.Store

type violation = { file : string; offset : int; detail : string }

type property = {
  name : string;
  checked : int;
  violations : violation list;
}

type report = {
  dir : string;
  files : int;
  records : int;
  note : string option;
  properties : property list;
}

(* One property under accumulation: violations are consed (newest
   first) and reversed into log order when the report is sealed. *)
type prop = {
  pname : string;
  mutable pchecked : int;
  mutable faults : violation list;
}

let flag prop ~file ~offset detail =
  prop.faults <- { file; offset; detail } :: prop.faults

(* The walk's working state. Engines are compiled lazily, at most once
   per digest, from the rule texts the log itself retains ([Rules] and
   [Tenant_published] events) — the audit trusts the log's rule text,
   not the service's memory. *)
type ctx = {
  mode : Algorithm1.mode;
  backend : Engine.backend;
  texts : (string, string) Hashtbl.t;  (* digest -> canonical text *)
  providers : (string, (Workflow.t, string) result) Hashtbl.t;
  mutable clock : float;  (* largest timestamp replayed so far *)
  sessions : (string, string) Hashtbl.t;  (* live session -> digest *)
  revoked : (string, unit) Hashtbl.t;
  horizons : (string, float) Hashtbl.t;  (* session -> latest horizon *)
  grant_ids : (string * int, unit) Hashtbl.t;  (* (ledger key, id) seen *)
  top_id : (string, int) Hashtbl.t;  (* ledger key -> highest grant id *)
  integrity : prop;
  r2 : prop;
  minimality : prop;
  revocation : prop;
  expiry : prop;
  replay : prop;
}

let create_ctx ~mode ~backend =
  let prop pname = { pname; pchecked = 0; faults = [] } in
  {
    mode;
    backend;
    texts = Hashtbl.create 8;
    providers = Hashtbl.create 8;
    clock = neg_infinity;
    sessions = Hashtbl.create 64;
    revoked = Hashtbl.create 16;
    horizons = Hashtbl.create 16;
    grant_ids = Hashtbl.create 64;
    top_id = Hashtbl.create 8;
    integrity = prop "integrity";
    r2 = prop "r2";
    minimality = prop "minimality";
    revocation = prop "revocation";
    expiry = prop "expiry";
    replay = prop "replay";
  }

let provider_of ctx digest =
  match Hashtbl.find_opt ctx.providers digest with
  | Some r -> r
  | None ->
    let r =
      match Hashtbl.find_opt ctx.texts digest with
      | None ->
        Error
          (Printf.sprintf
             "no rule set with digest %s appears earlier in the log" digest)
      | Some text -> (
        match Spec.parse text with
        | Error m -> Error ("retained rule text does not compile: " ^ m)
        | Ok exposure -> (
          match Workflow.provider ~backend:ctx.backend exposure with
          | provider -> Ok provider
          | exception Invalid_argument m -> Error m))
    in
    Hashtbl.replace ctx.providers digest r;
    r

(* The grant-side recheck, shared by archived grants and chosen forms:
   the persisted form must still prove exactly the recorded benefits
   and admit no smaller proof. *)
let check_form ctx ~file ~offset ~what ~digest ~form ~benefits =
  ctx.minimality.pchecked <- ctx.minimality.pchecked + 1;
  match provider_of ctx digest with
  | Error m -> flag ctx.minimality ~file ~offset (what ^ ": " ^ m)
  | Ok provider -> (
    let engine = Workflow.engine provider in
    match Partial.of_string (Exposure.xp (Engine.exposure engine)) form with
    | exception Invalid_argument m ->
      flag ctx.minimality ~file ~offset
        (Printf.sprintf "%s: form %S does not parse: %s" what form m)
    | parsed ->
      if not (Workflow.audit provider { Workflow.form = parsed; benefits })
      then
        flag ctx.minimality ~file ~offset
          (Printf.sprintf
             "%s: form %S no longer proves exactly the recorded benefits"
             what form)
      else if
        not (Algorithm1.is_minimal ~mode:ctx.mode engine parsed ~benefits)
      then
        flag ctx.minimality ~file ~offset
          (Printf.sprintf "%s: form %S is not minimal for its benefits" what
             form))

(* A record that (re)establishes data for a session: flagged when the
   session was revoked earlier in the log, or when the log's clock has
   passed its armed horizon. Both checks are establishment-time — the
   pre-revocation bytes an append-only log retains are legitimate. *)
let check_established ctx ~file ~offset ~what sid =
  ctx.revocation.pchecked <- ctx.revocation.pchecked + 1;
  if Hashtbl.mem ctx.revoked sid then
    flag ctx.revocation ~file ~offset
      (Printf.sprintf "%s re-establishes session %S after its revocation"
         what sid);
  ctx.expiry.pchecked <- ctx.expiry.pchecked + 1;
  match Hashtbl.find_opt ctx.horizons sid with
  | Some horizon when ctx.clock >= horizon ->
    flag ctx.expiry ~file ~offset
      (Printf.sprintf
         "%s establishes session %S past its expiry horizon (%.3f >= %.3f)"
         what sid ctx.clock horizon)
  | _ -> ()

(* A session transition must follow a [session_created] that is still
   live — a chosen or submitted record for a session the log never
   created (or already purged) cannot come from a faithful replay. *)
let check_transition ctx ~file ~offset ~what sid =
  ctx.replay.pchecked <- ctx.replay.pchecked + 1;
  if not (Hashtbl.mem ctx.sessions sid) then
    flag ctx.replay ~file ~offset
      (Printf.sprintf "%s for session %S which no earlier record created"
         what sid)

let at_of = function
  | Persist.Rules _ | Persist.Grant _ -> None
  | Persist.Tenant_published { at; _ }
  | Persist.Session_created { at; _ }
  | Persist.Session_chosen { at; _ }
  | Persist.Session_submitted { at; _ }
  | Persist.Session_revoked { at; _ }
  | Persist.Session_expiry { at; _ } -> Some at

let check_event ctx ~file ~offset event =
  (* The clock advances from the record's own timestamp {e before} its
     checks run: a record stamped at or past its session's horizon is
     already too late. *)
  (match at_of event with
  | Some at when at > ctx.clock -> ctx.clock <- at
  | _ -> ());
  match event with
  | Persist.Rules { digest; text } -> Hashtbl.replace ctx.texts digest text
  | Persist.Tenant_published { digest; text; _ } ->
    Hashtbl.replace ctx.texts digest text
  | Persist.Session_created { id; digest; _ } ->
    check_established ctx ~file ~offset ~what:"session_created" id;
    ctx.replay.pchecked <- ctx.replay.pchecked + 1;
    if Hashtbl.mem ctx.sessions id then
      flag ctx.replay ~file ~offset
        (Printf.sprintf "session %S created twice" id);
    Hashtbl.replace ctx.sessions id digest
  | Persist.Session_chosen { id; mas; benefits; _ } ->
    check_established ctx ~file ~offset ~what:"session_chosen" id;
    check_transition ctx ~file ~offset ~what:"session_chosen" id;
    (match Hashtbl.find_opt ctx.sessions id with
    | Some digest ->
      check_form ctx ~file ~offset ~what:"chosen form" ~digest ~form:mas
        ~benefits
    | None -> ())
  | Persist.Session_submitted { id; _ } ->
    check_established ctx ~file ~offset ~what:"session_submitted" id;
    check_transition ctx ~file ~offset ~what:"session_submitted" id
  | Persist.Session_revoked { id; _ } ->
    (* Replay purges the session with the revocation; later transitions
       are both replay and revocation violations. An orphan revocation
       is legitimate: consent outlives the session's TTL sweep, and
       snapshots keep lifecycle events after dropping the session. *)
    Hashtbl.replace ctx.revoked id ();
    Hashtbl.remove ctx.sessions id
  | Persist.Session_expiry { id; horizon; _ } ->
    (* The latest horizon wins, as in the service. *)
    Hashtbl.replace ctx.horizons id horizon
  | Persist.Grant { digest; grant_id; form; benefits; session; tenant; revoked }
    ->
    (* Shards draw ids from one ledger but may reach the log in
       either order, so grants need not arrive in id order; an id may
       only appear once. Ids never seen are noted at the end. *)
    let key = Service.ledger_key ~digest ~tenant in
    ctx.replay.pchecked <- ctx.replay.pchecked + 1;
    if Hashtbl.mem ctx.grant_ids (key, grant_id) then
      flag ctx.replay ~file ~offset
        (Printf.sprintf "grant %d appears twice in ledger %s" grant_id key)
    else Hashtbl.add ctx.grant_ids (key, grant_id) ();
    (match Hashtbl.find_opt ctx.top_id key with
    | Some top when top >= grant_id -> ()
    | _ -> Hashtbl.replace ctx.top_id key grant_id);
    if not revoked then begin
      (match session with
      | Some sid ->
        check_established ctx ~file ~offset
          ~what:(Printf.sprintf "grant %d" grant_id)
          sid
      | None -> ());
      check_form ctx ~file ~offset
        ~what:(Printf.sprintf "grant %d" grant_id)
        ~digest ~form ~benefits
    end

let check_record ctx ~file ~offset payload =
  ctx.integrity.pchecked <- ctx.integrity.pchecked + 1;
  match Json.parse payload with
  | Error m ->
    flag ctx.integrity ~file ~offset ("payload is not JSON: " ^ m)
  | Ok json -> (
    ctx.r2.pchecked <- ctx.r2.pchecked + 1;
    if Persist.carries_valuation json then
      flag ctx.r2 ~file ~offset
        "record carries a \"valuation\" field — a raw form reached disk";
    match Persist.of_json json with
    | Error m ->
      flag ctx.integrity ~file ~offset ("unrecognized event: " ^ m)
    | Ok event -> check_event ctx ~file ~offset event)

let seal prop =
  {
    name = prop.pname;
    checked = prop.pchecked;
    violations = List.rev prop.faults;
  }

(* Grant ids below a ledger's highest that no record carries: a crash
   cut those grants in flight (never acknowledged), so like a torn tail
   they are a note, not a violation. *)
let missing_grants ctx =
  Hashtbl.fold (fun key top acc -> (key, top) :: acc) ctx.top_id []
  |> List.sort compare
  |> List.filter_map (fun (key, top) ->
         match
           List.filter
             (fun id -> not (Hashtbl.mem ctx.grant_ids (key, id)))
             (List.init (top + 1) Fun.id)
         with
         | [] -> None
         | ids ->
           Some
             (Printf.sprintf
                "grant id%s %s of ledger %s never reached the log: in flight \
                 at a crash"
                (if List.length ids = 1 then "" else "s")
                (String.concat ", " (List.map string_of_int ids))
                key))

let run ?(mode = Algorithm1.Chain) ?(backend = Engine.Bdd) dir =
  let ctx = create_ctx ~mode ~backend in
  let files = ref 0 and records = ref 0 and note = ref None in
  match
    Store.walk_replay dir
      ~unreadable:(fun file m ->
        incr files;
        flag ctx.integrity ~file ~offset:0 ("unreadable: " ^ m))
      (fun file offset payload ->
        incr records;
        check_record ctx ~file ~offset payload)
      (fun file _ verdict ->
        incr files;
        match verdict with
        | Segment.Clean -> ()
        | Segment.Crash_tail d -> note := Some (Segment.tail_note d)
        | Segment.Damaged d ->
          ctx.integrity.pchecked <- ctx.integrity.pchecked + 1;
          flag ctx.integrity ~file ~offset:d.offset d.reason)
  with
  | Error m -> Error m
  | Ok () ->
    let notes = Option.to_list !note @ missing_grants ctx in
    Ok
      {
        dir;
        files = !files;
        records = !records;
        note = (if notes = [] then None else Some (String.concat "; " notes));
        properties =
          List.map seal
            [
              ctx.integrity;
              ctx.r2;
              ctx.minimality;
              ctx.revocation;
              ctx.expiry;
              ctx.replay;
            ];
      }

let pass report =
  List.for_all (fun p -> p.violations = []) report.properties

let to_json report =
  let violation v =
    Json.Obj
      [
        ("file", Json.String v.file);
        ("offset", Json.Int v.offset);
        ("detail", Json.String v.detail);
      ]
  in
  let property p =
    Json.Obj
      [
        ("name", Json.String p.name);
        ("checked", Json.Int p.checked);
        ("violations", Json.List (List.map violation p.violations));
      ]
  in
  Json.Obj
    ([
       ("dir", Json.String report.dir);
       ("files", Json.Int report.files);
       ("records", Json.Int report.records);
       ("pass", Json.Bool (pass report));
     ]
    @ (match report.note with
      | Some note -> [ ("note", Json.String note) ]
      | None -> [])
    @ [ ("properties", Json.List (List.map property report.properties)) ])

let pp ppf report =
  Format.fprintf ppf "audit %s: %d file%s, %d record%s@." report.dir
    report.files
    (if report.files = 1 then "" else "s")
    report.records
    (if report.records = 1 then "" else "s");
  (match report.note with
  | Some note -> Format.fprintf ppf "note: %s@." note
  | None -> ());
  List.iter
    (fun p ->
      (match p.violations with
      | [] ->
        Format.fprintf ppf "  %-11s PASS (%d checked)@." p.name p.checked
      | vs ->
        Format.fprintf ppf "  %-11s FAIL (%d checked, %d violation%s)@."
          p.name p.checked (List.length vs)
          (if List.length vs = 1 then "" else "s");
        List.iter
          (fun v ->
            Format.fprintf ppf "    %s @@ byte %d: %s@." v.file v.offset
              v.detail)
          vs))
    report.properties;
  Format.fprintf ppf "result: %s@." (if pass report then "PASS" else "FAIL")
