module Json = Pet_pet.Json
module Spec = Pet_rules.Spec
module Exposure = Pet_rules.Exposure
module Engine = Pet_rules.Engine
module Atlas = Pet_minimize.Atlas
module Payoff = Pet_game.Payoff
module Workflow = Pet_pet.Workflow
module Report = Pet_pet.Report
module Ledger = Pet_pet.Ledger
module Total = Pet_valuation.Total
module Partial = Pet_valuation.Partial
module Universe = Pet_valuation.Universe
module Tenant = Pet_tenant.Tenant

(* One memoized [get_report] answer: the rendered response payload plus
   the option list the session must remember for [choose_option]. Both
   are immutable, so entries are shared freely across sessions. *)
type report_answer = {
  payload : string;  (* [Json.to_string (Report.to_json report)] *)
  options : (Partial.t * string list) list;
}

type compiled = {
  digest : string;
  exposure : Exposure.t;
  provider : Workflow.t;
  memo : report_answer option array Atomic.t;
      (* the rendered-report memo, one slot per atlas player (indexed by
         [Atlas.find_player]): empty until the artifact's first
         [get_report] ({!memo_of}), so a build that is never reported
         holds no per-player array; a slot is filled on its player's
         first report — later respondents with the same form contents
         answer [get_report] with an array read and a few buffer
         appends. A tenant artifact is shared by every shard, so the
         array is published once, atomically, and a slot written by
         two shards at once gets the same bytes from either. *)
}

type t = {
  payoff : Payoff.kind;
  now : unit -> float;
  resolve : string -> string option;
  registry : compiled Registry.t;
  store : Session.store;
  acct : Accounting.t;
      (* this instance's per-request accounting: it is the only writer;
         sibling shards read it through [shared] *)
  durable : bool;
      (* whether a first compilation is announced to the sink as a
         [Rules] event *)
  shared : Shared.t;
      (* rule texts, grant ledgers, consent entries and the accounting
         sets live here: private to a standalone instance, process-wide
         when the serving core passes one to every shard, so a rule set
         published on one shard is servable (and auditable, with one
         grant-id sequence) on every other. Texts outlive engine
         evictions, so an evicted engine is recompiled instead of
         erroring; ledgers outlive them too — the cache bounds compute,
         not the legally retained records. *)
  tenants : compiled Tenant.t;
      (* the multi-tenant form registry: in a sharded deployment every
         shard shares one instance (like [shared]), so a tenant
         published on one shard is servable on every other, its build
         queue is process-wide, and every shard serves the one artifact
         each tenant version built *)
  consents : Consent.t;
      (* [Shared.consents shared]: consent-lifecycle entries (revocations,
         expiry horizons) keyed by session id; identifiers only, kept past
         session TTL so a respondent can revoke long after the session was
         swept *)
  mutable sink : Persist.sink;
  mutable on_expire : string -> unit;
  mutable submitted : int;
}

(* The counters this instance owns, named as gauges; a snapshot sums
   them over every shard registered in [shared]. *)
let shard_counters t =
  let r = Registry.stats t.registry and s = Session.counters t.store in
  [
    ("pet_registry_engines", r.Registry.size);
    ("pet_registry_hits", r.Registry.hits);
    ("pet_registry_misses", r.Registry.misses);
    ("pet_registry_evictions", r.Registry.evictions);
    ("pet_sessions_active", s.Session.active);
    ("pet_sessions_created", s.Session.created);
    ("pet_sessions_expired", s.Session.expired);
    ("pet_grants_submitted", t.submitted);
  ]

let create ?(payoff = Payoff.Blank) ?capacity ?ttl ?owns ?shared ?tenants
    ?(tenant_quota = 0) ?(resolve = fun _ -> None) ?(durable = false) ~now ()
    =
  let tenants =
    match tenants with
    | Some registry -> registry
    | None -> Tenant.create ~quota:tenant_quota ()
  in
  let shared = match shared with Some s -> s | None -> Shared.create () in
  let t =
    {
      payoff;
      now;
      resolve;
      registry = Registry.create ?capacity ();
      store = Session.create_store ?ttl ?owns ();
      acct = Accounting.create ();
      durable;
      shared;
      tenants;
      consents = Shared.consents shared;
      sink = Persist.null;
      on_expire = ignore;
      submitted = 0;
    }
  in
  Shared.register_accounts shared t.acct;
  Shared.register_counters shared (fun () -> shard_counters t);
  (* A swept tenant session frees its quota slot even though nothing
     ever looked it up again. *)
  Session.set_on_expire t.store (fun (session : Session.t) ->
      (match session.Session.tenant with
      | Some name -> Tenant.release t.tenants name
      | None -> ());
      t.on_expire session.Session.id);
  t

let set_sink t sink = t.sink <- sink
let set_on_expire t f = t.on_expire <- f

(* Nothing runs beside a service: its tenant builds run on the domains
   that wait for them. *)
let shutdown (_ : t) = ()

let ( let* ) = Result.bind

(* Ledgers are namespaced per (tenant, digest): two tenants publishing
   byte-identical rules must not share a grant archive (or a grant-id
   sequence — a cross-tenant audit must never see the other tenant's
   records). The digest is hex, so ["@"] cannot collide; tenant-less
   rule sets keep the bare digest and old logs replay unchanged. *)
let ledger_key ~digest ~tenant =
  match tenant with None -> digest | Some name -> digest ^ "@" ^ name

(* --- Rule-set resolution ----------------------------------------------------- *)

let obs_provider_builds =
  Pet_obs.Metrics.counter
    ~help:"Provider builds (engine, atlas, Algorithm 2), process-wide."
    "pet_provider_builds_total"

(* Build the full artifact for an exposure: compile the engine (the
   compiled backend, which keeps BDDs above its tabulation threshold),
   enumerate the atlas, solve the equilibrium. Pure apart from the
   allocation — it touches neither the registry nor the sink, so any
   domain can run it off the request path without any locking. *)
let build_artifact ~payoff exposure digest =
  Pet_obs.Metrics.incr obs_provider_builds;
  let provider = Workflow.provider ~backend:Engine.Compiled ~payoff exposure in
  { digest; exposure; provider; memo = Atomic.make [||] }

(* A tenant version's build, as the tenant registry runs it: the
   artifact, or why it could not be built. *)
let try_build ~payoff exposure digest =
  match build_artifact ~payoff exposure digest with
  | artifact -> Ok artifact
  | exception Invalid_argument m -> Error m
  | exception e -> Error (Printexc.to_string e)

(* The build of a restored tenant version, from its canonical text. *)
let build_text t text =
  match Spec.parse text with
  | Error m -> Error m
  | Ok exposure -> try_build ~payoff:t.payoff exposure (Registry.digest text)

(* The artifact's report memo, allocated on first use. A tenant artifact
   is shared by every shard that resolves it, so two shards may both
   find the memo empty: the first array published wins, and the other
   shard reads that one. *)
let memo_of compiled =
  let memo = Atomic.get compiled.memo in
  if Array.length memo > 0 then memo
  else
    let fresh =
      Array.make (Atlas.player_count (Workflow.atlas compiled.provider)) None
    in
    if Atomic.compare_and_set compiled.memo memo fresh then fresh
    else Atomic.get compiled.memo

(* [remember:false] for tenant texts: the tenant registry retains them
   (and [Tenant_published] persists them), so they are neither copied
   into the shared rule texts nor re-logged as [Rules] events.
   [count:false] when the caller's own lookup already counted this
   rule set's hit or miss, so a compilation counts one miss. *)
let compile ?(remember = true) ?count t text =
  match Spec.parse text with
  | Error m -> Error (Proto.errorf Proto.Invalid_params "rules: %s" m)
  | Ok exposure -> (
    let canonical = Spec.to_string exposure in
    let digest = Registry.digest canonical in
    match Registry.find_or_add ?count t.registry digest (fun () ->
            build_artifact ~payoff:t.payoff exposure digest)
    with
    | compiled, hit ->
      (* Retain the canonical text and, when durable, log each rule set
         the first time it compiles process-wide; replay refills the texts
         before the sink is attached, so recovered rule sets are not
         re-logged. *)
      if remember && Shared.remember_text t.shared ~digest ~text:canonical
         && t.durable
      then
        t.sink.emit (Persist.Rules { digest; text = canonical });
      Ok (compiled, hit)
    | exception Invalid_argument m ->
      Error (Proto.errorf Proto.Invalid_params "rules: %s" m))

(* Resolve a tenant to its active version's artifact. Blocks only while
   the tenant's {e first} version is still building (later versions keep
   serving the previous one). The artifact is the one every shard
   shares; a shard whose engine cache misses it installs it again, so
   its later lookups stay lock-free. *)
let resolve_tenant t name =
  match Tenant.resolve t.tenants ~build:(build_text t) name with
  | `Unknown ->
    Error
      (Proto.errorf Proto.Unknown_tenant
         "unknown tenant %S (publish_rules with a \"tenant\" parameter \
          creates it)"
         name)
  | `Failed (version, m) ->
    Error
      (Proto.errorf Proto.Build_failed "tenant %S version %d failed to build: %s"
         name version m)
  | `Ready resolved -> (
    let digest = resolved.Tenant.res_digest in
    match Registry.find t.registry digest with
    | Some compiled -> Ok (resolved, compiled, true)
    | None ->
      Registry.add t.registry digest resolved.Tenant.res_artifact;
      Ok (resolved, resolved.Tenant.res_artifact, false))

(* Reinstall a rule set the cache no longer holds: a tenant version's
   shared artifact, else a compilation of its retained canonical text —
   a published text from [Shared], or the text of a superseded tenant
   version, which holds no artifact. [None] for a digest never compiled
   here. [count] as for [compile]. *)
let reinstall ?count t digest =
  match Tenant.artifact_of_digest t.tenants ~build:(build_text t) digest with
  | Some compiled ->
    Registry.add t.registry digest compiled;
    Some (Ok (compiled, false))
  | None -> (
    match Shared.find_text t.shared digest with
    | Some text -> Some (compile ?count t text)
    | None ->
      Option.map (compile ~remember:false ?count t)
        (Tenant.text_of_digest t.tenants digest))

(* Counting resolution (publish_rules / new_session / audit): cache hits
   and misses here measure how often a compilation was saved. *)
let resolve_rules t = function
  | Proto.Text text -> compile t text
  | Proto.Source name -> (
    match t.resolve name with
    | Some text -> compile t text
    | None ->
      Error (Proto.errorf Proto.Unknown_source "unknown rule source %S" name))
  | Proto.Tenant name ->
    Result.map (fun (_, compiled, cached) -> (compiled, cached))
      (resolve_tenant t name)
  | Proto.Digest digest -> (
    match Registry.find t.registry digest with
    | Some compiled -> Ok (compiled, true)
    | None -> (
      match reinstall ~count:false t digest with
      | Some result -> result
      | None ->
        Error
          (Proto.errorf Proto.Unknown_rules
             "no rule set with digest %s was published here; publish the \
              rules first"
             digest)))

let not_retained digest =
  Printf.sprintf
    "the text of this session's rules (digest %s) is not retained here; \
     republish the rules and retry"
    digest

(* Non-counting engine re-read for a rule set a session already
   resolved. Its text is retained, so an evicted engine is reinstalled
   or recompiled; no protocol sequence reaches the error. *)
let engine_of t digest =
  match Registry.peek t.registry digest with
  | Some compiled -> Ok compiled
  | None -> (
    match reinstall t digest with
    | Some result -> Result.map fst result
    | None -> Error (Proto.error Proto.Unknown_rules (not_retained digest)))

(* The form universe of a rule set a logged event names, to parse the
   event's valuation: the cached engine's, else its retained text's. An
   event needs no more, so replaying one builds nothing. Only a log
   that lost its [rules] event reaches the error. *)
let universe_of t digest =
  match Registry.peek t.registry digest with
  | Some compiled -> Ok (Exposure.xp compiled.exposure)
  | None -> (
    let text =
      match Shared.find_text t.shared digest with
      | Some text -> Some text
      | None -> Tenant.text_of_digest t.tenants digest
    in
    match Option.map Spec.parse text with
    | Some (Ok exposure) -> Ok (Exposure.xp exposure)
    | Some (Error m) -> Error ("rules: " ^ m)
    | None -> Error (not_retained digest))

let find_session t id ~now =
  match Session.find t.store id ~now with
  | Ok session -> Ok session
  | Error `Unknown ->
    Error (Proto.errorf Proto.Unknown_session "unknown session %S" id)
  | Error `Expired ->
    Error (Proto.errorf Proto.Session_expired "session %S has expired" id)

let require_state (session : Session.t) allowed ~verb =
  if List.mem session.Session.state allowed then Ok ()
  else
    Error
      (Proto.errorf Proto.Bad_state "cannot %s a session in state %S" verb
         (Session.state_name session.Session.state))

(* --- Consent lifecycle: guards and horizons ----------------------------------- *)

(* Tombstone the grant a consent entry points at, if any. Idempotent. *)
let tombstone_grant t (entry : Consent.entry) =
  match entry.Consent.grant_id with
  | Some grant_id when entry.Consent.key <> "" ->
    Shared.with_ledger t.shared entry.Consent.key (fun ledger ->
        ignore (Ledger.revoke ledger grant_id))
  | _ -> ()

(* Decide for a lifecycle request: the session must be live or have a
   consent entry (a submitted session keeps one for the lifetime of the
   archive, so revocation works long after the TTL sweep), and must not
   already be revoked or expired. *)
let lifecycle_guard t ~session:sid ~verb =
  match Consent.find t.consents sid with
  | Some entry when entry.Consent.revoked_at <> None ->
    Error
      (Proto.errorf Proto.Bad_state
         "cannot %s session %S: consent was already revoked" verb sid)
  | Some entry when entry.Consent.expired ->
    Error
      (Proto.errorf Proto.Bad_state
         "cannot %s session %S: its grant already expired" verb sid)
  | None when Session.peek t.store sid = None ->
    Error (Proto.errorf Proto.Unknown_session "unknown session %S" sid)
  | _ -> Ok ()

(* The grant a lifecycle event reaches: its consent entry's link, else —
   for a session recovered from a pre-lifecycle log, whose [Grant]
   events name no session — the live session's own grant. *)
let grant_link t sid =
  match Consent.find t.consents sid with
  | Some { Consent.grant_id = Some grant_id; key; _ } -> Some (key, grant_id)
  | _ -> (
    match Session.peek t.store sid with
    | Some { Session.grant_id = Some grant_id; digest; tenant; _ } ->
      Some (ledger_key ~digest ~tenant, grant_id)
    | _ -> None)

(* Apply horizons that have passed: tombstone each due entry's grant,
   purge its live session if any, and mark it expired. The [Consent]
   store hands back the due entries so the ledger lock is never taken
   under the consent lock. *)
let apply_due t due =
  List.iter
    (fun (entry : Consent.entry) ->
      tombstone_grant t entry;
      (match Session.peek t.store entry.Consent.session with
      | Some s -> Session.purge t.store s
      | None -> ());
      Consent.note_expired t.consents entry)
    due;
  List.length due

let consent_step ?budget t ~now =
  apply_due t (Consent.due ?budget t.consents ~now)

(* The unbudgeted pass, run once after recovery: apply every horizon
   the crash (or downtime) let pass. Reads the clock only when something
   is armed, so recovering a horizon-free log leaves a deterministic
   clock (the transcript tests depend on it). *)
let apply_horizons t =
  if (Consent.counters t.consents).Consent.pending = 0 then 0
  else apply_due t (Consent.all_due t.consents ~now:(t.now ()))

(* A session whose armed horizon has already passed must not establish
   anything more. The periodic sweep may simply not have reached it yet,
   so apply the expiry on the spot and answer as expired — otherwise a
   [choose_option] or [submit_form] slipping in between horizon and
   sweep would persist an establishing record past the horizon, and the
   offline auditor would rightly flag a healthy log. *)
let horizon_guard t ~session:sid ~now =
  match Consent.find t.consents sid with
  | Some ({ Consent.horizon = Some (h, _); expired = false; _ } as entry)
    when h <= now ->
    (* A revoked entry is never armed: its grant is already gone, and
       marking it expired here would be a change no event records. *)
    if entry.Consent.revoked_at = None then ignore (apply_due t [ entry ]);
    Error (Proto.errorf Proto.Session_expired "session %S has expired" sid)
  | Some { Consent.expired = true; _ } ->
    (* Already applied (by the sweep): answer as expired, not unknown —
       the respondent should learn the grant is gone, not that the
       session id was forgotten. *)
    Error (Proto.errorf Proto.Session_expired "session %S has expired" sid)
  | _ -> Ok ()

(* --- The transition function ------------------------------------------------ *)

(* Land one committed event: the only writer of a session's state,
   chosen form and grant, of ledger entries and of consent fields, live
   and on replay. Handlers decide — run the request guards, take the
   reservations that must be atomic across shards — and then apply their
   events here; replay applies the log's. Guards are never re-run: the
   log holds only transitions that committed. [Error] means the event
   contradicts the state (on replay, a damaged or reordered log);
   reported, never raised. *)
let apply_event t event =
  let session_of id =
    match Session.peek t.store id with
    | Some session -> Ok session
    | None -> Error (Printf.sprintf "event for unknown session %S" id)
  in
  let partial_of digest s =
    let* xp = universe_of t digest in
    match Partial.of_string xp s with
    | p -> Ok p
    | exception Invalid_argument m -> Error m
  in
  (* The consent entry a lifecycle event lands on, created on first use
     and linked to the session's grant if it is not yet. *)
  let lifecycle_entry id =
    let entry = Consent.register t.consents ~session:id in
    (if entry.Consent.grant_id = None then
       match grant_link t id with
       | Some (key, grant_id) -> Consent.note_granted entry ~key grant_id
       | None -> ());
    entry
  in
  match event with
  | Persist.Rules { digest; text } -> (
    match compile t text with
    | Error e -> Error e.Proto.message
    | Ok (compiled, _) ->
      if compiled.digest = digest then Ok ()
      else
        Error
          (Printf.sprintf
             "rules event digest %s does not match the recompiled text (%s)"
             digest compiled.digest))
  | Persist.Tenant_published { tenant; version; digest; text; quota; at } ->
    (* Replay only (a live publish queues a build instead): restored
       versions are [Ready] with no artifact, and the active one is built
       from the retained text by its first resolver and shared from then
       on, so replay stays cheap no matter how many tenants the log
       holds. *)
    Tenant.restore t.tenants ~name:tenant ~version ~digest ~text ?quota
      ~now:at ();
    Ok ()
  | Persist.Session_created { id; digest; tenant; at } ->
    ignore (Session.restore t.store ~id ~digest ?tenant ~now:at ());
    Ok ()
  | Persist.Session_chosen { id; mas; benefits; at } ->
    let* session = session_of id in
    (* Live, the form is one the session's report offered, landed
       without an engine lookup (which would refresh the engine cache's
       LRU order); a report is never logged, so on replay it is parsed
       under the session's rules. *)
    let* mas =
      match
        List.find_opt
          (fun (p, _) -> Partial.to_string p = mas)
          session.Session.options
      with
      | Some (p, _) -> Ok p
      | None -> partial_of session.Session.digest mas
    in
    (* Requirement R2: the full valuation and the unchosen options die;
       from now on only the minimized form exists. *)
    session.Session.valuation <- None;
    session.Session.options <- [];
    session.Session.chosen <- Some (mas, benefits);
    session.Session.state <- Session.Chosen;
    Session.touch session ~now:at;
    Ok ()
  | Persist.Session_submitted { id; grant_id; at } ->
    let* session = session_of id in
    session.Session.grant_id <- Some grant_id;
    session.Session.state <- Session.Submitted;
    Session.touch session ~now:at;
    Ok ()
  | Persist.Grant { digest; grant_id; form; benefits; session; tenant; revoked }
    ->
    let key = ledger_key ~digest ~tenant in
    let* grant =
      if revoked then
        (* A snapshot tombstone: the id slot is restored but the empty
           form is never parsed. *)
        Ok None
      else
        let* form = partial_of digest form in
        Ok (Some { Workflow.form; benefits })
    in
    (* Each grant lands at its own id, reserved live under the ledger
       lock: shards draw ids from one ledger but may reach the single
       WAL writer in either order. *)
    let* () =
      if
        Shared.with_ledger t.shared key (fun ledger ->
            Ledger.restore ledger grant_id grant)
      then Ok ()
      else
        Error
          (Printf.sprintf "grant %d for rule set %s appears twice in the log"
             grant_id key)
    in
    (* Link the consent entry, so a later [revoke] or [expire] reaches
       the archived record even after the session is swept. *)
    Option.iter
      (fun session ->
        Consent.note_granted (Consent.register t.consents ~session) ~key
          grant_id)
      session;
    t.submitted <- t.submitted + 1;
    Option.iter (Tenant.note_submitted t.tenants) tenant;
    Ok ()
  | Persist.Session_revoked { id; at } ->
    (* Revoked data is never resurrected: the live session dies with the
       consent (a [Reported] valuation or [Chosen] form is erased now,
       not at the TTL) and the linked grant is tombstoned. Each step is
       idempotent — a snapshot may already hold the tombstone. *)
    let entry = lifecycle_entry id in
    (match Session.peek t.store id with
    | Some s -> Session.purge t.store s
    | None -> ());
    Consent.revoke t.consents entry ~at;
    tombstone_grant t entry;
    Ok ()
  | Persist.Session_expiry { id; horizon; at } ->
    (* Arm only: the horizon's application is derived, not logged
       ({!apply_due}) — judged against the service clock, by the sweep
       live and by {!apply_horizons} after replay. *)
    Consent.set_horizon t.consents (lifecycle_entry id) ~horizon ~at;
    Ok ()

(* Apply decided events in order, each then handed to the sink, which
   therefore sees exactly the transitions the state holds. An [Error]
   here means decide and apply disagree — a defect, answered as an
   internal error rather than raised. *)
let commit t events =
  List.fold_left
    (fun result event ->
      let* () = result in
      match apply_event t event with
      | Ok () ->
        t.sink.emit event;
        Ok ()
      | Error m ->
        Error
          (Proto.errorf Proto.Internal "%s event did not apply: %s"
             (Persist.kind event) m))
    (Ok ()) events

(* --- Handlers ----------------------------------------------------------------- *)

let rules_summary compiled ~cached =
  let atlas = Workflow.atlas compiled.provider in
  Json.Obj
    [
      ("digest", Json.String compiled.digest);
      ("cached", Json.Bool cached);
      ("predicates", Json.Int (Universe.size (Exposure.xp compiled.exposure)));
      ("benefits", Json.Int (Universe.size (Exposure.xb compiled.exposure)));
      ("mas", Json.Int (Atlas.mas_count atlas));
      ("eligible", Json.Int (Atlas.player_count atlas));
    ]

(* --- Tenant handlers ------------------------------------------------------------ *)

(* Parse and canonicalize the rules on the request path (so malformed
   text errors synchronously), then queue the expensive part — engine,
   atlas, equilibrium — in the tenant registry as a pure closure. *)
let tenant_text t = function
  | Proto.Text text -> Ok text
  | Proto.Source name -> (
    match t.resolve name with
    | Some text -> Ok text
    | None ->
      Error (Proto.errorf Proto.Unknown_source "unknown rule source %S" name))
  | Proto.Digest _ | Proto.Tenant _ ->
    (* unreachable from the wire: the decoder only admits text/source
       rules for tenant publishes *)
    Error
      (Proto.error Proto.Invalid_params
         "tenant rules must be given as text or a named source")

let tenant_version_json ~name ~version ~digest ~state =
  Json.Obj
    [
      ("tenant", Json.String name);
      ("version", Json.Int version);
      ("digest", Json.String digest);
      ("state", Json.String state);
    ]

let prepare_tenant_build t rules =
  let* text = tenant_text t rules in
  match Spec.parse text with
  | Error m -> Error (Proto.errorf Proto.Invalid_params "rules: %s" m)
  | Ok exposure ->
    let canonical = Spec.to_string exposure in
    let digest = Registry.digest canonical in
    Ok (canonical, digest, fun () -> try_build ~payoff:t.payoff exposure digest)

(* A quota change on a version that already exists is logged as that
   version's record again, carrying the new quota: replay replaces a
   version with its latest record. *)
let log_quota t ~name ~version ~digest ~text ~quota ~now =
  t.sink.emit
    (Persist.Tenant_published
       { tenant = name; version; digest; text; quota; at = now })

let publish_tenant t ~name ~quota rules ~now =
  let* canonical, digest, build = prepare_tenant_build t rules in
  match Tenant.publish t.tenants ~name ~digest ~text:canonical ?quota ~now
          ~build ()
  with
  | `Created ->
    (* Durable before the build: the latest accepted version, not the
       latest built one, is what recovery must restore. *)
    t.sink.emit
      (Persist.Tenant_published
         { tenant = name; version = 1; digest; text = canonical; quota; at = now });
    (* Rendered from the [`Created] arm, not from a state read, so the
       response says "building" whether or not the build already
       finished — deterministic transcripts under any scheduling. *)
    Ok (tenant_version_json ~name ~version:1 ~digest ~state:"building")
  | `Existing (version, state, requota) ->
    if requota then
      log_quota t ~name ~version ~digest ~text:canonical ~quota ~now;
    Ok
      (tenant_version_json ~name ~version ~digest
         ~state:(Tenant.state_name state))
  | `Conflict version ->
    Error
      (Proto.errorf Proto.Bad_state
         "tenant %S already serves version %d with a different rule set; \
          use update_rules to publish a new version"
         name version)

let update_tenant t ~name ~quota rules ~now =
  let* canonical, digest, build = prepare_tenant_build t rules in
  match Tenant.update t.tenants ~name ~digest ~text:canonical ?quota ~now
          ~build ()
  with
  | `Unknown ->
    Error
      (Proto.errorf Proto.Unknown_tenant
         "unknown tenant %S (publish_rules with a \"tenant\" parameter \
          creates it)"
         name)
  | `Queued version ->
    t.sink.emit
      (Persist.Tenant_published
         {
           tenant = name;
           version;
           digest;
           text = canonical;
           quota;
           at = now;
         });
    Ok (tenant_version_json ~name ~version ~digest ~state:"building")
  | `Unchanged (version, state, requota) ->
    if requota then
      log_quota t ~name ~version ~digest ~text:canonical ~quota ~now;
    Ok
      (tenant_version_json ~name ~version ~digest
         ~state:(Tenant.state_name state))

let tenant_info t ~name ~wait =
  match name with
  | None ->
    let names = Tenant.names t.tenants in
    Ok
      (Json.Obj
         [
           ("count", Json.Int (List.length names));
           ("tenants", Json.List (List.map (fun n -> Json.String n) names));
         ])
  | Some name -> (
    (* [wait] is the deterministic barrier: block until every queued
       build for this tenant settled, then report. *)
    if wait then Tenant.await t.tenants name;
    match Tenant.info t.tenants name with
    | None ->
      Error (Proto.errorf Proto.Unknown_tenant "unknown tenant %S" name)
    | Some info ->
      Ok
        (Json.Obj
           [
             ("tenant", Json.String info.Tenant.info_name);
             ("versions", Json.Int info.Tenant.versions);
             ("active", Json.Int info.Tenant.active);
             ("digest", Json.String info.Tenant.digest);
             ("state", Json.String (Tenant.state_name info.Tenant.state));
             ("quota", Json.Int info.Tenant.quota);
             ( "sessions",
               Json.Obj
                 [
                   ("active", Json.Int info.Tenant.sessions_active);
                   ("created", Json.Int info.Tenant.sessions_created);
                   ("submitted", Json.Int info.Tenant.submitted);
                 ] );
           ]))

let publish_rules t ~rules ~tenant ~quota ~now =
  match tenant with
  | None -> (
    let* compiled, cached = resolve_rules t rules in
    Ok (rules_summary compiled ~cached))
  | Some name -> publish_tenant t ~name ~quota rules ~now

let new_session t rules ~now =
  let* compiled, tenant, fields =
    match rules with
    | Proto.Tenant name ->
      (* Pin the tenant's active version at open: the session keeps this
         digest (and its answers) across any later hot swap. *)
      let* resolved, compiled, _ = resolve_tenant t name in
      (* The quota slot is reserved here, atomically across shards. *)
      let* () =
        match Tenant.try_admit t.tenants name with
        | `Ok -> Ok ()
        | `Over quota ->
          Error
            (Proto.errorf Proto.Quota_exceeded
               "tenant %S is at its quota of %d active sessions" name quota)
      in
      Ok
        ( compiled,
          Some name,
          [
            ("tenant", Json.String name);
            ("version", Json.Int resolved.Tenant.res_version);
            ("digest", Json.String compiled.digest);
          ] )
    | _ ->
      let* compiled, cached = resolve_rules t rules in
      Ok
        ( compiled,
          None,
          [
            ("digest", Json.String compiled.digest);
            ("cached", Json.Bool cached);
          ] )
  in
  let id = Session.reserve t.store in
  let* () =
    commit t
      [
        Persist.Session_created
          { id; digest = compiled.digest; tenant; at = now };
      ]
  in
  Ok (Json.Obj (("session", Json.String id) :: fields))

(* A handler result: either a JSON tree for the encoder, or (from the
   report memo, or a watch frame) the same JSON already rendered to
   text — [Proto.ok_response_text] splices it without re-walking the
   tree, producing byte-identical responses either way. *)
type payload = Tree of Json.t | Rendered of string

let get_report t ~session:sid ~valuation ~now =
  let* session = find_session t sid ~now in
  let* () =
    require_state session [ Session.Created; Session.Reported ]
      ~verb:"get_report"
  in
  let* compiled = engine_of t session.Session.digest in
  let* v =
    match Total.of_string (Exposure.xp compiled.exposure) valuation with
    | v -> Ok v
    | exception Invalid_argument m ->
      Error (Proto.errorf Proto.Invalid_params "valuation: %s" m)
  in
  let render () =
    match Workflow.report_for compiled.provider v with
    | Error m -> Error (Proto.error Proto.Ineligible m)
    | Ok report ->
      Ok
        {
          payload = Json.to_string (Report.to_json report);
          options =
            List.map
              (fun (o : Report.option_report) ->
                (o.Report.mas, o.Report.benefits))
              report.Report.options;
        }
  in
  (* A player's report is rendered once and replayed to every later
     respondent with the same form contents; a valuation that is no
     player gets [report_for]'s refusal on every request. *)
  let* answer =
    match Atlas.find_player (Workflow.atlas compiled.provider) v with
    | None -> render ()
    | Some i -> (
      let memo = memo_of compiled in
      match memo.(i) with
      | Some answer -> Ok answer
      | None ->
        let* answer = render () in
        memo.(i) <- Some answer;
        Ok answer)
  in
  session.Session.valuation <- Some v;
  session.Session.options <- answer.options;
  session.Session.state <- Session.Reported;
  Session.touch session ~now;
  Ok (Rendered answer.payload)

let choose_option t ~session:sid ~choice ~now =
  let* () = horizon_guard t ~session:sid ~now in
  let* session = find_session t sid ~now in
  let* () = require_state session [ Session.Reported ] ~verb:"choose_option" in
  let options = session.Session.options in
  let* mas, benefits =
    match choice with
    | Proto.Index i -> (
      (* [List.nth_opt] raises on negative indices rather than returning
         [None], so guard explicitly. *)
      match if i < 0 then None else List.nth_opt options i with
      | Some option -> Ok option
      | None ->
        Error
          (Proto.errorf Proto.Invalid_params
             "option %d is out of range (the report offered %d options)" i
             (List.length options)))
    | Proto.Mas s -> (
      match
        List.find_opt (fun (mas, _) -> Partial.to_string mas = s) options
      with
      | Some option -> Ok option
      | None ->
        Error
          (Proto.errorf Proto.Invalid_params
             "%S is not one of the options offered by the report" s))
  in
  (* Only the minimized form reaches the log — the raw valuation dies in
     memory as the event applies and was never representable as an event
     (R2 on disk). *)
  let mas = Partial.to_string mas in
  let* () =
    commit t [ Persist.Session_chosen { id = sid; mas; benefits; at = now } ]
  in
  Ok
    (Json.Obj
       [
         ("mas", Json.String mas);
         ("benefits", Json.List (List.map (fun b -> Json.String b) benefits));
       ])

let submit_form t ~session:sid ~now =
  let* () = horizon_guard t ~session:sid ~now in
  let* session = find_session t sid ~now in
  let* () = require_state session [ Session.Chosen ] ~verb:"submit_form" in
  let* compiled = engine_of t session.Session.digest in
  let mas, _ = Option.get session.Session.chosen in
  match Workflow.submit compiled.provider mas with
  | Error m -> Error (Proto.error Proto.Rejected m)
  | Ok grant ->
    let digest = session.Session.digest and tenant = session.Session.tenant in
    let grant_id =
      Shared.with_ledger t.shared (ledger_key ~digest ~tenant) Ledger.reserve
    in
    let form = Partial.to_string grant.Workflow.form
    and benefits = grant.Workflow.benefits in
    let* () =
      commit t
        [
          Persist.Grant
            {
              digest;
              grant_id;
              form;
              benefits;
              session = Some sid;
              tenant;
              revoked = false;
            };
          Persist.Session_submitted { id = sid; grant_id; at = now };
        ]
    in
    Ok
      (Json.Obj
         [
           ("grant", Json.Int grant_id);
           ("form", Json.String form);
           ("benefits", Json.List (List.map (fun b -> Json.String b) benefits));
         ])

let revoke t ~session:sid ~now =
  let* () = lifecycle_guard t ~session:sid ~verb:"revoke" in
  (* The grant this revocation erases, read before it applies: one whose
     record still holds a form. *)
  let erased =
    Option.bind (grant_link t sid) (fun (key, grant_id) ->
        Shared.with_ledger t.shared key (fun ledger ->
            Option.map (fun _ -> grant_id) (Ledger.find ledger grant_id)))
  in
  let* () = commit t [ Persist.Session_revoked { id = sid; at = now } ] in
  Ok
    (Json.Obj
       ([ ("session", Json.String sid); ("revoked", Json.Bool true) ]
       @
       match erased with
       | Some grant_id -> [ ("grant", Json.Int grant_id) ]
       | None -> []))

let expire t ~session:sid ~after ~now =
  let* () = lifecycle_guard t ~session:sid ~verb:"expire" in
  let horizon = now +. after in
  (* The horizon itself is durable; its later application is not logged
     — it is derivable (replay re-arms horizons and re-applies any that
     passed), so the WAL stays append-only and replay-deterministic. *)
  let* () =
    commit t [ Persist.Session_expiry { id = sid; horizon; at = now } ]
  in
  Ok
    (Json.Obj
       [ ("session", Json.String sid); ("expires_at", Json.Float horizon) ])

let audit t rules =
  let* compiled, _ = resolve_rules t rules in
  (* Auditing by tenant reads that tenant's namespaced ledger; the same
     digest audited bare sees only tenant-less grants. *)
  let tenant =
    match rules with Proto.Tenant name -> Some name | _ -> None
  in
  let key = ledger_key ~digest:compiled.digest ~tenant in
  let records, stored_values, tombstones, failures =
    Shared.with_ledger t.shared key (fun ledger ->
        ( Ledger.size ledger,
          Ledger.stored_values ledger,
          Ledger.tombstones ledger,
          Ledger.audit ledger compiled.provider ))
  in
  Ok
    (Json.Obj
       ([
          ("digest", Json.String compiled.digest);
          ("records", Json.Int records);
          ("stored_values", Json.Int stored_values);
        ]
       (* Only once a revocation or expiry has landed, so pre-lifecycle
          transcripts keep their bytes. *)
       @ (if tombstones = 0 then [] else [ ("revoked", Json.Int tombstones) ])
       @ [ ("failures", Json.List (List.map (fun i -> Json.Int i) failures)) ]
       ))

(* --- Replay ----------------------------------------------------------------------- *)

(* Replay is the transition function plus the one reservation decide
   takes live that the log cannot carry: a tenant session's quota slot,
   taken here without the quota check — the session was admitted when
   first created. *)
let apply_event t event =
  (match event with
  | Persist.Session_created { tenant = Some name; _ } ->
    Tenant.note_restored t.tenants name
  | _ -> ());
  apply_event t event

(* --- Observability ---------------------------------------------------------------- *)

module Obs = Pet_obs.Metrics
module Trace = Pet_obs.Trace
let obs_swept = Obs.counter "pet_server_sessions_swept_total"

(* The process-wide aggregates, as gauges read when a snapshot is taken —
   stale-free and free on the request path: every shard's counters
   summed, then the shared ledgers, consent store and tenant registry. *)
let service_gauges t =
  let add = List.map2 (fun (name, a) (_, b) -> (name, a + b)) in
  let summed =
    List.fold_left
      (fun acc read -> add acc (read ()))
      (List.map (fun (name, _) -> (name, 0)) (shard_counters t))
      (Shared.counters t.shared)
  in
  let c = Consent.counters t.consents and tt = Tenant.totals t.tenants in
  List.map
    (fun (name, v) -> (name, float_of_int v))
    (summed
    @ [
      ( "pet_ledger_records",
        Shared.fold_ledgers t.shared (fun _ l acc -> acc + Ledger.size l) 0 );
      ("pet_consent_revoked", c.Consent.revoked);
      ("pet_consent_expired", c.Consent.expired);
      ("pet_consent_pending", c.Consent.pending);
      ("pet_tenants", tt.Tenant.tenants);
      ("pet_tenant_builds", tt.Tenant.builds);
      ("pet_tenant_build_failures", tt.Tenant.build_failures);
      ("pet_tenant_building", tt.Tenant.building);
    ])

(* The one snapshot behind [metrics], [watch] frames and the flight
   recorder: the registry plus the process-wide aggregates, and the
   per-request series merged from every shard's accounting set, SLO
   windows at [now] (the service clock). *)
let snapshot t ~now =
  Pet_obs.Process.sync ();
  let base = Obs.snapshot () in
  Accounting.snapshot (Shared.accounts t.shared) ~now
    { base with Obs.gauges = base.Obs.gauges @ service_gauges t }

let json_of_hist (h : Obs.hist_stats) =
  Json.Obj
    [
      ("count", Json.Int h.Obs.count);
      ("sum", Json.Float h.Obs.sum);
      ("max", Json.Float h.Obs.max);
      ("p50", Json.Float (Obs.quantile h 0.5));
      ("p90", Json.Float (Obs.quantile h 0.9));
      ("p99", Json.Float (Obs.quantile h 0.99));
    ]

let metrics_payload t ~now format =
  let snapshot = snapshot t ~now in
  match format with
  | Proto.Mprometheus -> Json.String (Pet_obs.Export.prometheus snapshot)
  | Proto.Mjson ->
    Json.Obj
      [
        ("enabled", Json.Bool (Obs.enabled ()));
        ( "counters",
          Json.Obj
            (List.map (fun (n, v) -> (n, Json.Int v)) snapshot.Obs.counters)
        );
        ( "gauges",
          Json.Obj
            (List.map (fun (n, v) -> (n, Json.Float v)) snapshot.Obs.gauges)
        );
        ( "histograms",
          Json.Obj
            (List.map
               (fun (n, h) -> (n, json_of_hist h))
               snapshot.Obs.histograms) );
      ]

(* One [watch] frame: a full (fresh-encoder) flight snapshot of every
   instrument, wrapped as {"watch":{...}}. Streaming is the transport's
   loop — it re-dispatches the same request per frame — so consecutive
   frames are full snapshots and clients compute rates by diffing them.
   Rendered (not Tree): the flight encoder already emits JSON text, and
   sharing it keeps watch frames and journal records one format. *)
let watch_frame t ~now =
  let enc = Pet_obs.Flight.create () in
  Rendered
    (Printf.sprintf "{\"watch\":%s}"
       (Pet_obs.Flight.snap enc ~now (snapshot t ~now)))

(* --- Traces --------------------------------------------------------------------- *)

let json_of_ann = function
  | Trace.String s -> Json.String s
  | Trace.Int i -> Json.Int i
  | Trace.Bool b -> Json.Bool b
  | Trace.Float f -> Json.Float f

let annotations_json (tr : Trace.t) =
  Json.Obj (List.map (fun (k, v) -> (k, json_of_ann v)) tr.Trace.annotations)

(* The Chrome export ships as one JSON string, like the Prometheus
   exposition: the client writes it to a file and loads it in a viewer. *)
let trace_capture_json format (tr : Trace.t) =
  match format with
  | Proto.Tchrome ->
    Json.Obj
      [
        ("id", Json.String tr.Trace.id);
        ("chrome", Json.String (Trace.chrome tr));
      ]
  | Proto.Ttree ->
    Json.Obj
      [
        ("id", Json.String tr.Trace.id);
        ("duration_s", Json.Float tr.Trace.duration);
        ("slow", Json.Bool tr.Trace.slow);
        ("annotations", annotations_json tr);
        ("tree", Json.String (Trace.render tr));
      ]

(* [trace] runs while its own capture is still open, so "last" and the
   slow listing describe the previous requests, never the [trace] call
   itself. *)
let trace_payload query format =
  if not (Trace.enabled ()) then
    Error
      (Proto.error Proto.Bad_state "tracing is off in this process")
  else
    match query with
    | Proto.Tlast -> (
      match Trace.recent () with
      | tr :: _ -> Ok (trace_capture_json format tr)
      | [] -> Error (Proto.error Proto.Invalid_params "no traces captured yet"))
    | Proto.Tget id -> (
      match Trace.find id with
      | Some tr -> Ok (trace_capture_json format tr)
      | None ->
        Error
          (Proto.errorf Proto.Invalid_params
             "no capture with trace id %S (never captured, or evicted)" id))
    | Proto.Tslow ->
      let recent_ev, slow_ev = Trace.evictions () in
      Ok
        (Json.Obj
           [
             ( "slow",
               Json.List
                 (List.map
                    (fun (tr : Trace.t) ->
                      Json.Obj
                        [
                          ("id", Json.String tr.Trace.id);
                          ("duration_s", Json.Float tr.Trace.duration);
                          ("annotations", annotations_json tr);
                        ])
                    (Trace.slow ())) );
             ( "evictions",
               Json.Obj
                 [
                   ("recent", Json.Int recent_ev); ("slow", Json.Int slow_ev);
                 ] );
           ])

(* --- Stats ---------------------------------------------------------------------- *)

let record_hold t seconds = Accounting.record_hold t.acct seconds
let registry_stats t = Registry.stats t.registry
let sessions t = Session.to_list t.store
let session_counters t = Session.counters t.store

(* Sweep on demand, at the service clock — the TCP server's ticker
   enqueues one of these per shard per interval so TTL expiry advances
   on every shard even when only one of them sees traffic. *)
let sweep_tick ?budget t =
  let now = t.now () in
  let swept = Session.sweep_step ?budget t.store ~now in
  ignore (consent_step ?budget t ~now);
  if Obs.enabled () then Obs.add obs_swept swept;
  swept

let stats_json t =
  let r = Registry.stats t.registry in
  let s = Session.counters t.store in
  let records, stored_values =
    Shared.fold_ledgers t.shared
      (fun _ ledger (records, values) ->
        (records + Ledger.size ledger, values + Ledger.stored_values ledger))
      (0, 0)
  in
  Json.Obj
    ([
      ("requests", Accounting.requests_json t.acct);
      ( "registry",
        Json.Obj
          [
            ("size", Json.Int r.Registry.size);
            ("capacity", Json.Int r.Registry.capacity);
            ("hits", Json.Int r.Registry.hits);
            ("misses", Json.Int r.Registry.misses);
            ("evictions", Json.Int r.Registry.evictions);
          ] );
      ( "sessions",
        Json.Obj
          [
            ("active", Json.Int s.Session.active);
            ("created", Json.Int s.Session.created);
            ("expired", Json.Int s.Session.expired);
            ("submitted", Json.Int t.submitted);
          ] );
      ( "ledger",
        Json.Obj
          [
            ("rule_sets", Json.Int (Shared.ledger_count t.shared));
            ("records", Json.Int records);
            ("stored_values", Json.Int stored_values);
          ] );
    ]
    (* Like the tenants section: only once a revocation or expiry has
       happened, so pre-lifecycle transcripts keep their bytes. *)
    @ (let c = Consent.counters t.consents in
       if c.Consent.revoked = 0 && c.Consent.expired = 0 && c.Consent.pending = 0
       then []
       else
         [
           ( "consent",
             Json.Obj
               [
                 ("revoked", Json.Int c.Consent.revoked);
                 ("expired", Json.Int c.Consent.expired);
                 ("pending", Json.Int c.Consent.pending);
               ] );
         ])
    (* The tenants section appears only once a tenant exists, so
       single-tenant deployments keep their pre-tenancy stats bytes. *)
    @
    if Tenant.count t.tenants = 0 then []
    else
      let tt = Tenant.totals t.tenants in
      let by_tenant =
        List.map
          (fun (info : Tenant.info) ->
            ( info.Tenant.info_name,
              Json.Obj
                [
                  ("versions", Json.Int info.Tenant.versions);
                  ("active_version", Json.Int info.Tenant.active);
                  ("state", Json.String (Tenant.state_name info.Tenant.state));
                  ("quota", Json.Int info.Tenant.quota);
                  ("sessions_active", Json.Int info.Tenant.sessions_active);
                  ("sessions_created", Json.Int info.Tenant.sessions_created);
                  ("submitted", Json.Int info.Tenant.submitted);
                ] ))
          (Tenant.infos t.tenants)
      in
      [
        ( "tenants",
          Json.Obj
            [
              ("count", Json.Int tt.Tenant.tenants);
              ("builds", Json.Int tt.Tenant.builds);
              ("build_failures", Json.Int tt.Tenant.build_failures);
              ("building", Json.Int tt.Tenant.building);
              ("by_tenant", Json.Obj by_tenant);
            ] );
      ])

(* --- Dispatch --------------------------------------------------------------------- *)

let handle_request t request ~now =
  match request with
  | Proto.Get_report { session; valuation } ->
    get_report t ~session ~valuation ~now
  | Proto.Watch _ -> Ok (watch_frame t ~now)
  | _ ->
    Result.map
      (fun json -> Tree json)
      (match request with
      | Proto.Get_report _ | Proto.Watch _ -> assert false (* handled above *)
      | Proto.Publish_rules { rules; tenant; quota } ->
        publish_rules t ~rules ~tenant ~quota ~now
      | Proto.Update_rules { tenant; rules; quota } ->
        update_tenant t ~name:tenant ~quota rules ~now
      | Proto.New_session rules -> new_session t rules ~now
      | Proto.Choose_option { session; choice } ->
        choose_option t ~session ~choice ~now
      | Proto.Submit_form { session } -> submit_form t ~session ~now
      | Proto.Revoke { session } -> revoke t ~session ~now
      | Proto.Expire { session; after } -> expire t ~session ~after ~now
      | Proto.Audit rules -> audit t rules
      | Proto.Tenant_info { name; wait } -> tenant_info t ~name ~wait
      | Proto.Stats -> Ok (stats_json t)
      | Proto.Metrics format -> Ok (metrics_payload t ~now format)
      | Proto.Trace_req { query; format } -> trace_payload query format)

(* Which tenant a request belongs to, for per-tenant metrics and SLOs:
   explicitly named tenants directly, session-bearing requests through
   the session's owner (one non-mutating lookup). *)
let tenant_of_request t = function
  | Proto.New_session (Proto.Tenant name)
  | Proto.Publish_rules { tenant = Some name; _ }
  | Proto.Update_rules { tenant = name; _ } -> Some name
  | Proto.Get_report { session; _ }
  | Proto.Choose_option { session; _ }
  | Proto.Submit_form { session }
  | Proto.Revoke { session }
  | Proto.Expire { session; _ } ->
    Option.bind (Session.peek t.store session) (fun s -> s.Session.tenant)
  | _ -> None

(* Identifier annotations only: sessions, digests and source names go on
   the capture; rule text and valuations never do (DESIGN.md §12). *)
let annotate_request request =
  (match request with
  | Proto.Get_report { session; _ }
  | Proto.Choose_option { session; _ }
  | Proto.Submit_form { session }
  | Proto.Revoke { session }
  | Proto.Expire { session; _ } ->
    Trace.annotate "session" (Trace.String session)
  | Proto.Publish_rules _ | Proto.Update_rules _ | Proto.New_session _
  | Proto.Audit _ | Proto.Tenant_info _ | Proto.Stats | Proto.Metrics _
  | Proto.Trace_req _ | Proto.Watch _ -> ());
  (match request with
  | Proto.Publish_rules { tenant = Some name; _ }
  | Proto.Update_rules { tenant = name; _ }
  | Proto.Tenant_info { name = Some name; _ } ->
    Trace.annotate "tenant" (Trace.String name)
  | _ -> ());
  match request with
  | Proto.Publish_rules { rules = r; _ }
  | Proto.Update_rules { rules = r; _ }
  | Proto.New_session r
  | Proto.Audit r -> (
    match r with
    | Proto.Digest d -> Trace.annotate "digest" (Trace.String d)
    | Proto.Source s -> Trace.annotate "source" (Trace.String s)
    | Proto.Tenant name -> Trace.annotate "tenant" (Trace.String name)
    | Proto.Text _ -> ())
  | _ -> ()

let handle_line t line =
  let start = t.now () in
  Accounting.arrive t.acct;
  (* The AST-free scanner first: it either agrees exactly with
     [Proto.decode] or declines, so the fallback — not the fast path —
     decides every error. *)
  let decoded =
    match Proto.decode_fast line with
    | Some envelope -> Ok envelope
    | None -> Proto.decode line
  in
  let tracing = Trace.enabled () in
  (* A client-supplied trace id is echoed even with tracing off; with
     tracing on every request gets one, generated if absent. *)
  let trace_id =
    match decoded with
    | Ok { Proto.trace = Some tid; _ } | Error (_, Some tid, _) -> Some tid
    | _ -> if tracing then Some (Trace.generate_id ()) else None
  in
  let dispatch () =
    match decoded with
    | Error (id, _, e) ->
      if tracing then begin
        Trace.annotate "method" (Trace.String "invalid");
        Trace.annotate "error" (Trace.String (Proto.code_name e.Proto.code))
      end;
      (id, Accounting.invalid, Error e)
    | Ok { Proto.id; request; _ } ->
      if tracing then begin
        Trace.annotate "method" (Trace.String (Proto.method_name request));
        Trace.annotate "backend" (Trace.String "compiled");
        annotate_request request
      end;
      let result = handle_request t request ~now:start in
      (if tracing then
         match result with
         | Error e ->
           Trace.annotate "error" (Trace.String (Proto.code_name e.Proto.code))
         | Ok _ -> ());
      (id, Accounting.method_index request, result)
  in
  let id, meth, result =
    match trace_id with
    | Some tid -> Trace.run ~id:tid dispatch
    | None -> dispatch ()
  in
  let response =
    match result with
    | Ok (Tree payload) -> Proto.ok_response ~id ?trace:trace_id payload
    | Ok (Rendered payload) ->
      Proto.ok_response_text ~id ?trace:trace_id payload
    | Error e -> Proto.error_response ~id ?trace:trace_id e
  in
  let finish = t.now () in
  (* Sweep after the handler, so an expired session's own lookup still
     answers [session_expired] before the sweep turns it into an unknown
     id for everyone else. The sweep is incremental — a bounded number
     of sessions per request — so abandoned sessions are reclaimed in
     amortized O(budget) instead of a full O(sessions) scan per line. *)
  Obs.add obs_swept (Session.sweep_step t.store ~now:finish);
  ignore (consent_step t ~now:finish);
  (* The one accounting record, after the sweep like the tenant lookup
     it needs: [stats], metrics, SLO windows, watch and flight all read
     it. *)
  let tenant =
    match decoded with
    | Ok { Proto.request; _ } -> tenant_of_request t request
    | Error _ -> None
  in
  Accounting.record t.acct ~meth ~tenant ~now:finish ~latency:(finish -. start)
    ~error:(Result.is_error result);
  response
