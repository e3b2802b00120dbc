module Persist = Pet_server.Persist
module Service = Pet_server.Service
module Store = Pet_store.Store
module Log = Pet_obs.Log
module Trace = Pet_obs.Trace

type outcome = { errors : string list; expired : int }

let shard_of ~shards = function
  | Persist.Rules _ | Persist.Tenant_published _
  | Persist.Grant { session = None; _ } ->
    0
  | Persist.Grant { session = Some id; _ }
  | Persist.Session_created { id; _ }
  | Persist.Session_chosen { id; _ }
  | Persist.Session_submitted { id; _ }
  | Persist.Session_revoked { id; _ }
  | Persist.Session_expiry { id; _ } ->
    Shard_map.owner ~shards id

let replay services events =
  let shards = Array.length services in
  let errors =
    List.fold_left
      (fun errors event ->
        match Service.apply_event services.(shard_of ~shards event) event with
        | Ok () -> errors
        | Error reason -> reason :: errors)
      [] events
  in
  (* The consent store is shared, so one pass from any shard covers
     every horizon. *)
  { errors = List.rev errors; expired = Service.apply_horizons services.(0) }

let recover ~dir (recovery : Store.recovery) services =
  let place (d : Store.damage) =
    [
      ("file", Trace.String d.file);
      ("offset", Trace.Int d.offset);
      ("reason", Trace.String d.reason);
    ]
  in
  Option.iter
    (fun d -> Log.warn "store.torn_tail" ~fields:(place d))
    recovery.truncated;
  List.iter
    (fun d ->
      Log.error "store.damage"
        ~fields:
          (place d
          @ [
              ( "hint",
                Trace.String
                  (Printf.sprintf
                     "replay stopped there; run `pet store verify %s`" dir) );
            ]))
    recovery.damage;
  let outcome = replay services recovery.events in
  List.iter
    (fun reason ->
      Log.error "store.replay_error" ~fields:[ ("reason", Trace.String reason) ])
    outcome.errors;
  let replay_errors = List.length outcome.errors in
  Log.info "store.recovered"
    ~fields:
      ([
         ("events", Trace.Int (List.length recovery.events));
         ("files", Trace.Int recovery.files);
       ]
      @
      if replay_errors > 0 then [ ("replay_errors", Trace.Int replay_errors) ]
      else []);
  if outcome.expired > 0 then
    Log.info "store.horizons_applied"
      ~fields:[ ("expired", Trace.Int outcome.expired) ];
  outcome
