(** The one recovery path: from a data directory's recovered events to
    serving state. Both transports recover through {!recover} inside
    {!Server.start}; [pet check --fuzz-consent] replays through
    {!replay}, so the fuzzer exercises the shipped path. *)

type outcome = {
  errors : string list;  (** replay contradictions, in log order *)
  expired : int;  (** horizons that passed while the process was down *)
}

val replay :
  Pet_server.Service.t array -> Pet_server.Persist.event list -> outcome
(** Apply [events] in log order, each on the shard that serves it:
    session events and a session's grant on the {!Shard_map} owner of
    its id (the shard that counted the submission live), rule sets,
    tenant versions and session-less (pre-lifecycle) grants on shard 0
    (texts and ledgers are shared across shards). Grants land at their own ids, so two shards'
    grants reaching the log in swapped order replay cleanly; only a
    duplicate id is an error. Then apply every expiry horizon that has
    already passed. Never raises; the sinks stay detached, so nothing
    replayed is logged again. *)

val recover :
  dir:string ->
  Pet_store.Store.recovery ->
  Pet_server.Service.t array ->
  outcome
(** {!replay} plus the structured log every transport prints:
    [store.torn_tail], [store.damage] (with a [pet store verify DIR]
    hint), one [store.replay_error] per contradiction,
    [store.recovered] (events, files, and [replay_errors] when
    non-zero) and [store.horizons_applied] when any expired. *)
