(** Durable events and the sink interface between the service and any
    persistence backend ({!Pet_store} in this repo, a no-op by default).

    Every state change the service must survive a restart is expressed
    as one of these events. A handler decides its events, applies them
    through {!Service.apply_event} and emits each to its sink as it
    applies; recovery replays them through the same function. The events are the durability boundary of
    requirement R2: a full valuation is {e representable in no event} —
    only rule texts, minimized forms ([mas]/[form] partial-valuation
    strings, possibly with blanks) and grants appear, so nothing a crash
    leaves on disk can contain more than the provider was ever allowed
    to keep. The [Reported] session state (the options a report offered)
    is deliberately not persisted: such a session recovers as [Created]
    and the respondent re-requests the report. *)

module Json = Pet_pet.Json

type event =
  | Rules of { digest : string; text : string }
      (** A rule set entered service: [text] is the canonical rendering
          whose {!Registry.digest} is [digest]. Logged once per digest. *)
  | Tenant_published of {
      tenant : string;
      version : int;  (** monotonic per tenant, from 1 *)
      digest : string;
      text : string;  (** canonical rendering, as in {!Rules} *)
      quota : int option;
      at : float;
    }
      (** Tenant [tenant] accepted [version]: logged on the request path
          at publish/update time — before the background build runs — so
          the latest durable version is the latest {e accepted} one and
          recovery re-registers every tenant at its recorded version
          (rebuilding engines lazily). Subsumes {!Rules} for tenant
          texts. *)
  | Session_created of {
      id : string;
      digest : string;
      tenant : string option;
          (** set for sessions opened by tenant name; the field is
              omitted from the JSON when absent, so single-tenant logs
              keep their pre-tenancy bytes *)
      at : float;
    }
  | Session_chosen of {
      id : string;
      mas : string;  (** the minimized form, e.g. ["0_1_"] *)
      benefits : string list;
      at : float;
    }
  | Session_submitted of { id : string; grant_id : int; at : float }
  | Session_revoked of { id : string; at : float }
      (** The respondent withdrew consent at [at]: the session (if
          live) was purged and its archived grant (if any) tombstoned.
          From this point of the log on, no later record may
          re-establish the session's subvaluation — the property
          [pet audit] checks offline. *)
  | Session_expiry of { id : string; horizon : float; at : float }
      (** Consent granted by session [id] holds until [horizon]
          (absolute service time; recorded at [at]): once the clock
          passes it, the sweep tombstones the grant. Replay re-arms the
          horizon, so recovery applies expiries the crash interrupted. *)
  | Grant of {
      digest : string;
      grant_id : int;  (** sequential per (tenant, digest) ledger, from 0 *)
      form : string;  (** the archived minimized record; [""] when revoked *)
      benefits : string list;
      session : string option;
          (** the submitting session — the link a later
              {!Session_revoked}/{!Session_expiry} uses to reach this
              record; omitted from the JSON when absent, so
              pre-lifecycle logs keep their bytes *)
      tenant : string option;
          (** namespaces the grant ledger: two tenants publishing
              identical rules (same [digest]) keep separate archives
              and grant-id sequences *)
      revoked : bool;
          (** a tombstone (written by compaction): only the id slot
              survives, [form] is empty and must not be parsed *)
    }

val kind : event -> string
(** The wire tag: ["rules"], ["tenant_published"], ["session_created"],
    ["session_chosen"], ["session_submitted"], ["session_revoked"],
    ["session_expiry"] or ["grant"]. *)

val to_json : event -> Json.t
val of_json : Json.t -> (event, string) result
(** Inverse of {!to_json}; [Error] explains the first malformed field. *)

val carries_valuation : Json.t -> bool
(** The on-disk R2 predicate: a ["valuation"] key anywhere in a
    record's JSON, at any depth. No event {!to_json} writes has one; a
    record that does means a raw form reached disk. [pet store verify]
    and [pet audit]'s [r2] property both judge records by it. *)

type sink = { emit : event -> unit }
(** Called synchronously after the state change it describes has been
    applied in memory and before the response is rendered. The response
    must not reach a client before the event is on stable storage:
    [Pet_store.Store.sink] writes it before [emit] returns; the serving
    core's sink queues it and holds the reply until its group commit is
    durable. *)

val null : sink
(** The no-op sink: today's pure in-memory service. *)
