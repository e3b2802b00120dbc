(** Multi-tenant form registry with versioned publishes and hot rule
    migration.

    Tenants are named forms. Each publish or rule update appends a
    {e version} (monotonic number + canonical-text digest) whose
    artifact — engine, MAS atlas, rendered-report memo — is queued for
    building, so publishing returns immediately. A version becomes the
    tenant's {e active} version (the one new sessions resolve)
    atomically when its build completes;
    sessions pin the digest they started on, so a hot swap never
    changes an in-flight respondent's answers.

    The registry is generic in the artifact type ['a]: the server
    instantiates it with its compiled-engine record and supplies build
    closures, so this module depends on nothing above the stdlib.

    The registry starts no domain: queued builds run on the caller's
    domains. A serving loop takes one per round with {!run_one}, and
    {!resolve} and {!await} run queued builds themselves while what
    they wait for is unsettled.

    Thread-safety: every operation is safe from any domain; one mutex
    guards all state, and builds run outside it. *)

type build_state = Building | Ready | Failed of string

val state_name : build_state -> string
(** ["building"], ["ready"] or ["failed"]. *)

type 'a t

val create : ?quota:int -> unit -> 'a t
(** [quota] is the default per-tenant cap on concurrently active
    sessions (0, the default, means unlimited). *)

(** {1 Running builds} *)

val queued : 'a t -> bool
(** Whether a build waits in the queue: one atomic read, no lock. *)

val run_one : 'a t -> bool
(** Run the oldest queued build on the calling domain and publish its
    result; false, having done nothing, when the queue is empty. *)

(** {1 Publishing} *)

val publish :
  'a t ->
  name:string ->
  digest:string ->
  text:string ->
  ?quota:int ->
  now:float ->
  build:(unit -> ('a, string) result) ->
  unit ->
  [ `Created | `Existing of int * build_state * bool | `Conflict of int ]
(** Create tenant [name] at version 1 and enqueue its build ([`Created]
    — the caller's response reports ["building"]: the build has
    provably not run on the request path). If the tenant exists:
    [`Existing] when [digest] already is its newest version (idempotent
    republish), [`Conflict] otherwise — rule changes must go through
    {!update}. [quota], when given, (re)sets the tenant quota, except on
    [`Conflict], which changes nothing; [`Existing]'s flag says whether
    the quota changed. *)

val update :
  'a t ->
  name:string ->
  digest:string ->
  text:string ->
  ?quota:int ->
  now:float ->
  build:(unit -> ('a, string) result) ->
  unit ->
  [ `Queued of int | `Unchanged of int * build_state * bool | `Unknown ]
(** Append a new version to an existing tenant and enqueue its build.
    The previously active version keeps serving new sessions until the
    build lands, at which point the registry atomically swaps.
    [`Unchanged] when [digest] already is the newest version (its flag
    says whether [quota] changed the tenant quota), [`Unknown] when the
    tenant was never published. *)

val restore :
  'a t ->
  name:string ->
  version:int ->
  digest:string ->
  text:string ->
  ?quota:int ->
  now:float ->
  unit ->
  unit
(** Recovery: re-register a version recorded in the WAL as [Ready]
    with no artifact — its first resolver builds it from [text] and
    keeps it for every later one, so replaying a thousand tenants costs
    table inserts, not builds. The active version is the highest
    restored number. *)

(** {1 Resolution}

    Every resolver of a version, on any domain, gets the same artifact:
    a version keeps its artifact for as long as it is the tenant's
    active version, and drops it when a newer version becomes active,
    so the registry holds at most one artifact per tenant. The artifact
    must therefore be safe to use from several domains at once. *)

type 'a resolved = {
  res_version : int;
  res_digest : string;
  res_artifact : 'a;
      (** the active version's artifact: the one its build produced, or
          for a restored version the one its first resolver built with
          [build] and stored — physically the same for every resolver
          while the version stays active *)
}

val resolve :
  'a t ->
  build:(string -> ('a, string) result) ->
  string ->
  [ `Ready of 'a resolved | `Failed of int * string | `Unknown ]
(** The active version for a new session. While that version is still
    building, runs queued builds, then blocks until a build running on
    another domain lands — only a tenant's first version can be active
    and unbuilt, so this is the publish/new_session handshake, not a
    steady-state stall. A restored version's artifact is built here,
    from its canonical text, outside the lock; when two domains race,
    the first to store it wins and both get that one. A build that fails
    answers [`Failed] and stores nothing. *)

val await : 'a t -> string -> unit
(** Wait until the tenant's newest version settles (ready or failed),
    and with it every build queued before that version's; no-op for
    unknown tenants. Like {!resolve} it runs queued builds while it
    waits, so it returns even when nothing else runs them. The wire
    method [tenant {"name":N,"wait":true}] — a deploy script's barrier,
    which therefore sees the same registry whichever domain ran which
    build. *)

val artifact_of_digest :
  'a t -> build:(string -> ('a, string) result) -> string -> 'a option
(** The artifact of the version with this digest, for an engine cache
    that missed: the one it holds, or, for an active version restored
    and not yet resolved, the one built as {!resolve} builds it. [None]
    for a digest no tenant published, a version still building or
    failed, and a superseded version, which holds no artifact. *)

val text_of_digest : 'a t -> string -> string option
(** Canonical rule text for any version ever published, keyed by
    digest — the fallback that lets a session pinned to a superseded
    version be served after its engine cache evicted the engine. *)

(** {1 Quotas and per-tenant counters} *)

val try_admit : 'a t -> string -> [ `Ok | `Over of int ]
(** Admit one new session, or refuse with the quota when the tenant is
    at its cap of concurrently active sessions. *)

val note_restored : 'a t -> string -> unit
(** Count a replayed session (bypasses the quota: it was admitted when
    first created). *)

val release : 'a t -> string -> unit
(** A session of this tenant expired; frees one quota slot. *)

val note_submitted : 'a t -> string -> unit

(** {1 Introspection} *)

type info = {
  info_name : string;
  versions : int;
  active : int;  (** active version number *)
  digest : string;  (** of the active version *)
  state : build_state;
      (** of the newest version — [Ready] means fully settled *)
  quota : int;
  sessions_active : int;
  sessions_created : int;
  submitted : int;
}

val info : 'a t -> string -> info option
val count : 'a t -> int
val names : 'a t -> string list  (** sorted *)

val infos : 'a t -> info list  (** sorted by name *)

type totals = {
  tenants : int;
  builds : int;  (** completed successfully *)
  build_failures : int;
  building : int;  (** queued or in flight *)
}

val totals : 'a t -> totals
