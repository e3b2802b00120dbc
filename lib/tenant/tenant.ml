(* A multi-tenant form registry with versioned publishes and hot rule
   migration, layered over the per-service LRU engine cache.

   Tenants are named forms; each publish or rule update appends a
   *version* (monotonic number + canonical-text digest). Publishing
   returns immediately: the expensive artifact construction (engine,
   MAS atlas, equilibrium) is queued in one FIFO, and the version is
   atomically marked [Ready] — and made the tenant's active version —
   only when its build lands.
   Sessions pin the digest they started on, so a hot swap never changes
   the answers of an in-flight respondent; new sessions pick up the new
   active version the instant it is ready.

   The registry starts no domain. Queued builds run on domains that are
   already there: a serving loop takes one per round ([run_one]), and a
   caller that must wait for a build ([resolve], [await]) runs queued
   builds itself until what it waits for has settled.

   The registry is generic in the built artifact type ['a] so it does
   not depend on the server library that instantiates it (the server
   depends on this module, not the reverse). Build work arrives as
   closures; whoever runs one publishes its result back under the
   registry mutex, which is also what makes the artifact's publication
   to every consuming shard a properly synchronized transfer.

   One artifact per tenant: a version keeps its artifact for as long as
   it is the tenant's active version, and every resolver, on any shard,
   gets that same artifact. A newer version's landing drops the old
   one's. A restored version has none until its first resolver builds
   it from the retained text and stores it for the others.

   Locking: one mutex guards every tenant, version and counter;
   [settled] wakes waiters blocked on a build another domain runs.
   Builds themselves run outside the lock — only the enqueue and the
   final state swap take it. *)

type build_state = Building | Ready | Failed of string

let state_name = function
  | Building -> "building"
  | Ready -> "ready"
  | Failed _ -> "failed"

type 'a version = {
  number : int;
  digest : string;
  text : string;  (* canonical rule text; survives any engine eviction *)
  published_at : float;
  mutable state : build_state;
  seq : int;  (* its build's place in the job queue; 0 if restored *)
  mutable artifact : 'a option;
      (* the built artifact while this is the tenant's active version,
         shared by every resolver; [None] once a newer version is
         active, and until the first resolver of a restored version
         builds it *)
}

type 'a tenant = {
  name : string;
  mutable versions : 'a version list;  (* newest first, numbers contiguous *)
  mutable active : int;
      (* version number serving *new* sessions; moves only when a build
         completes (atomically, under the mutex), or on restore *)
  mutable quota : int;  (* max concurrently active sessions; 0 = unlimited *)
  mutable sessions_active : int;
  mutable sessions_created : int;
  mutable submitted : int;
}

type 'a job = {
  job_tenant : string;
  job_number : int;
  job_seq : int;
  job_build : unit -> ('a, string) result;
}

type 'a t = {
  mutex : Mutex.t;
  settled : Condition.t;
  tenants : (string, 'a tenant) Hashtbl.t;
  by_digest : (string, 'a tenant * 'a version) Hashtbl.t;
      (* digest -> its latest version, which holds the canonical text *)
  jobs : 'a job Queue.t;
  queued : int Atomic.t;  (* [Queue.length jobs], read without the lock *)
  default_quota : int;
  mutable enqueued : int;  (* the last job's [seq] *)
  mutable settled_upto : int;  (* every job up to this [seq] has settled *)
  settled_above : (int, unit) Hashtbl.t;  (* settled jobs past [settled_upto] *)
  mutable builds : int;  (* completed, successfully *)
  mutable failures : int;
  mutable building : int;  (* versions currently in [Building] *)
}

let create ?(quota = 0) () =
  {
    mutex = Mutex.create ();
    settled = Condition.create ();
    tenants = Hashtbl.create 64;
    by_digest = Hashtbl.create 64;
    jobs = Queue.create ();
    queued = Atomic.make 0;
    default_quota = quota;
    enqueued = 0;
    settled_upto = 0;
    settled_above = Hashtbl.create 16;
    builds = 0;
    failures = 0;
    building = 0;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* --- Running builds ------------------------------------------------------------ *)

let find_version tenant number =
  List.find_opt (fun v -> v.number = number) tenant.versions

(* Under the mutex: the next queued job, if any. *)
let take t =
  if Queue.is_empty t.jobs then None
  else begin
    Atomic.decr t.queued;
    Some (Queue.pop t.jobs)
  end

(* Under the mutex: publish a build's result and move the tenant's
   active version forward — the "atomic swap" is exactly these few
   lines. *)
let settle t job result =
  (match Hashtbl.find_opt t.tenants job.job_tenant with
  | None -> ()  (* tenant vanished; nothing to publish *)
  | Some tenant -> (
    match find_version tenant job.job_number with
    | None -> ()
    | Some version ->
      t.building <- t.building - 1;
      (match result with
      | Ok artifact ->
        version.state <- Ready;
        t.builds <- t.builds + 1;
        (* Only the active version keeps its artifact: one landing after
           a newer version is superseded on arrival. *)
        if version.number >= tenant.active then begin
          if version.number > tenant.active then
            Option.iter
              (fun old -> old.artifact <- None)
              (find_version tenant tenant.active);
          version.artifact <- Some artifact;
          tenant.active <- version.number
        end
      | Error m ->
        version.state <- Failed m;
        t.failures <- t.failures + 1)));
  Hashtbl.replace t.settled_above job.job_seq ();
  while Hashtbl.mem t.settled_above (t.settled_upto + 1) do
    Hashtbl.remove t.settled_above (t.settled_upto + 1);
    t.settled_upto <- t.settled_upto + 1
  done;
  Condition.broadcast t.settled

(* The build itself, outside the lock. *)
let build job =
  match job.job_build () with
  | result -> result
  | exception exn -> Error (Printexc.to_string exn)

let queued t = Atomic.get t.queued > 0

let run_one t =
  queued t
  &&
  match locked t (fun () -> take t) with
  | None -> false
  | Some job ->
    let result = build job in
    locked t (fun () -> settle t job result);
    true

(* Under the mutex: wait until [ready ()] holds, running queued builds
   meanwhile (the lock is released while one runs). It blocks on
   [settled] only when the queue is empty; every build it still waits
   for is then running on another domain, so a waiter cannot deadlock
   whatever runs the builds, or when nothing else does. *)
let rec help t ready =
  if not (ready ()) then begin
    (match take t with
    | Some job ->
      Mutex.unlock t.mutex;
      let result = build job in
      Mutex.lock t.mutex;
      settle t job result
    | None -> Condition.wait t.settled t.mutex);
    help t ready
  end

(* Under the mutex: the [seq] of the next job, for its version. *)
let next_seq t =
  t.enqueued <- t.enqueued + 1;
  t.enqueued

let enqueue_build t ~name ~number ~seq ~build =
  Queue.add { job_tenant = name; job_number = number; job_seq = seq; job_build = build } t.jobs;
  Atomic.incr t.queued;
  t.building <- t.building + 1

(* --- Publishing -------------------------------------------------------------- *)

let newest tenant = List.hd tenant.versions

let add_version t tenant ~digest ~text ~now ~seq =
  let number = (newest tenant).number + 1 in
  let version =
    {
      number;
      digest;
      text;
      published_at = now;
      state = Building;
      seq;
      artifact = None;
    }
  in
  tenant.versions <- version :: tenant.versions;
  Hashtbl.replace t.by_digest digest (tenant, version);
  number

(* Set the quota if one is given; true if that changed it. *)
let apply_quota tenant quota =
  match quota with
  | Some q when max 0 q <> tenant.quota ->
    tenant.quota <- max 0 q;
    true
  | Some _ | None -> false

let publish t ~name ~digest ~text ?quota ~now ~build () =
  locked t (fun () ->
      match Hashtbl.find_opt t.tenants name with
      | Some tenant ->
        let v = newest tenant in
        if v.digest = digest then
          `Existing (v.number, v.state, apply_quota tenant quota)
        else `Conflict v.number
      | None ->
        let seq = next_seq t in
        let version =
          {
            number = 1;
            digest;
            text;
            published_at = now;
            state = Building;
            seq;
            artifact = None;
          }
        in
        let tenant =
          {
            name;
            versions = [ version ];
            active = 1;
            quota = (match quota with Some q -> max 0 q | None -> t.default_quota);
            sessions_active = 0;
            sessions_created = 0;
            submitted = 0;
          }
        in
        Hashtbl.replace t.tenants name tenant;
        Hashtbl.replace t.by_digest digest (tenant, version);
        enqueue_build t ~name ~number:1 ~seq ~build;
        `Created)

let update t ~name ~digest ~text ?quota ~now ~build () =
  locked t (fun () ->
      match Hashtbl.find_opt t.tenants name with
      | None -> `Unknown
      | Some tenant ->
        let requota = apply_quota tenant quota in
        let v = newest tenant in
        if v.digest = digest then `Unchanged (v.number, v.state, requota)
        else begin
          let seq = next_seq t in
          let number = add_version t tenant ~digest ~text ~now ~seq in
          enqueue_build t ~name ~number ~seq ~build;
          `Queued number
        end)

(* Recovery: re-register a version recorded in the WAL, with no
   artifact: its first resolver builds it from the retained text, so
   replaying a thousand tenants costs table inserts, not builds. *)
let restore t ~name ~version:number ~digest ~text ?quota ~now () =
  locked t (fun () ->
      let version =
        {
          number;
          digest;
          text;
          published_at = now;
          state = Ready;
          seq = 0;
          artifact = None;
        }
      in
      let tenant =
        match Hashtbl.find_opt t.tenants name with
        | None ->
          let tenant =
            {
              name;
              versions = [ version ];
              active = number;
              quota =
                (match quota with Some q -> max 0 q | None -> t.default_quota);
              sessions_active = 0;
              sessions_created = 0;
              submitted = 0;
            }
          in
          Hashtbl.replace t.tenants name tenant;
          tenant
        | Some tenant ->
          ignore (apply_quota tenant quota);
          tenant.versions <-
            version :: List.filter (fun v -> v.number <> number) tenant.versions;
          if number > tenant.active then tenant.active <- number;
          tenant
      in
      Hashtbl.replace t.by_digest digest (tenant, version))

(* --- Resolution -------------------------------------------------------------- *)

type 'a resolved = {
  res_version : int;
  res_digest : string;
  res_artifact : 'a;
}

(* Under the mutex: the artifact of [version], a ready version of
   [tenant]. One it holds is shared; else (a restored version) it is
   built from the text with the lock released, and kept if the version
   is still active and holds none yet — when two domains race at first
   touch, the first store wins and both return it. *)
let artifact_of t ~build tenant version =
  match version.artifact with
  | Some artifact -> Ok artifact
  | None ->
    Mutex.unlock t.mutex;
    let result =
      match build version.text with
      | result -> result
      | exception exn -> Error (Printexc.to_string exn)
    in
    Mutex.lock t.mutex;
    Result.map
      (fun built ->
        match version.artifact with
        | Some first -> first
        | None ->
          if version.number = tenant.active then version.artifact <- Some built;
          built)
      result

(* The active version for a new session, and its artifact. Waits,
   running queued builds, while that version is still building — only a
   tenant's *first* version can be active and unbuilt (updates leave the
   previous version active until the swap), so this wait is the
   publish/new_session handshake, not a steady-state stall. *)
let resolve t ~build name =
  locked t (fun () ->
      match Hashtbl.find_opt t.tenants name with
      | None -> `Unknown
      | Some tenant -> (
        help t (fun () ->
            match find_version tenant tenant.active with
            | Some { state = Building; _ } -> false
            | _ -> true);
        match find_version tenant tenant.active with
        | None -> `Unknown
        | Some { number; state = Failed m; _ } -> `Failed (number, m)
        | Some version -> (
          match artifact_of t ~build tenant version with
          | Ok artifact ->
            `Ready
              {
                res_version = version.number;
                res_digest = version.digest;
                res_artifact = artifact;
              }
          | Error m -> `Failed (version.number, m))))

(* Wait, running queued builds, until the tenant's newest version has
   settled (ready or failed): the deploy-script barrier behind the wire
   method [tenant {"name":N,"wait":true}]. Every build queued before it
   must have settled too, so what the barrier lets a script see does not
   depend on which domain ran which build. *)
let await t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.tenants name with
      | None -> ()
      | Some tenant ->
        help t (fun () -> t.settled_upto >= (newest tenant).seq))

(* The artifact of the version with this digest while it is active —
   built here if it was restored and never resolved; [None] for a
   superseded version, which holds none: the caller serves its session
   from {!text_of_digest}. *)
let artifact_of_digest t ~build digest =
  locked t (fun () ->
      match Hashtbl.find_opt t.by_digest digest with
      | Some (tenant, version)
        when version.state = Ready && version.number = tenant.active ->
        Result.to_option (artifact_of t ~build tenant version)
      | Some _ | None -> None)

let text_of_digest t digest =
  locked t (fun () ->
      Option.map (fun (_, version) -> version.text)
        (Hashtbl.find_opt t.by_digest digest))

(* --- Quotas and per-tenant counters ------------------------------------------ *)

let try_admit t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.tenants name with
      | None -> `Ok  (* unknown tenants fail resolution, not admission *)
      | Some tenant ->
        if tenant.quota > 0 && tenant.sessions_active >= tenant.quota then
          `Over tenant.quota
        else begin
          tenant.sessions_active <- tenant.sessions_active + 1;
          tenant.sessions_created <- tenant.sessions_created + 1;
          `Ok
        end)

(* Replayed sessions bypass the quota: they were admitted when first
   created, and recovery must rebuild that state verbatim. *)
let note_restored t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.tenants name with
      | None -> ()
      | Some tenant ->
        tenant.sessions_active <- tenant.sessions_active + 1;
        tenant.sessions_created <- tenant.sessions_created + 1)

let release t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.tenants name with
      | None -> ()
      | Some tenant ->
        if tenant.sessions_active > 0 then
          tenant.sessions_active <- tenant.sessions_active - 1)

let note_submitted t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.tenants name with
      | None -> ()
      | Some tenant -> tenant.submitted <- tenant.submitted + 1)

(* --- Introspection ------------------------------------------------------------ *)

type info = {
  info_name : string;
  versions : int;
  active : int;
  digest : string;  (* of the active version *)
  state : build_state;  (* of the newest version — "ready" means settled *)
  quota : int;
  sessions_active : int;
  sessions_created : int;
  submitted : int;
}

let info t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.tenants name with
      | None -> None
      | Some tenant ->
        let active_digest =
          match find_version tenant tenant.active with
          | Some v -> v.digest
          | None -> ""
        in
        Some
          {
            info_name = tenant.name;
            versions = List.length tenant.versions;
            active = tenant.active;
            digest = active_digest;
            state = (newest tenant).state;
            quota = tenant.quota;
            sessions_active = tenant.sessions_active;
            sessions_created = tenant.sessions_created;
            submitted = tenant.submitted;
          })

let count t = locked t (fun () -> Hashtbl.length t.tenants)

let names t =
  locked t (fun () ->
      Hashtbl.fold (fun name _ acc -> name :: acc) t.tenants []
      |> List.sort String.compare)

let infos t =
  names t |> List.filter_map (fun name -> info t name)

type totals = {
  tenants : int;
  builds : int;
  build_failures : int;
  building : int;
}

let totals t =
  locked t (fun () ->
      {
        tenants = Hashtbl.length t.tenants;
        builds = t.builds;
        build_failures = t.failures;
        building = t.building;
      })
