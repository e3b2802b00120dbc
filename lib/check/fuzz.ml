module Json = Pet_pet.Json
module Spec = Pet_rules.Spec
module Exposure = Pet_rules.Exposure
module Engine = Pet_rules.Engine
module Total = Pet_valuation.Total
module Partial = Pet_valuation.Partial
module Generate = Pet_rules.Generate
module Service = Pet_server.Service
module Registry = Pet_server.Registry
module Proto = Pet_server.Proto
module Persist = Pet_server.Persist
module Code = Pet_compile.Code
module Store = Pet_store.Store
module Segment = Pet_store.Segment
module Corpus = Pet_corpus.Corpus
module Audit = Pet_audit.Audit

(* --- The core: the summary, the violation log, the feed, recovery ---------- *)

type kind =
  | Crash
  | Invalid_response
  | Cursor_mismatch
  | Boundary_failure
  | Swap_mismatch
  | Violation

type violation = { kind : kind; what : string; detail : string }
type mode = Protocol | Store | Corpus | Consent

type summary = {
  mode : mode;
  requests : int;
  ok : int;
  errors : int;
  by_code : (string * int) list;
  tallies : (string * int) list;
  violations : violation list;
}

(* A run's summary so far; violations stay newest first until
   [finish]. *)
let start mode =
  ref
    {
      mode;
      requests = 0;
      ok = 0;
      errors = 0;
      by_code = [];
      tallies = [];
      violations = [];
    }

let finish log = { !log with violations = List.rev !log.violations }

(* Add [by] to [key] in a histogram kept sorted by key. *)
let rec bump ?(by = 1) key = function
  | (k, n) :: rest when k = key -> (k, n + by) :: rest
  | ((k, _) as kn) :: rest when k < key -> kn :: bump ~by key rest
  | histogram -> (key, by) :: histogram

let add ?by log name = log := { !log with tallies = bump ?by name !log.tallies }

let violate ?(kind = Violation) log what detail =
  log := { !log with violations = { kind; what; detail } :: !log.violations }

let truncate_for_display line =
  if String.length line <= 120 then line else String.sub line 0 120 ^ "…"

let envelope ~id method_ params =
  Json.to_string
    (Json.Obj
       [
         ("pet", Json.Int Proto.version);
         ("id", Json.Int id);
         ("method", Json.String method_);
         ("params", Json.Obj params);
       ])

(* Envelopes with ids 1, 2, 3, … *)
let numbered () =
  let next = ref 0 in
  fun method_ params ->
    incr next;
    envelope ~id:!next method_ params

(* Every reply is classified exactly once. A crash, or a reply that is
   not an envelope carrying exactly one of "ok" and "error", goes to the
   violation log here, so no mode can forget to check for it. *)
type reply =
  | Payload of string * Json.t  (* the response and its "ok" payload *)
  | Code of string  (* a structured error's code *)
  | Invalid
  | Raised

let feed log service line =
  log := { !log with requests = !log.requests + 1 };
  let on () = "on: " ^ truncate_for_display line in
  match Service.handle_line service line with
  | exception exn ->
    violate ~kind:Crash log (Printexc.to_string exn) (on ());
    Raised
  | response -> (
    let invalid () =
      violate ~kind:Invalid_response log (truncate_for_display response) (on ());
      Invalid
    in
    match Json.parse response with
    | Ok (Json.Obj _ as o) -> (
      match (Json.member "ok" o, Json.member "error" o) with
      | Some payload, None ->
        log := { !log with ok = !log.ok + 1 };
        Payload (response, payload)
      | None, Some e ->
        let code =
          Option.value ~default:"<uncoded>"
            (Option.bind (Json.member "code" e) Json.string_opt)
        in
        log :=
          { !log with errors = !log.errors + 1; by_code = bump code !log.by_code };
        Code code
      | _ -> invalid ())
    | Ok _ | Error _ -> invalid ())

(* A string field of an ok reply's payload. *)
let field key = function
  | Payload (_, payload) -> Option.bind (Json.member key payload) Json.string_opt
  | Code _ | Invalid | Raised -> None

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun entry -> remove_tree (Filename.concat path entry))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* [count] rounds, each on a fresh store in its own directory under one
   scratch root, removed however the run ends. [segment_bytes] is drawn
   per round. *)
let rounds log name ~count ~segment_bytes round =
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pet_fuzz_%s_%d" name (Unix.getpid ()))
  in
  remove_tree root;
  Unix.mkdir root 0o755;
  Fun.protect ~finally:(fun () -> remove_tree root) @@ fun () ->
  for i = 0 to count - 1 do
    let dir = Filename.concat root (Printf.sprintf "log%d" i) in
    match Store.open_dir ~segment_bytes:(segment_bytes ()) ~fsync:false dir with
    | Error m -> violate log "open_dir on a fresh directory failed" m
    | Ok (store, _) -> round i dir store
  done

(* A log's segment files, in order. The last is the active segment: the
   one a crash tears. *)
let segments dir =
  List.map (fun (_, file) -> Filename.concat dir file) (Segment.list dir "wal")

let last_segment dir = List.hd (List.rev (segments dir))

(* Restart on [dir] the way a server does after a crash: open it
   (cutting a torn tail) and replay what survived into a fresh durable
   service. Returns the open store, the recovery, the service and the
   replay's structured errors, which each mode judges. *)
let recover log ~now dir =
  match Store.open_dir ~fsync:false dir with
  | exception e ->
    violate log "recovery raised" (Printexc.to_string e);
    None
  | Error m ->
    violate log "recovery failed" m;
    None
  | Ok (store, recovery) ->
    let service =
      Service.create ~durable:true ~resolve:(fun _ -> None) ~now ()
    in
    let errors =
      match Pet_net.Recovery.replay [| service |] recovery.Store.events with
      | outcome -> outcome.Pet_net.Recovery.errors
      | exception e ->
        violate log "replay raised" (Printexc.to_string e);
        []
    in
    Some (store, recovery, service, errors)

let kind_name = function
  | Crash -> "crash"
  | Invalid_response -> "invalid response"
  | Cursor_mismatch -> "cursor mismatch"
  | Boundary_failure -> "boundary failure"
  | Swap_mismatch -> "swap mismatch"
  | Violation -> "violation"

let count kind s =
  List.length (List.filter (fun v -> v.kind = kind) s.violations)

let tally name s = Option.value ~default:0 (List.assoc_opt name s.tallies)

(* Store mode tallies each mutation under its kind. *)
let mutation_kinds = [ "bitflip"; "noop"; "splice"; "truncate"; "zero" ]

let passed s =
  s.violations = []
  &&
  match s.mode with
  | Corpus -> tally "build failures" s > 0
  | Consent -> tally "rounds" s = 0 || tally "audits passed" s > 0
  | Protocol | Store -> true

let pp ppf s =
  let n kind = count kind s and t name = tally name s in
  (match s.mode with
  | Protocol ->
    Fmt.pf ppf
      "fuzz: %d requests, %d ok, %d structured errors, %d invalid responses, \
       %d crashes@.fuzz: %d/%d lines fast-decoded, %d cursor mismatches; %d \
       boundary checks, %d failures"
      s.requests s.ok s.errors (n Invalid_response) (n Crash) (t "fast-decoded")
      (t "cursor checked") (n Cursor_mismatch) (t "boundary checks")
      (n Boundary_failure)
  | Store ->
    Fmt.pf ppf
      "fuzz-store: %d mutated logs (%a), %d events recovered, %d damage \
       reports, %d torn tails, %d replay errors, %d violations"
      (t "mutated logs")
      Fmt.(list ~sep:(any ", ") (pair ~sep:(any " ") string int))
      (List.filter (fun (k, _) -> List.mem k mutation_kinds) s.tallies)
      (t "events recovered") (t "damage reports") (t "torn tails")
      (t "replay errors") (List.length s.violations)
  | Corpus ->
    Fmt.pf ppf
      "fuzz-corpus: %d requests over %d tenants, %d ok, %d structured \
       errors, %d invalid responses, %d crashes@.fuzz-corpus: %d updates, %d \
       build failures, %d swap checks, %d mismatches"
      s.requests (t "tenants") s.ok s.errors (n Invalid_response) (n Crash)
      (t "updates") (t "build failures") (t "swap checks") (n Swap_mismatch)
  | Consent ->
    Fmt.pf ppf
      "fuzz-consent: %d rounds, %d requests, %d revokes, %d expiries, %d \
       crash recoveries, %d audits passed, %d injections caught, %d \
       violations"
      (t "rounds") s.requests (t "revokes") (t "expiries")
      (t "crash recoveries") (t "audits passed") (t "injections caught")
      (List.length s.violations));
  List.iter
    (fun v -> Fmt.pf ppf "@.%s: %s@.  %s" (kind_name v.kind) v.what v.detail)
    s.violations

(* --- Protocol fuzzing ---------------------------------------------------------- *)

(* Small generated rule sets so compiled providers are cheap and the
   registry sees several distinct digests (exercising LRU eviction). *)
let spec_config =
  {
    Generate.predicates = 5;
    benefits = 2;
    conjunctions = 2;
    width = 2;
    implications = 1;
  }

(* A small generated rule set's text and its number of predicates. *)
let small_form ~seed =
  let e = Generate.exposure ~config:spec_config ~seed () in
  (Spec.to_string e, Pet_valuation.Universe.size (Exposure.xp e))

let printable = "abcdefghijklmnopqrstuvwxyz0123456789_:{}[]\",\\ &|!()=->\n"

let run ?(seed = 0) ~count () =
  let rng = Random.State.make [| 0xf022; seed; count |] in
  let log = start Protocol in
  let service =
    Service.create ~capacity:4 ~ttl:500. ~resolve:(fun _ -> None)
      ~now:(Pet_obs.Metrics.logical_clock ()) ()
  in
  let corpora =
    List.map
      (fun i ->
        let e = Generate.exposure ~config:spec_config ~seed:(seed + i) () in
        let text = Spec.to_string e in
        (text, Registry.digest text, Array.of_list (Exposure.eligible e)))
      [ 0; 1; 2; 3; 4; 5 ]
  in
  let pick_corpus () =
    List.nth corpora (Random.State.int rng (List.length corpora))
  in
  let junk n =
    String.init
      (Random.State.int rng (max 1 n))
      (fun _ ->
        if Random.State.bool rng then
          printable.[Random.State.int rng (String.length printable)]
        else Char.chr (Random.State.int rng 256))
  in
  let session () = Printf.sprintf "s%d" (Random.State.int rng 24) in
  let valuation () =
    match Random.State.int rng 3 with
    | 0 ->
      (* The right length for the generated universes. *)
      String.init spec_config.Generate.predicates (fun _ ->
          if Random.State.bool rng then '1' else '0')
    | 1 -> junk 8
    | _ ->
      let _, _, eligible = pick_corpus () in
      if Array.length eligible = 0 then junk 5
      else Total.to_string eligible.(Random.State.int rng (Array.length eligible))
  in
  (* The id is drawn after the params; the draw order is the stream. *)
  let envelope method_ params =
    envelope ~id:(Random.State.int rng 1000) method_ params
  in
  let rules_params () =
    match Random.State.int rng 4 with
    | 0 ->
      let text, _, _ = pick_corpus () in
      [ ("rules", Json.String text) ]
    | 1 ->
      let _, digest, _ = pick_corpus () in
      [ ("digest", Json.String digest) ]
    | 2 -> [ ("source", Json.String (junk 6)) ]
    | _ -> [ ("rules", Json.String (junk 60)) ]
  in
  let base_line () =
    match Random.State.int rng 10 with
    | 0 -> envelope "publish_rules" (rules_params ())
    | 1 -> envelope "new_session" (rules_params ())
    | 2 ->
      envelope "get_report"
        [
          ("session", Json.String (session ()));
          ("valuation", Json.String (valuation ()));
        ]
    | 3 ->
      envelope "choose_option"
        (("session", Json.String (session ()))
        ::
        (if Random.State.bool rng then
           [ ("option", Json.Int (Random.State.int rng 12 - 3)) ]
         else [ ("mas", Json.String (junk 6)) ]))
    | 4 -> envelope "submit_form" [ ("session", Json.String (session ())) ]
    | 5 -> envelope "audit" (rules_params ())
    | 6 -> envelope "stats" []
    | 7 -> envelope (junk 10) [ (junk 4, Json.String (junk 4)) ]
    | 8 ->
      (* Wrong or missing envelope versions and shapes. *)
      (match Random.State.int rng 4 with
      | 0 -> {|{"pet":99,"method":"stats"}|}
      | 1 -> {|{"method":"stats"}|}
      | 2 -> {|[1,2,3]|}
      | _ -> {|{"pet":"one","method":"stats","params":7}|})
    | _ -> junk 80
  in
  (* Expensive lines built once and replayed. *)
  let oversized = String.make (Proto.max_line_bytes + 1) 'x' in
  let deep = String.concat "" (List.init 600 (fun _ -> "[")) in
  let mutate line =
    match Random.State.int rng 12 with
    | 0 when String.length line > 1 ->
      String.sub line 0 (Random.State.int rng (String.length line))
    | 1 ->
      String.mapi
        (fun _ c ->
          if Random.State.int rng 20 = 0 then Char.chr (Random.State.int rng 256)
          else c)
        line
    | 2 ->
      let i = Random.State.int rng (String.length line + 1) in
      String.sub line 0 i ^ junk 12
      ^ String.sub line i (String.length line - i)
    | 3 -> line ^ line
    | 4 -> deep
    | 5 when Random.State.int rng 50 = 0 -> oversized
    | _ -> line
  in
  (* Every fuzzed line also checks the zero-allocation cursor decoder's
     soundness contract: [decode_fast line = Some env] must imply
     [decode line = Ok env], structurally. [None] is always fine — the
     service falls back to the full decoder. *)
  let check_cursor line =
    add log "cursor checked";
    let mismatch why =
      violate ~kind:Cursor_mismatch log why ("on: " ^ truncate_for_display line)
    in
    match Proto.decode_fast line with
    | None -> ()
    | exception exn -> mismatch ("decode_fast raised " ^ Printexc.to_string exn)
    | Some fast -> (
      add log "fast-decoded";
      match Proto.decode line with
      | Ok full when full = fast -> ()
      | Ok _ -> mismatch "fast and full decodes disagree"
      | Error (_, _, err) ->
        mismatch
          (Printf.sprintf
             "fast decode accepts what the full decoder rejects (%s: %s)"
             (Proto.code_name err.Proto.code) err.Proto.message))
  in
  let feed line =
    check_cursor line;
    ignore (feed log service line)
  in
  (* Seed real state so mutated requests land on live sessions too. *)
  let text, digest, eligible = pick_corpus () in
  feed (envelope "publish_rules" [ ("rules", Json.String text) ]);
  feed (envelope "new_session" [ ("digest", Json.String digest) ]);
  if Array.length eligible > 0 then
    feed
      (envelope "get_report"
         [
           ("session", Json.String "s0");
           ("valuation", Json.String (Total.to_string eligible.(0)));
         ]);
  while !log.requests < count do
    feed (mutate (base_line ()))
  done;
  (* The compiled backend tabulates forms up to
     [Code.max_tabulated_predicates] and silently switches to its BDD
     fallback above, so fuzz exposures on both sides of that line —
     including >20 predicates, far beyond anything the enumeration-based
     helpers can touch. Each generated form is checked compiled-vs-SAT
     (an independent implementation that scales) on random partial
     valuations; [Exposure.realistic] is useless here because it
     enumerates all 2^n totals. *)
  let tab = Code.max_tabulated_predicates in
  let boundary_sizes = [ tab - 1; tab; tab + 1; tab + 5 ] in
  let per_size = max 1 (count / 1000) in
  List.iter
    (fun n ->
      let config =
        {
          Generate.predicates = n;
          benefits = 3;
          conjunctions = 3;
          width = 3;
          implications = 2;
        }
      in
      for round = 0 to per_size - 1 do
        let form_seed = seed + (n * 1000) + round in
        let e = Generate.exposure ~config ~seed:form_seed () in
        let compiled = Engine.create ~backend:Engine.Compiled e in
        let sat = Engine.create ~backend:Engine.Sat e in
        let xp = Exposure.xp e in
        for _ = 0 to 15 do
          let dom = Random.State.int rng (1 lsl n) in
          let bits = Random.State.int rng (1 lsl n) land dom in
          let w = Partial.of_masks xp ~dom ~bits in
          add log "boundary checks";
          let fail what =
            violate ~kind:Boundary_failure log
              (Printf.sprintf "compiled vs sat diverge on %s of %s" what
                 (Partial.to_string w))
              (Printf.sprintf "%d predicates, form seed %d" n form_seed)
          in
          if Engine.consistent compiled w <> Engine.consistent sat w then
            fail "consistent";
          if Engine.benefits compiled w <> Engine.benefits sat w then
            fail "benefits";
          if Engine.deduced_literals compiled w <> Engine.deduced_literals sat w
          then fail "deduced_literals"
        done
      done)
    boundary_sizes;
  finish log

(* --- Store fuzzing -------------------------------------------------------------- *)

(* A deterministic event stream over generated rule sets: rule
   registrations, session lifecycles and sequential grants — the same
   shapes a durable service writes, without compiling any engine. *)
let generate_events rng ~seed =
  let text, predicates = small_form ~seed in
  let digest = Registry.digest text in
  let events = ref [ Persist.Rules { digest; text } ] in
  let grants = ref 0 in
  let sessions = 3 + Random.State.int rng 6 in
  for i = 0 to sessions - 1 do
    let id = Printf.sprintf "s%d" i in
    let at = float_of_int (i * 10) in
    events :=
      Persist.Session_created { id; digest; tenant = None; at } :: !events;
    if Random.State.int rng 4 > 0 then begin
      let mas = String.init predicates (fun _ -> "01_".[Random.State.int rng 3]) in
      let benefits = [ Printf.sprintf "b%d" (1 + Random.State.int rng 2) ] in
      events :=
        Persist.Session_chosen { id; mas; benefits; at = at +. 1. } :: !events;
      if Random.State.bool rng then begin
        let grant_id = !grants in
        incr grants;
        events :=
          Persist.Session_submitted { id; grant_id; at = at +. 2. }
          :: Persist.Grant
               {
                 digest;
                 grant_id;
                 form = mas;
                 benefits;
                 session = Some id;
                 tenant = None;
                 revoked = false;
               }
          :: !events
      end
    end
  done;
  List.rev !events

let encode event = Json.to_string (Persist.to_json event)

let run_store ?(seed = 0) ~count () =
  let rng = Random.State.make [| 0x570e; seed; count |] in
  let log = start Store in
  let violate = violate log in
  let round i dir store =
    let events = generate_events rng ~seed:(seed + i) in
    List.iter (Store.append store) events;
    Store.close store;
    let pristine = List.map encode events in
    let files = segments dir in
    let mutation = Random.State.int rng 4 in
    (* Truncation models a crash, and crashes only ever tear the
       *active* (last) segment — sealed segments are fsynced before
       a record in a later one is acknowledged. Bit rot (flips,
       zeroed ranges, splices) can land anywhere. *)
    let path =
      if mutation = 1 then last_segment dir
      else List.nth files (Random.State.int rng (List.length files))
    in
    let bytes = Segment.read_file path in
    let size = String.length bytes in
    let overwrite f =
      let b = Bytes.of_string bytes in
      f b;
      Bytes.to_string b
    in
    let what, mutated =
      if size = 0 then ("noop", bytes)
      else
        match mutation with
        | 0 ->
          ( "bitflip",
            overwrite (fun b ->
                for _ = 0 to Random.State.int rng 4 do
                  let at = Random.State.int rng size in
                  Bytes.set b at
                    (Char.chr
                       (Char.code (Bytes.get b at)
                       lxor (1 lsl Random.State.int rng 8)))
                done) )
        | 1 -> ("truncate", String.sub bytes 0 (Random.State.int rng size))
        | 2 ->
          ( "zero",
            overwrite (fun b ->
                let at = Random.State.int rng size in
                let len = min (size - at) (1 + Random.State.int rng 16) in
                Bytes.fill b at len '\000') )
        | _ ->
          let at = Random.State.int rng (size + 1) in
          let injected =
            String.init
              (1 + Random.State.int rng 24)
              (fun _ -> Char.chr (Random.State.int rng 256))
          in
          ( "splice",
            String.sub bytes 0 at ^ injected ^ String.sub bytes at (size - at) )
    in
    (* [prefix_expected]: the recovered stream must be a prefix of what
       was written (false for splices, which can shift valid records
       into new positions). [detectable]: the mutation destroys at
       least one whole record in a way the framing can see, so any
       event loss must be reported — false for no-ops and for
       truncation exactly on a record boundary (the cut file's walk
       ends cleanly), which is indistinguishable from a log that
       simply ends there. *)
    let prefix_expected = what <> "splice" in
    let detectable =
      prefix_expected && mutated <> bytes
      && not (what = "truncate" && Segment.walk mutated (fun _ _ -> ()) = Segment.End)
    in
    add log what;
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc mutated);
    (* Scanned before recovery cuts a torn tail, so every fault the
       bytes hold is listed. *)
    let scan =
      match Store.scan dir with
      | exception e -> Error ("scan raised " ^ Printexc.to_string e)
      | scan -> scan
    in
    (* Invariant 1: recovery never raises, whatever the bytes, and
       the survivors replay into a service without raising
       (structured replay errors are possible for spliced logs,
       e.g. a duplicated grant record, and counted). *)
    match recover log ~now:(fun () -> 0.) dir with
    | None -> ()
    | Some (store, r, _, errors) -> (
      add log "events recovered" ~by:(List.length r.Store.events);
      add log "damage reports" ~by:(List.length r.Store.damage);
      if r.Store.truncated <> None then add log "torn tails";
      add log "replay errors" ~by:(List.length errors);
      (* Invariant 2: for in-place mutations the clean prefix is a
         prefix of what was written (splices can legitimately decode
         shifted-but-valid records, so they only get invariants 1
         and 3). *)
      if prefix_expected then
        List.iteri
          (fun j event ->
            if List.nth_opt pristine j <> Some (encode event) then
              violate "recovered stream is not a prefix"
                (Printf.sprintf "log %d, event %d differs" i j))
          r.Store.events;
      (* Invariant 3: losses are localized — fewer events than written
         means verify names damage or a torn tail, with an offset
         inside the file. *)
      (if List.length r.Store.events < List.length pristine then
         match scan with
         | Error m -> violate "scan failed" m
         | Ok reports ->
           let faults = List.concat_map (fun f -> f.Store.damage) reports in
           if detectable && faults = [] && r.Store.truncated = None then
             violate "silent loss"
               (Printf.sprintf
                  "log %d: recovered %d of %d events, no damage reported" i
                  (List.length r.Store.events)
                  (List.length pristine));
           List.iter
             (fun (f : Store.file_report) ->
               List.iter
                 (fun (d : Store.damage) ->
                   if d.offset < 0 || d.offset > f.bytes then
                     violate "damage offset out of bounds"
                       (Printf.sprintf "%s: %d (file is %d bytes)" d.file
                          d.offset f.bytes))
                 f.damage)
             reports);
      (* Invariant 4: the directory stays writable — the recovered
         store appends, and the appended record recovers. *)
      let marker =
        Persist.Rules
          { digest = Printf.sprintf "marker%d" i; text = "marker" }
      in
      Store.append store marker;
      Store.close store;
      match Store.read dir with
      | Error m -> violate "read-after-append failed" m
      | Ok r' ->
        (* Mid-chain corruption still stops replay before the fresh
           segment holding the marker; the marker must be there
           whenever replay reaches the end of the chain. A chain that
           recovered without damage must read back without damage: a
           torn tail that recovery failed to cut is damage once a
           segment follows it. *)
        let recovered = List.map encode r'.Store.events in
        if r'.Store.damage = [] && not (List.mem (encode marker) recovered)
        then
          violate "append after recovery lost"
            (Printf.sprintf "log %d: marker not recovered" i)
        else if r.Store.damage = [] && r'.Store.damage <> [] then
          violate "recovery left damage behind"
            (Printf.sprintf "log %d: %s" i
               (List.hd r'.Store.damage).Store.reason))
  in
  (* Small segments so mutations regularly land on later segments and
     on segment boundaries. *)
  rounds log "store" ~count
    ~segment_bytes:(fun () -> 256 + Random.State.int rng 512)
    round;
  add log "mutated logs" ~by:count;
  finish log

(* --- Corpus fuzzing ------------------------------------------------------------- *)

let run_corpus ?(seed = 0) ~count () =
  let rng = Random.State.make [| 0xc09a; seed; count |] in
  let log = start Corpus in
  let service =
    (* A deliberately small engine cache: nine tenants across revisions
       overflow six slots, so pinned sessions regularly lose their
       engine to LRU eviction and must survive the tenant-text
       recompile fallback. *)
    Service.create ~capacity:6 ~ttl:5000. ~resolve:(fun _ -> None)
      ~now:(Pet_obs.Metrics.logical_clock ()) ()
  in
  (* Small servable forms plus one deliberately oversized tenant whose
     build must fail. Build cost no longer bounds the sizes: size-14
     corpus forms build in tens of milliseconds. The 8-12 range stays
     because it seeds the scenario; moving it would move every draw and
     change every recorded summary. *)
  let scenario = Corpus.scenario ~seed ~lo:8 ~hi:12 ~count:8 () in
  let oversize = Corpus.form ~seed ~size:30 99 in
  let forms = Array.map ref scenario.Corpus.forms in
  let envelope = numbered () in
  let feed line = feed log service line in
  let send method_ params = ignore (feed (envelope method_ params)) in
  let publish ?quota name text =
    send "publish_rules"
      (("rules", Json.String text)
      :: ("tenant", Json.String name)
      :: (match quota with None -> [] | Some q -> [ ("quota", Json.Int q) ]))
  in
  let update name text =
    send "update_rules"
      [ ("tenant", Json.String name); ("rules", Json.String text) ]
  in
  (* Wait a tenant's build out; whether it served. *)
  let settled name =
    let wait = [ ("name", Json.String name); ("wait", Json.Bool true) ] in
    let failed = field "state" (feed (envelope "tenant" wait)) = Some "failed" in
    if failed then add log "build failures";
    not failed
  in
  (* Publish the whole corpus up front, then wait each build out.
     Tenants 4.. get a small quota so quota refusals happen live. *)
  Array.iteri
    (fun i f ->
      let quota = if i >= 4 then Some 3 else None in
      publish ?quota !f.Corpus.name !f.Corpus.text)
    forms;
  publish oversize.Corpus.name oversize.Corpus.text;
  Array.iter (fun f -> ignore (settled !f.Corpus.name)) forms;
  ignore (settled oversize.Corpus.name);
  (* Sessions that reported successfully, pinned to the tenant version
     they opened under: (tenant index, report line, report response). *)
  let pinned = ref [] in
  let junk n =
    String.init
      (1 + Random.State.int rng n)
      (fun _ -> printable.[Random.State.int rng (String.length printable)])
  in
  let open_and_report i =
    let f = !(forms.(i)) in
    match
      field "session"
        (feed (envelope "new_session" [ ("tenant", Json.String f.Corpus.name) ]))
    with
    | None -> ()
    | Some sid -> (
      let v = Corpus.valuation ~seed:(Random.State.int rng 10000) f 0 in
      let line =
        envelope "get_report"
          [ ("session", Json.String sid); ("valuation", Json.String v) ]
      in
      match feed line with
      | Payload (report, _) ->
        pinned :=
          List.filteri (fun j _ -> j < 8) ((i, sid, line, report) :: !pinned)
      | Code _ | Invalid | Raised -> ())
  in
  (* The hot-swap invariant: a session opened under version [v] keeps
     answering under [v]'s rules after any number of updates, so
     replaying its exact report line must return byte-identical
     bytes (same request id, same pinned engine). The replay goes
     through the feed like any request. *)
  let swap_check () =
    List.iter
      (fun (i, _sid, line, before) ->
        add log "swap checks";
        match feed line with
        | Payload (after, _) when after = before -> ()
        | Raised -> ()
        | Payload _ | Code _ | Invalid ->
          violate ~kind:Swap_mismatch log
            (Printf.sprintf
               "pinned session on tenant %s answered differently after a \
                version swap"
               !(forms.(i)).Corpus.name)
            ("on: " ^ truncate_for_display line))
      !pinned
  in
  while !log.requests < count do
    let i = Corpus.pick rng scenario.Corpus.popularity in
    match Random.State.int rng 10 with
    | 0 | 1 | 2 | 3 -> open_and_report i
    | 4 | 5 -> (
      (* Hot rule migration on a live tenant, then verify every pinned
         session still answers byte-identically. *)
      let f = Corpus.update !(forms.(i)) in
      forms.(i) := f;
      update f.Corpus.name f.Corpus.text;
      add log "updates";
      if settled f.Corpus.name then swap_check ())
    | 6 -> (
      (* Retire a pinned session through choose/submit. *)
      match !pinned with
      | [] -> ()
      | (_, sid, _, _) :: rest ->
        pinned := rest;
        send "choose_option"
          [ ("session", Json.String sid); ("option", Json.Int 0) ];
        send "submit_form" [ ("session", Json.String sid) ])
    | 7 ->
      (* The tenant that can never serve: build_failed on every open. *)
      send "new_session" [ ("tenant", Json.String oversize.Corpus.name) ]
    | 8 ->
      (* Hostile tenant traffic: unknown names, junk updates, republish
         conflicts. *)
      let f = !(forms.(i)) in
      let neighbour = !(forms.((i + 1) mod Array.length forms)) in
      (match Random.State.int rng 4 with
      | 0 -> send "new_session" [ ("tenant", Json.String (junk 12)) ]
      | 1 -> update (junk 12) f.Corpus.text
      | 2 -> publish neighbour.Corpus.name f.Corpus.text
      | _ -> update f.Corpus.name (junk 60))
    | _ ->
      (* Byte-mutated tenant requests must still draw structured
         envelopes. *)
      let line =
        envelope "tenant" [ ("name", Json.String !(forms.(i)).Corpus.name) ]
      in
      let b = Bytes.of_string line in
      for _ = 0 to Random.State.int rng 4 do
        let at = Random.State.int rng (Bytes.length b) in
        Bytes.set b at printable.[Random.State.int rng (String.length printable)]
      done;
      ignore (feed (Bytes.to_string b))
  done;
  send "stats" [];
  add ~by:(Array.length forms + 1) log "tenants";
  finish log

(* --- Consent-lifecycle fuzzing --------------------------------------------------- *)

let run_consent ?(seed = 0) ~count () =
  let rng = Random.State.make [| 0xc015; seed; count |] in
  let log = start Consent in
  let violate = violate log in
  let tally ?by name = add ?by log name in
  let tick = ref 0. in
  let now () =
    tick := !tick +. 1.;
    !tick
  in
  let envelope = numbered () in
  let call service method_ params = feed log service (envelope method_ params) in
  let ok = function Payload _ -> true | Code _ | Invalid | Raised -> false in
  (* A lifecycle request on session [sid]. *)
  let on service sid method_ params =
    call service method_ (("session", Json.String sid) :: params)
  in
  let audit_passes what dir =
    match Audit.run dir with
    | Error m -> violate (Printf.sprintf "audit on %s log failed" what) m
    | Ok report ->
      if Audit.pass report then tally "audits passed"
      else
        violate
          (Printf.sprintf "%s log failed its audit" what)
          (Json.to_string (Audit.to_json report))
  in
  let round i dir store =
    let service =
      Service.create ~durable:true ~resolve:(fun _ -> None) ~now ()
    in
    Service.set_sink service (Store.sink store);
    let text, predicates = small_form ~seed:(seed + i) in
    ignore (call service "publish_rules" [ ("rules", Json.String text) ]);
    (* Run a handful of full lifecycles, then revoke or expire some
       of the submitted sessions. *)
    let submitted = ref [] in
    let sessions = 3 + Random.State.int rng 5 in
    for _ = 1 to sessions do
      let reply = call service "new_session" [ ("rules", Json.String text) ] in
      match field "session" reply with
      | None ->
        if ok reply then violate "new_session without id" "no session field"
      | Some sid ->
        let v =
          String.init predicates (fun _ ->
              if Random.State.bool rng then '1' else '0')
        in
        (* Ineligible valuations are refused; that is expected. *)
        if
          ok (on service sid "get_report" [ ("valuation", Json.String v) ])
          && ok (on service sid "choose_option" [ ("option", Json.Int 0) ])
          && ok (on service sid "submit_form" [])
        then submitted := sid :: !submitted
    done;
    List.iter
      (fun sid ->
        match Random.State.int rng 10 with
        | 0 | 1 | 2 | 3 ->
          if on service sid "revoke" [] <> Raised then tally "revokes"
        | 4 | 5 | 6 ->
          let after = float_of_int (1 + Random.State.int rng 20) in
          if on service sid "expire" [ ("after", Json.Float after) ] <> Raised
          then tally "expiries"
        | _ -> ())
      !submitted;
    (* Let the clock run past the armed horizons: every request ticks
       it and runs a sweep step. *)
    for _ = 1 to 30 do
      ignore (call service "stats" [])
    done;
    (* kill -9: no graceful shutdown, then tear the active segment at
       a random byte — sometimes mid-record, sometimes a no-op. *)
    Store.close store;
    audit_passes "healthy" dir;
    let path = last_segment dir in
    let size = (Unix.stat path).Unix.st_size in
    if size > 0 then
      Unix.truncate path (size - Random.State.int rng (min size 64));
    (* The audit and verify tolerate the torn tail exactly like
       recovery does: a note, never a violation. *)
    audit_passes "torn" dir;
    (match Store.scan dir with
    | Error m -> violate "scan on torn log failed" m
    | Ok reports -> (
      match List.concat_map (fun (r : Store.file_report) -> r.damage) reports with
      | [] -> ()
      | d :: _ ->
        violate "torn log failed verify"
          (Printf.sprintf "log %d: %s at byte %d: %s" i d.file d.offset d.reason)));
    (* Recover into a fresh service: replay must not raise, passed
       horizons apply, and whatever revocations and expiries survived
       the tear must still refuse a second lifecycle request. *)
    tally "crash recoveries";
    match recover log ~now dir with
    | None -> ()
    | Some (store, recovery, fresh, errors) ->
      List.iter (violate "replay error") errors;
      Service.set_sink fresh (Store.sink store);
      let events = recovery.Store.events in
      let revoked_ids =
        List.filter_map
          (function
            | Persist.Session_revoked { id; _ } -> Some id | _ -> None)
          events
      in
      let expired_ids =
        List.filter_map
          (function
            | Persist.Session_expiry { id; horizon; _ }
              when horizon <= !tick ->
              Some id
            | _ -> None)
          events
      in
      let refused invariant ~was ~accepted sid =
        match on fresh sid "revoke" [] with
        | Code "bad_state" | Invalid | Raised -> ()
        | Code other ->
          violate invariant
            (Printf.sprintf "%s session %S answered %s after recovery"
               was sid other)
        | Payload _ ->
          violate invariant (Printf.sprintf "session %S %s" sid accepted)
      in
      List.iter
        (refused "tombstone resurrected" ~was:"revoked"
           ~accepted:"revoked twice across a crash")
        revoked_ids;
      List.iter
        (fun sid ->
          if not (List.mem sid revoked_ids) then
            refused "horizon not applied" ~was:"expired"
              ~accepted:"revocable after its horizon passed" sid)
        expired_ids;
      (* Injection: forge a grant re-establishing a revoked session,
         appended straight to the log behind the service's back. The
         offline audit must catch it — this is the attack it exists
         for. *)
      let forged =
        match revoked_ids with
        | [] -> None
        | rid :: _ ->
          let grant_id =
            List.fold_left
              (fun acc -> function
                | Persist.Grant g -> max acc (g.grant_id + 1) | _ -> acc)
              0 events
          in
          List.find_map
            (function
              | Persist.Grant g when g.session = Some rid ->
                Some
                  (Persist.Grant
                     { g with grant_id; tenant = None; revoked = false })
              | _ -> None)
            events
      in
      Option.iter (Store.append store) forged;
      Store.close store;
      if Option.is_some forged then
        match Audit.run dir with
        | Error m -> violate "audit on forged log failed" m
        | Ok report ->
          if
            List.exists
              (fun (p : Audit.property) ->
                p.name = "revocation" && p.violations <> [])
              report.Audit.properties
          then tally "injections caught"
          else
            violate "forged grant not caught"
              (Printf.sprintf "log %d: audit passed a post-revocation grant" i)
  in
  rounds log "consent" ~count
    ~segment_bytes:(fun () -> 512 + Random.State.int rng 1024)
    round;
  tally ~by:count "rounds";
  finish log
