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
module Code = Pet_compile.Code

type stats = {
  requests : int;
  ok : int;
  errors : int;
  invalid_responses : int;
  crashes : (string * string) list;
  by_code : (string * int) list;
  cursor_checked : int;
  cursor_fast : int;
  cursor_mismatches : (string * string) list;
  boundary_checks : int;
  boundary_failures : (string * string) list;
}

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

let truncate_for_display line =
  if String.length line <= 120 then line else String.sub line 0 120 ^ "…"

let printable = "abcdefghijklmnopqrstuvwxyz0123456789_:{}[]\",\\ &|!()=->\n"

let run ?(seed = 0) ~count () =
  let rng = Random.State.make [| 0xf022; seed; count |] in
  let tick = ref 0. in
  let service =
    Service.create ~capacity:4 ~ttl:500.
      ~resolve:(fun _ -> None)
      ~now:(fun () -> tick := !tick +. 1.; !tick)
      ()
  in
  let corpora =
    List.map
      (fun i ->
        let e = Generate.exposure ~config:spec_config ~seed:(seed + i) () in
        let text = Spec.to_string e in
        (text, Registry.digest text, Array.of_list (Exposure.eligible e)))
      [ 0; 1; 2; 3; 4; 5 ]
  in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let pick_corpus () = pick corpora in
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
  let envelope method_ params =
    Json.to_string
      (Json.Obj
         [
           ("pet", Json.Int Proto.version);
           ("id", Json.Int (Random.State.int rng 1000));
           ("method", Json.String method_);
           ("params", Json.Obj params);
         ])
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
  let requests = ref 0
  and ok = ref 0
  and errors = ref 0
  and invalid = ref 0
  and crashes = ref []
  and codes = Hashtbl.create 16 in
  let cursor_checked = ref 0
  and cursor_fast = ref 0
  and cursor_mismatches = ref [] in
  (* Every fuzzed line also checks the zero-allocation cursor decoder's
     soundness contract: [decode_fast line = Some env] must imply
     [decode line = Ok env], structurally. [None] is always fine — the
     service falls back to the full decoder. *)
  let check_cursor line =
    incr cursor_checked;
    match Proto.decode_fast line with
    | None -> ()
    | exception exn ->
      cursor_mismatches :=
        ( truncate_for_display line,
          "decode_fast raised " ^ Printexc.to_string exn )
        :: !cursor_mismatches
    | Some fast -> (
      incr cursor_fast;
      match Proto.decode line with
      | Ok full when full = fast -> ()
      | Ok _ ->
        cursor_mismatches :=
          (truncate_for_display line, "fast and full decodes disagree")
          :: !cursor_mismatches
      | Error (_, _, err) ->
        cursor_mismatches :=
          ( truncate_for_display line,
            Printf.sprintf "fast decode accepts what the full decoder \
                            rejects (%s: %s)"
              (Proto.code_name err.Proto.code) err.Proto.message )
          :: !cursor_mismatches)
  in
  let feed line =
    incr requests;
    check_cursor line;
    match Service.handle_line service line with
    | exception exn ->
      crashes := (truncate_for_display line, Printexc.to_string exn) :: !crashes
    | response -> (
      match Json.parse response with
      | Ok (Json.Obj _ as o) -> (
        match (Json.member "ok" o, Json.member "error" o) with
        | Some _, None -> incr ok
        | None, Some e ->
          incr errors;
          let code =
            match Option.bind (Json.member "code" e) Json.string_opt with
            | Some c -> c
            | None -> "<uncoded>"
          in
          Hashtbl.replace codes code
            (1 + Option.value ~default:0 (Hashtbl.find_opt codes code))
        | _ -> incr invalid)
      | Ok _ | Error _ -> incr invalid)
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
  while !requests < count do
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
  let boundary_checks = ref 0
  and boundary_failures = ref [] in
  let tab = Code.max_tabulated_predicates in
  let boundary_sizes = [ tab - 1; tab; tab + 1; tab + 5 ] in
  let rounds = max 1 (count / 1000) in
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
      for round = 0 to rounds - 1 do
        let form_seed = seed + (n * 1000) + round in
        let e = Generate.exposure ~config ~seed:form_seed () in
        let compiled = Engine.create ~backend:Engine.Compiled e in
        let sat = Engine.create ~backend:Engine.Sat e in
        let xp = Exposure.xp e in
        for _ = 0 to 15 do
          let dom = Random.State.int rng (1 lsl n) in
          let bits = Random.State.int rng (1 lsl n) land dom in
          let w = Partial.of_masks xp ~dom ~bits in
          incr boundary_checks;
          let fail what =
            boundary_failures :=
              ( Printf.sprintf "%d predicates, form seed %d" n form_seed,
                Printf.sprintf "compiled vs sat diverge on %s of %s" what
                  (Partial.to_string w) )
              :: !boundary_failures
          in
          if Engine.consistent compiled w <> Engine.consistent sat w then
            fail "consistent";
          if
            not
              (List.equal String.equal
                 (Engine.benefits compiled w)
                 (Engine.benefits sat w))
          then fail "benefits";
          if Engine.deduced_literals compiled w <> Engine.deduced_literals sat w
          then fail "deduced_literals"
        done
      done)
    boundary_sizes;
  {
    requests = !requests;
    ok = !ok;
    errors = !errors;
    invalid_responses = !invalid;
    crashes = List.rev !crashes;
    by_code =
      Hashtbl.fold (fun c n acc -> (c, n) :: acc) codes []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
    cursor_checked = !cursor_checked;
    cursor_fast = !cursor_fast;
    cursor_mismatches = List.rev !cursor_mismatches;
    boundary_checks = !boundary_checks;
    boundary_failures = List.rev !boundary_failures;
  }

let passed s =
  s.crashes = [] && s.invalid_responses = 0 && s.cursor_mismatches = []
  && s.boundary_failures = []

let pp ppf s =
  Fmt.pf ppf
    "fuzz: %d requests, %d ok, %d structured errors, %d invalid responses, \
     %d crashes"
    s.requests s.ok s.errors s.invalid_responses (List.length s.crashes);
  Fmt.pf ppf
    "@.fuzz: %d/%d lines fast-decoded, %d cursor mismatches; %d boundary \
     checks, %d failures"
    s.cursor_fast s.cursor_checked
    (List.length s.cursor_mismatches)
    s.boundary_checks
    (List.length s.boundary_failures);
  List.iter
    (fun (line, exn) -> Fmt.pf ppf "@.crash: %s@.  on: %s" exn line)
    s.crashes;
  List.iter
    (fun (line, why) -> Fmt.pf ppf "@.cursor mismatch: %s@.  on: %s" why line)
    s.cursor_mismatches;
  List.iter
    (fun (where, why) -> Fmt.pf ppf "@.boundary failure: %s@.  %s" why where)
    s.boundary_failures

(* --- Store fuzzing -------------------------------------------------------------- *)

module Persist = Pet_server.Persist
module Store = Pet_store.Store

type store_stats = {
  logs : int;
  mutations : (string * int) list;
  recovered_events : int;
  damage_reports : int;
  torn_tails : int;
  replay_errors : int;
  store_violations : (string * string) list;
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path contents =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc contents)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun entry -> remove_tree (Filename.concat path entry))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* A deterministic event stream over generated rule sets: rule
   registrations, session lifecycles and sequential grants — the same
   shapes a durable service writes, without compiling any engine. *)
let generate_events rng ~seed =
  let exposure = Generate.exposure ~config:spec_config ~seed () in
  let text = Spec.to_string exposure in
  let digest = Pet_server.Registry.digest text in
  let predicates =
    Pet_valuation.Universe.size (Pet_rules.Exposure.xp exposure)
  in
  let events = ref [ Persist.Rules { digest; text } ] in
  let grants = ref 0 in
  let sessions = 3 + Random.State.int rng 6 in
  for i = 0 to sessions - 1 do
    let id = Printf.sprintf "s%d" i in
    let at = float_of_int (i * 10) in
    events :=
      Persist.Session_created { id; digest; tenant = None; at } :: !events;
    if Random.State.int rng 4 > 0 then begin
      let mas =
        String.init predicates (fun _ ->
            match Random.State.int rng 3 with
            | 0 -> '0'
            | 1 -> '1'
            | _ -> '_')
      in
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

let run_store ?(seed = 0) ~count () =
  let rng = Random.State.make [| 0x570e; seed; count |] in
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pet_fuzz_store_%d" (Unix.getpid ()))
  in
  remove_tree root;
  Unix.mkdir root 0o755;
  let mutation_counts = Hashtbl.create 8 in
  let tally kind =
    Hashtbl.replace mutation_counts kind
      (1 + Option.value ~default:0 (Hashtbl.find_opt mutation_counts kind))
  in
  let recovered = ref 0 and damage = ref 0 and torn = ref 0 in
  let replay_errors = ref 0 in
  let violations = ref [] in
  let violate label detail = violations := (label, detail) :: !violations in
  for i = 0 to count - 1 do
    let dir = Filename.concat root (Printf.sprintf "log%d" i) in
    (* Small segments so mutations regularly land on later segments and
       on segment boundaries. *)
    (match
       Store.open_dir ~segment_bytes:(256 + Random.State.int rng 512)
         ~fsync:false dir
     with
    | Error m -> violate "open_dir on a fresh directory failed" m
    | Ok (store, _) ->
      let events = generate_events rng ~seed:(seed + i) in
      List.iter (Store.append store) events;
      Store.close store;
      let pristine = List.map Persist.to_json events in
      let files =
        Sys.readdir dir |> Array.to_list |> List.sort String.compare
      in
      let mutation = Random.State.int rng 4 in
      (* Truncation models a crash, and crashes only ever tear the
         *active* (last) segment — sealed segments are fsynced before a
         record in a later one is acknowledged. Bit rot (flips, zeroed
         ranges, splices) can land anywhere. *)
      let target =
        if mutation = 1 then List.nth files (List.length files - 1)
        else List.nth files (Random.State.int rng (List.length files))
      in
      let path = Filename.concat dir target in
      let bytes = read_file path in
      let size = String.length bytes in
      let boundaries =
        let t = Hashtbl.create 16 in
        let rec collect offset =
          Hashtbl.replace t offset ();
          match Pet_store.Record.read bytes offset with
          | Pet_store.Record.Record { next; _ } -> collect next
          | _ -> ()
        in
        collect 0;
        t
      in
      (* One mutation per log. [prefix_expected]: the recovered stream
         must be a prefix of what was written (false for splices, which
         can shift valid records into new positions). [detectable]: the
         mutation destroys at least one whole record in a way the
         framing can see, so any event loss must be reported — false
         for no-ops and for truncation exactly on a record boundary,
         which is indistinguishable from a log that simply ends
         there. *)
      let prefix_expected, detectable =
        if size = 0 then begin
          tally "noop";
          (true, false)
        end
        else
          match mutation with
          | 0 ->
            tally "bitflip";
            let b = Bytes.of_string bytes in
            for _ = 0 to Random.State.int rng 4 do
              let at = Random.State.int rng size in
              Bytes.set b at
                (Char.chr
                   (Char.code (Bytes.get b at) lxor (1 lsl Random.State.int rng 8)))
            done;
            write_file path (Bytes.to_string b);
            (true, Bytes.to_string b <> bytes)
          | 1 ->
            tally "truncate";
            let cut = Random.State.int rng size in
            write_file path (String.sub bytes 0 cut);
            (true, not (Hashtbl.mem boundaries cut))
          | 2 ->
            tally "zero";
            let b = Bytes.of_string bytes in
            let at = Random.State.int rng size in
            let len = min (size - at) (1 + Random.State.int rng 16) in
            Bytes.fill b at len '\000';
            write_file path (Bytes.to_string b);
            (true, Bytes.to_string b <> bytes)
          | _ ->
            tally "splice";
            let at = Random.State.int rng (size + 1) in
            let injected =
              String.init
                (1 + Random.State.int rng 24)
                (fun _ -> Char.chr (Random.State.int rng 256))
            in
            write_file path
              (String.sub bytes 0 at ^ injected
              ^ String.sub bytes at (size - at));
            (false, false)
      in
      (* Invariant 1: recovery never raises, whatever the bytes. *)
      (match Store.read dir with
      | exception e ->
        violate "recovery raised"
          (Printf.sprintf "%s on %s" (Printexc.to_string e) target)
      | Error m -> violate "recovery failed outright" m
      | Ok r ->
        recovered := !recovered + List.length r.Store.events;
        damage := !damage + List.length r.Store.damage;
        if r.Store.truncated <> None then incr torn;
        (* Invariant 2: for in-place mutations the clean prefix is a
           prefix of what was written (splices can legitimately decode
           shifted-but-valid records, so they only get invariant 1/3). *)
        if prefix_expected then
          List.iteri
            (fun j event ->
              match List.nth_opt pristine j with
              | Some expected
                when Json.to_string expected
                     = Json.to_string (Persist.to_json event) ->
                ()
              | _ ->
                violate "recovered stream is not a prefix"
                  (Printf.sprintf "log %d, event %d differs" i j))
            r.Store.events;
        (* Invariant 3: losses are localized — fewer events than written
           means verify names damage or a torn tail, with an offset
           inside the file. *)
        if List.length r.Store.events < List.length pristine then begin
          match Store.scan dir with
          | exception e -> violate "scan raised" (Printexc.to_string e)
          | Error m -> violate "scan failed" m
          | Ok reports ->
            let faults =
              List.concat_map
                (fun (f : Store.file_report) ->
                  List.map (fun d -> (f, d)) f.Store.damage)
                reports
            in
            if detectable && faults = [] && r.Store.truncated = None then
              violate "silent loss"
                (Printf.sprintf
                   "log %d: recovered %d of %d events, no damage reported" i
                   (List.length r.Store.events)
                   (List.length pristine))
            else
              List.iter
                (fun ((f : Store.file_report), (d : Store.damage)) ->
                  if d.Store.offset < 0 || d.Store.offset > f.Store.bytes then
                    violate "damage offset out of bounds"
                      (Printf.sprintf "%s: %d (file is %d bytes)" d.Store.file
                         d.Store.offset f.Store.bytes))
                faults
        end;
        (* Invariant 4: the surviving stream recovers into a service
           without raising (structured replay errors are possible for
           spliced logs, e.g. a duplicated grant record, and counted). *)
        let service =
          Pet_server.Service.create ~durable:true
            ~resolve:(fun _ -> None)
            ~now:(fun () -> 0.)
            ()
        in
        (match Pet_net.Recovery.replay [| service |] r.Store.events with
        | outcome ->
          replay_errors :=
            !replay_errors + List.length outcome.Pet_net.Recovery.errors
        | exception e -> violate "replay raised" (Printexc.to_string e));
        (* Invariant 5: the directory stays writable — open (truncating
           any torn tail), append, and the appended record recovers. *)
        match Store.open_dir ~fsync:false dir with
        | exception e -> violate "re-open raised" (Printexc.to_string e)
        | Error m -> violate "re-open failed" m
        | Ok (store, _) -> (
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
               whenever replay reaches the end of the chain. *)
            if
              r'.Store.damage = []
              && not
                   (List.exists
                      (fun e ->
                        Json.to_string (Persist.to_json e)
                        = Json.to_string (Persist.to_json marker))
                      r'.Store.events)
            then
              violate "append after recovery lost"
                (Printf.sprintf "log %d: marker not recovered" i))));
    remove_tree dir
  done;
  remove_tree root;
  {
    logs = count;
    mutations =
      Hashtbl.fold (fun k n acc -> (k, n) :: acc) mutation_counts []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
    recovered_events = !recovered;
    damage_reports = !damage;
    torn_tails = !torn;
    replay_errors = !replay_errors;
    store_violations = List.rev !violations;
  }

(* --- Corpus fuzzing ------------------------------------------------------------- *)

module Corpus = Pet_corpus.Corpus

type corpus_stats = {
  corpus_requests : int;
  corpus_ok : int;
  corpus_errors : int;
  corpus_invalid : int;
  corpus_crashes : (string * string) list;
  corpus_tenants : int;
  corpus_build_failures : int;
  corpus_updates : int;
  swap_checks : int;
  swap_mismatches : (string * string) list;
}

let run_corpus ?(seed = 0) ~count () =
  let rng = Random.State.make [| 0xc09a; seed; count |] in
  let tick = ref 0. in
  let service =
    (* A deliberately small engine cache: nine tenants across revisions
       overflow six slots, so pinned sessions regularly lose their
       engine to LRU eviction and must survive the tenant-text
       recompile fallback. *)
    Service.create ~capacity:6 ~ttl:5000.
      ~resolve:(fun _ -> None)
      ~now:(fun () ->
        tick := !tick +. 1.;
        !tick)
      ()
  in
  (* Small servable forms (atlas builds are cheap below 13 predicates)
     plus one deliberately oversized tenant whose build must fail. *)
  let scenario = Corpus.scenario ~seed ~lo:8 ~hi:12 ~count:8 () in
  let oversize = Corpus.form ~seed ~size:30 99 in
  let forms = Array.map ref scenario.Corpus.forms in
  let requests = ref 0
  and ok = ref 0
  and errors = ref 0
  and invalid = ref 0
  and crashes = ref [] in
  let build_failures = ref 0
  and updates = ref 0
  and swap_checks = ref 0
  and swap_mismatches = ref [] in
  let next_id = ref 0 in
  let envelope method_ params =
    incr next_id;
    Json.to_string
      (Json.Obj
         [
           ("pet", Json.Int Proto.version);
           ("id", Json.Int !next_id);
           ("method", Json.String method_);
           ("params", Json.Obj params);
         ])
  in
  let feed line =
    incr requests;
    match Service.handle_line service line with
    | exception exn ->
      crashes := (truncate_for_display line, Printexc.to_string exn) :: !crashes;
      None
    | response ->
      (match Json.parse response with
      | Ok (Json.Obj _ as o) -> (
        match (Json.member "ok" o, Json.member "error" o) with
        | Some _, None -> incr ok
        | None, Some _ -> incr errors
        | _ -> incr invalid)
      | Ok _ | Error _ -> incr invalid);
      Some response
  in
  let result_field response field =
    match Json.parse response with
    | Ok o ->
      Option.bind (Json.member "ok" o) (fun r ->
          Option.bind (Json.member field r) Json.string_opt)
    | Error _ -> None
  in
  let publish (f : Corpus.form) quota =
    let params =
      ("rules", Json.String f.Corpus.text)
      :: ("tenant", Json.String f.Corpus.name)
      :: (match quota with None -> [] | Some q -> [ ("quota", Json.Int q) ])
    in
    ignore (feed (envelope "publish_rules" params))
  in
  let barrier name =
    match
      feed (envelope "tenant" [ ("name", Json.String name); ("wait", Json.Bool true) ])
    with
    | None -> None
    | Some response -> result_field response "state"
  in
  (* Publish the whole corpus up front, then wait each build out.
     Tenants 4.. get a small quota so quota refusals happen live. *)
  Array.iteri
    (fun i f -> publish !f (if i >= 4 then Some 3 else None))
    forms;
  publish oversize None;
  Array.iter
    (fun f ->
      match barrier (!f).Corpus.name with
      | Some "failed" -> incr build_failures
      | _ -> ())
    forms;
  (match barrier oversize.Corpus.name with
  | Some "failed" -> incr build_failures
  | _ -> ());
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
    match feed (envelope "new_session" [ ("tenant", Json.String f.Corpus.name) ]) with
    | None -> ()
    | Some response -> (
      match result_field response "session" with
      | None -> ()
      | Some sid ->
        let v = Corpus.valuation ~seed:(Random.State.int rng 10000) f 0 in
        let line =
          envelope "get_report"
            [ ("session", Json.String sid); ("valuation", Json.String v) ]
        in
        (match feed line with
        | Some report -> (
          match Json.parse report with
          | Ok o when Json.member "ok" o <> None ->
            pinned := (i, sid, line, report) :: !pinned;
            if List.length !pinned > 8 then
              pinned := List.filteri (fun j _ -> j < 8) !pinned
          | _ -> ())
        | None -> ()))
  in
  (* The hot-swap invariant: a session opened under version [v] keeps
     answering under [v]'s rules after any number of updates, so
     replaying its exact report line must return byte-identical
     bytes (same request id, same pinned engine). *)
  let swap_check () =
    List.iter
      (fun (i, _sid, line, before) ->
        incr swap_checks;
        match Service.handle_line service line with
        | exception exn ->
          swap_mismatches :=
            (truncate_for_display line, "re-report raised " ^ Printexc.to_string exn)
            :: !swap_mismatches
        | after ->
          incr requests;
          if after <> before then
            swap_mismatches :=
              ( truncate_for_display line,
                Printf.sprintf
                  "pinned session on tenant %s answered differently after a \
                   version swap"
                  (!(forms.(i))).Corpus.name )
              :: !swap_mismatches)
      !pinned
  in
  while !requests < count do
    let i = Corpus.pick rng scenario.Corpus.popularity in
    match Random.State.int rng 10 with
    | 0 | 1 | 2 | 3 -> open_and_report i
    | 4 | 5 -> (
      (* Hot rule migration on a live tenant, then verify every pinned
         session still answers byte-identically. *)
      let f = Corpus.update !(forms.(i)) in
      forms.(i) := f;
      ignore
        (feed
           (envelope "update_rules"
              [
                ("tenant", Json.String f.Corpus.name);
                ("rules", Json.String f.Corpus.text);
              ]));
      incr updates;
      match barrier f.Corpus.name with
      | Some "failed" -> incr build_failures
      | _ -> swap_check ())
    | 6 -> (
      (* Retire a pinned session through choose/submit. *)
      match !pinned with
      | [] -> ()
      | (_, sid, _, _) :: rest ->
        pinned := rest;
        ignore
          (feed
             (envelope "choose_option"
                [ ("session", Json.String sid); ("option", Json.Int 0) ]));
        ignore (feed (envelope "submit_form" [ ("session", Json.String sid) ])))
    | 7 ->
      (* The tenant that can never serve: build_failed on every open. *)
      ignore
        (feed
           (envelope "new_session"
              [ ("tenant", Json.String oversize.Corpus.name) ]))
    | 8 ->
      (* Hostile tenant traffic: unknown names, junk updates, republish
         conflicts. *)
      let f = !(forms.(i)) in
      let neighbour = !(forms.((i + 1) mod Array.length forms)) in
      ignore
        (feed
           (match Random.State.int rng 4 with
           | 0 -> envelope "new_session" [ ("tenant", Json.String (junk 12)) ]
           | 1 ->
             envelope "update_rules"
               [
                 ("tenant", Json.String (junk 12));
                 ("rules", Json.String f.Corpus.text);
               ]
           | 2 ->
             envelope "publish_rules"
               [
                 ("rules", Json.String f.Corpus.text);
                 ("tenant", Json.String neighbour.Corpus.name);
               ]
           | _ ->
             envelope "update_rules"
               [
                 ("tenant", Json.String f.Corpus.name);
                 ("rules", Json.String (junk 60));
               ]))
    | _ ->
      (* Byte-mutated tenant requests must still draw structured
         envelopes. *)
      let line =
        envelope "tenant"
          [ ("name", Json.String (!(forms.(i))).Corpus.name) ]
      in
      let b = Bytes.of_string line in
      for _ = 0 to Random.State.int rng 4 do
        let at = Random.State.int rng (Bytes.length b) in
        Bytes.set b at printable.[Random.State.int rng (String.length printable)]
      done;
      ignore (feed (Bytes.to_string b))
  done;
  ignore (feed (envelope "stats" []));
  Service.shutdown service;
  {
    corpus_requests = !requests;
    corpus_ok = !ok;
    corpus_errors = !errors;
    corpus_invalid = !invalid;
    corpus_crashes = List.rev !crashes;
    corpus_tenants = Array.length forms + 1;
    corpus_build_failures = !build_failures;
    corpus_updates = !updates;
    swap_checks = !swap_checks;
    swap_mismatches = List.rev !swap_mismatches;
  }

let passed_corpus s =
  s.corpus_crashes = [] && s.corpus_invalid = 0 && s.swap_mismatches = []
  && s.corpus_build_failures > 0

let pp_corpus ppf s =
  Fmt.pf ppf
    "fuzz-corpus: %d requests over %d tenants, %d ok, %d structured errors, \
     %d invalid responses, %d crashes"
    s.corpus_requests s.corpus_tenants s.corpus_ok s.corpus_errors
    s.corpus_invalid
    (List.length s.corpus_crashes);
  Fmt.pf ppf
    "@.fuzz-corpus: %d updates, %d build failures, %d swap checks, %d \
     mismatches"
    s.corpus_updates s.corpus_build_failures s.swap_checks
    (List.length s.swap_mismatches);
  List.iter
    (fun (line, exn) -> Fmt.pf ppf "@.crash: %s@.  on: %s" exn line)
    s.corpus_crashes;
  List.iter
    (fun (line, why) -> Fmt.pf ppf "@.swap mismatch: %s@.  on: %s" why line)
    s.swap_mismatches

let passed_store s = s.store_violations = []

let pp_store ppf s =
  Fmt.pf ppf
    "fuzz-store: %d mutated logs (%a), %d events recovered, %d damage \
     reports, %d torn tails, %d replay errors, %d violations"
    s.logs
    Fmt.(list ~sep:(any ", ") (pair ~sep:(any " ") string int))
    (List.map (fun (k, n) -> (k, n)) s.mutations)
    s.recovered_events s.damage_reports s.torn_tails s.replay_errors
    (List.length s.store_violations);
  List.iter
    (fun (label, detail) -> Fmt.pf ppf "@.violation: %s@.  %s" label detail)
    s.store_violations

(* --- Consent-lifecycle fuzzing --------------------------------------------------- *)

module Audit = Pet_audit.Audit
module Record = Pet_store.Record

type consent_stats = {
  rounds : int;
  consent_requests : int;
  revokes : int;
  expiries : int;
  crash_recoveries : int;
  audits_passed : int;
  injections_caught : int;
  consent_violations : (string * string) list;
}

let run_consent ?(seed = 0) ~count () =
  let rng = Random.State.make [| 0xc015; seed; count |] in
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pet_fuzz_consent_%d" (Unix.getpid ()))
  in
  remove_tree root;
  Unix.mkdir root 0o755;
  let requests = ref 0
  and revokes = ref 0
  and expiries = ref 0
  and recoveries = ref 0
  and audits = ref 0
  and caught = ref 0 in
  let violations = ref [] in
  let violate label detail = violations := (label, detail) :: !violations in
  let tick = ref 0. in
  let now () =
    tick := !tick +. 1.;
    !tick
  in
  let next_id = ref 0 in
  let envelope method_ params =
    incr next_id;
    Json.to_string
      (Json.Obj
         [
           ("pet", Json.Int Proto.version);
           ("id", Json.Int !next_id);
           ("method", Json.String method_);
           ("params", Json.Obj params);
         ])
  in
  (* Feed one request; [Ok payload] for an ok response, [Error code]
     for a structured error — a crash is a violation outright. *)
  let feed service method_ params =
    incr requests;
    let line = envelope method_ params in
    match Service.handle_line service line with
    | exception exn ->
      violate "handle_line raised"
        (Printf.sprintf "%s on: %s" (Printexc.to_string exn)
           (truncate_for_display line));
      Error "crash"
    | response -> (
      match Json.parse response with
      | Ok (Json.Obj _ as o) -> (
        match (Json.member "ok" o, Json.member "error" o) with
        | Some payload, None -> Ok payload
        | None, Some e ->
          Error
            (Option.value ~default:"?"
               (Option.bind (Json.member "code" e) Json.string_opt))
        | _ ->
          violate "malformed response" (truncate_for_display response);
          Error "malformed")
      | _ ->
        violate "unparsable response" (truncate_for_display response);
        Error "unparsable")
  in
  let str_of payload key =
    Option.bind (Json.member key payload) Json.string_opt
  in
  for i = 0 to count - 1 do
    let dir = Filename.concat root (Printf.sprintf "log%d" i) in
    match
      Store.open_dir ~segment_bytes:(512 + Random.State.int rng 1024)
        ~fsync:false dir
    with
    | Error m -> violate "open_dir failed" m
    | Ok (store, _) ->
      let service =
        Service.create ~durable:true ~resolve:(fun _ -> None) ~now ()
      in
      Service.set_sink service (Store.sink store);
      let exposure =
        Generate.exposure ~config:spec_config ~seed:(seed + i) ()
      in
      let text = Spec.to_string exposure in
      let predicates =
        Pet_valuation.Universe.size (Exposure.xp exposure)
      in
      ignore (feed service "publish_rules" [ ("rules", Json.String text) ]);
      (* Run a handful of full lifecycles, then revoke or expire some of
         the submitted sessions. *)
      let submitted = ref [] in
      let sessions = 3 + Random.State.int rng 5 in
      for _ = 1 to sessions do
        match feed service "new_session" [ ("rules", Json.String text) ] with
        | Error _ -> ()
        | Ok payload -> (
          match str_of payload "session" with
          | None -> violate "new_session without id" "no session field"
          | Some sid -> (
            let v =
              String.init predicates (fun _ ->
                  if Random.State.bool rng then '1' else '0')
            in
            match
              feed service "get_report"
                [ ("session", Json.String sid); ("valuation", Json.String v) ]
            with
            | Error _ -> () (* ineligible valuations are expected *)
            | Ok _ -> (
              match
                feed service "choose_option"
                  [ ("session", Json.String sid); ("option", Json.Int 0) ]
              with
              | Error _ -> ()
              | Ok _ -> (
                match
                  feed service "submit_form" [ ("session", Json.String sid) ]
                with
                | Error _ -> ()
                | Ok _ -> submitted := sid :: !submitted))))
      done;
      List.iter
        (fun sid ->
          match Random.State.int rng 10 with
          | 0 | 1 | 2 | 3 ->
            if feed service "revoke" [ ("session", Json.String sid) ] = Error "crash"
            then ()
            else incr revokes
          | 4 | 5 | 6 ->
            let after = float_of_int (1 + Random.State.int rng 20) in
            if
              feed service "expire"
                [ ("session", Json.String sid); ("after", Json.Float after) ]
              = Error "crash"
            then ()
            else incr expiries
          | _ -> ())
        !submitted;
      (* Let the clock run past the armed horizons: every request ticks
         it and runs a sweep step. *)
      for _ = 1 to 30 do
        ignore (feed service "stats" [])
      done;
      (* kill -9: no graceful shutdown, then tear the active segment at
         a random byte — sometimes mid-record, sometimes a no-op. *)
      Store.close store;
      (match Audit.run dir with
      | Error m -> violate "audit on healthy log failed" m
      | Ok report ->
        if Audit.pass report then incr audits
        else
          violate "healthy log failed its audit"
            (Json.to_string (Audit.to_json report)));
      let segs =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> String.length f > 4 && String.sub f 0 4 = "wal-")
        |> List.sort String.compare
      in
      let last_seg = List.nth segs (List.length segs - 1) in
      let path = Filename.concat dir last_seg in
      let bytes = read_file path in
      let size = String.length bytes in
      if size > 0 then begin
        let cut = size - Random.State.int rng (min size 64) in
        write_file path (String.sub bytes 0 cut)
      end;
      (* The audit tolerates the torn tail exactly like recovery does:
         a note, never a violation. *)
      (match Audit.run dir with
      | Error m -> violate "audit on torn log failed" m
      | Ok report ->
        if Audit.pass report then incr audits
        else
          violate "torn log failed its audit"
            (Json.to_string (Audit.to_json report)));
      (* Recover into a fresh service: replay must not raise, passed
         horizons apply, and whatever revocations and expiries survived
         the tear must still refuse a second lifecycle request. *)
      incr recoveries;
      (match Store.open_dir ~fsync:false dir with
      | Error m -> violate "recovery failed" m
      | Ok (store, recovery) ->
        let fresh =
          Service.create ~durable:true ~resolve:(fun _ -> None) ~now ()
        in
        (match Pet_net.Recovery.replay [| fresh |] recovery.Store.events with
        | outcome ->
          List.iter (violate "replay error") outcome.Pet_net.Recovery.errors
        | exception e -> violate "replay raised" (Printexc.to_string e));
        Service.set_sink fresh (Store.sink store);
        let revoked_ids =
          List.filter_map
            (function
              | Persist.Session_revoked { id; _ } -> Some id
              | _ -> None)
            recovery.Store.events
        in
        let expired_ids =
          List.filter_map
            (function
              | Persist.Session_expiry { id; horizon; _ }
                when horizon <= !tick ->
                Some id
              | _ -> None)
            recovery.Store.events
        in
        List.iter
          (fun sid ->
            match feed fresh "revoke" [ ("session", Json.String sid) ] with
            | Error "bad_state" -> ()
            | Error other ->
              violate "tombstone resurrected"
                (Printf.sprintf
                   "revoked session %S answered %s after recovery" sid other)
            | Ok _ ->
              violate "tombstone resurrected"
                (Printf.sprintf "session %S revoked twice across a crash" sid))
          revoked_ids;
        List.iter
          (fun sid ->
            if not (List.mem sid revoked_ids) then
              match feed fresh "revoke" [ ("session", Json.String sid) ] with
              | Error "bad_state" -> ()
              | Error other ->
                violate "horizon not applied"
                  (Printf.sprintf
                     "expired session %S answered %s after recovery" sid other)
              | Ok _ ->
                violate "horizon not applied"
                  (Printf.sprintf
                     "session %S revocable after its horizon passed" sid))
          expired_ids;
        Store.close store;
        (* Injection: forge a grant re-establishing a revoked session in
           a fresh segment. The offline audit must catch it — this is
           the attack it exists for. *)
        match revoked_ids with
        | [] -> ()
        | rid :: _ -> (
          let original =
            List.find_map
              (function
                | Persist.Grant { session = Some sid; form; benefits; digest; _ }
                  when sid = rid ->
                  Some (digest, form, benefits)
                | _ -> None)
              recovery.Store.events
          in
          match original with
          | None -> ()
          | Some (digest, form, benefits) ->
            let grant_id =
              List.fold_left
                (fun acc -> function
                  | Persist.Grant { grant_id; _ } -> max acc (grant_id + 1)
                  | _ -> acc)
                0 recovery.Store.events
            in
            let forged =
              Persist.Grant
                {
                  digest;
                  grant_id;
                  form;
                  benefits;
                  session = Some rid;
                  tenant = None;
                  revoked = false;
                }
            in
            let seg_no =
              List.fold_left
                (fun acc f ->
                  match
                    int_of_string_opt (String.sub f 4 (String.length f - 8))
                  with
                  | Some n -> max acc (n + 1)
                  | None -> acc)
                0
                (Sys.readdir dir |> Array.to_list
                |> List.filter (fun f ->
                       String.length f > 8 && String.sub f 0 4 = "wal-"))
            in
            write_file
              (Filename.concat dir (Printf.sprintf "wal-%06d.log" seg_no))
              (Record.frame (Json.to_string (Persist.to_json forged)));
            match Audit.run dir with
            | Error m -> violate "audit on forged log failed" m
            | Ok report ->
              let revocation_flagged =
                List.exists
                  (fun (p : Audit.property) ->
                    p.Audit.name = "revocation" && p.Audit.violations <> [])
                  report.Audit.properties
              in
              if revocation_flagged then incr caught
              else
                violate "forged grant not caught"
                  (Printf.sprintf "log %d: audit passed a post-revocation grant"
                     i)));
      remove_tree dir
  done;
  remove_tree root;
  {
    rounds = count;
    consent_requests = !requests;
    revokes = !revokes;
    expiries = !expiries;
    crash_recoveries = !recoveries;
    audits_passed = !audits;
    injections_caught = !caught;
    consent_violations = List.rev !violations;
  }

let passed_consent s =
  s.consent_violations = [] && (s.rounds = 0 || s.audits_passed > 0)

let pp_consent ppf s =
  Fmt.pf ppf
    "fuzz-consent: %d rounds, %d requests, %d revokes, %d expiries, %d \
     crash recoveries, %d audits passed, %d injections caught, %d violations"
    s.rounds s.consent_requests s.revokes s.expiries s.crash_recoveries
    s.audits_passed s.injections_caught
    (List.length s.consent_violations);
  List.iter
    (fun (label, detail) -> Fmt.pf ppf "@.violation: %s@.  %s" label detail)
    s.consent_violations
