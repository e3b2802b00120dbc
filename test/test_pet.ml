(* Tests for the PET facade: typed forms, consent reports, the Figure-3
   workflow, and the JSON emitter. *)

module Universe = Pet_valuation.Universe
module Total = Pet_valuation.Total
module Partial = Pet_valuation.Partial
module Engine = Pet_rules.Engine
module Atlas = Pet_minimize.Atlas
module Strategy = Pet_game.Strategy
module Form = Pet_pet.Form
module Report = Pet_pet.Report
module Workflow = Pet_pet.Workflow
module Json = Pet_pet.Json
module Running = Pet_casestudies.Running

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

(* --- The district-council typed form (the paper's Section 2.2 data) --------- *)

let district_form () =
  let open Form in
  create ~exposure:(Running.exposure ())
    ~questions:
      [
        { key = "age"; text = "How old are you?"; kind = Kint };
        { key = "unemployed"; text = "Are you unemployed?"; kind = Kbool };
        {
          key = "location";
          text = "Where do you live?";
          kind = Kchoice [ "suburbs"; "town center" ];
        };
      ]
    ~predicates:
      [
        {
          name = "p1";
          description = "age <= 25";
          compute =
            (fun get ->
              match get "age" with Aint n -> n <= 25 | _ -> assert false);
        };
        {
          name = "p2";
          description = "unemployed";
          compute =
            (fun get ->
              match get "unemployed" with Abool b -> b | _ -> assert false);
        };
        {
          name = "p3";
          description = "lives in the suburbs";
          compute =
            (fun get ->
              match get "location" with
              | Achoice c -> c = "suburbs"
              | _ -> assert false);
        };
      ]

let test_form_valuations () =
  let form = district_form () in
  (* The paper's v1: age 28, unemployed, suburbs -> 011. *)
  match
    Form.valuation form
      [
        ("age", Form.Aint 28);
        ("unemployed", Form.Abool true);
        ("location", Form.Achoice "suburbs");
      ]
  with
  | Error m -> Alcotest.fail m
  | Ok v ->
    Alcotest.(check string) "v1" "011" (Total.to_string v);
    (* v2: age 20 -> 111. *)
    (match
       Form.valuation form
         [
           ("age", Form.Aint 20);
           ("unemployed", Form.Abool true);
           ("location", Form.Achoice "suburbs");
         ]
     with
    | Error m -> Alcotest.fail m
    | Ok v2 -> Alcotest.(check string) "v2" "111" (Total.to_string v2))

let test_form_errors () =
  let form = district_form () in
  let fails answers =
    match Form.valuation form answers with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "missing answer" true
    (fails [ ("age", Form.Aint 28) ]);
  Alcotest.(check bool) "ill-typed" true
    (fails
       [
         ("age", Form.Abool true);
         ("unemployed", Form.Abool true);
         ("location", Form.Achoice "suburbs");
       ]);
  Alcotest.(check bool) "bad choice" true
    (fails
       [
         ("age", Form.Aint 28);
         ("unemployed", Form.Abool true);
         ("location", Form.Achoice "the moon");
       ]);
  Alcotest.(check bool) "unknown key" true
    (fails
       [
         ("age", Form.Aint 28);
         ("unemployed", Form.Abool true);
         ("location", Form.Achoice "suburbs");
         ("shoe_size", Form.Aint 43);
       ])

(* Reading raw answers: one at a time, from KEY = VALUE lines, and by
   prompting. *)
let test_form_answers () =
  let form = district_form () in
  let q key = List.find (fun (q : Form.question) -> q.key = key) (Form.questions form) in
  let answer = Alcotest.testable (fun ppf _ -> Fmt.string ppf "<answer>") ( = ) in
  Alcotest.(check (result answer string)) "number" (Ok (Form.Aint 28)) (Form.parse_answer (q "age") " 28 ");
  Alcotest.(check (result answer string)) "yes" (Ok (Form.Abool true))
    (Form.parse_answer (q "unemployed") "YES");
  Alcotest.(check (result answer string)) "no number" (Error "age: expected a number")
    (Form.parse_answer (q "age") "old");
  Alcotest.(check (result answer string)) "not yes or no" (Error "unemployed: expected yes or no")
    (Form.parse_answer (q "unemployed") "maybe");
  Alcotest.(check (result answer string)) "not an option"
    (Error "location: expected one of: suburbs, town center")
    (Form.parse_answer (q "location") "the moon");
  let lines l =
    let rest = ref l in
    fun () ->
      match !rest with
      | [] -> None
      | x :: tl ->
        rest := tl;
        Some x
  in
  let to_bits = function
    | Ok answers -> Result.map Total.to_string (Form.valuation form answers)
    | Error m -> Error m
  in
  Alcotest.(check (result string string)) "piped" (Ok "011")
    (to_bits
       (Form.parse_answers form
          (lines [ "# the paper's v1"; ""; "age = 28"; "unemployed=y"; " location = suburbs " ])));
  Alcotest.(check (result string string)) "no equals sign"
    (Error {|expected KEY = VALUE, got "age 28"|})
    (to_bits (Form.parse_answers form (lines [ "age 28" ])));
  Alcotest.(check (result string string)) "unknown key" (Error {|unknown question "shoe"|})
    (to_bits (Form.parse_answers form (lines [ "shoe = 43" ])));
  (* Prompting re-asks after an unreadable reply and stops at EOF. *)
  let retried = ref [] in
  let asked = ref [] in
  let replies = lines [ "twenty"; "20"; "y"; "suburbs" ] in
  Alcotest.(check (result string string)) "prompted" (Ok "111")
    (to_bits
       (Form.ask form
          ~prompt:(fun text ->
            asked := text :: !asked;
            replies ())
          ~retry:(fun m -> retried := m :: !retried)));
  Alcotest.(check (list string)) "retry message" [ "age: expected a number" ] !retried;
  Alcotest.(check int) "age asked twice" 4 (List.length !asked);
  Alcotest.(check (result string string)) "end of input" (Error "unexpected end of input")
    (let next = lines [ "28" ] in
     to_bits (Form.ask form ~prompt:(fun _ -> next ()) ~retry:ignore))

let test_form_validation () =
  let exposure = Running.exposure () in
  let q = { Form.key = "k"; text = "t"; kind = Form.Kbool } in
  let predicate name =
    {
      Form.name;
      description = "";
      compute = (fun get -> get "k" = Form.Abool true);
    }
  in
  let fails mk =
    match mk () with exception Invalid_argument _ -> true | _ -> false
  in
  Alcotest.(check bool) "missing predicate" true
    (fails (fun () ->
         Form.create ~exposure ~questions:[ q ]
           ~predicates:[ predicate "p1"; predicate "p2" ]));
  Alcotest.(check bool) "unknown predicate" true
    (fails (fun () ->
         Form.create ~exposure ~questions:[ q ]
           ~predicates:
             [ predicate "p1"; predicate "p2"; predicate "p3"; predicate "zz" ]));
  Alcotest.(check bool) "duplicate keys" true
    (fails (fun () ->
         Form.create ~exposure ~questions:[ q; q ]
           ~predicates:[ predicate "p1"; predicate "p2"; predicate "p3" ]))

(* --- Reports ------------------------------------------------------------------ *)

let running_context () =
  let atlas = Atlas.build (Engine.create ~backend:Engine.Bdd (Running.exposure ())) in
  (atlas, Strategy.compute atlas)

let test_report_111 () =
  let atlas, profile = running_context () in
  let u3 = Universe.of_names [ "p1"; "p2"; "p3" ] in
  let r = Report.build atlas profile (Total.of_string u3 "111") in
  Alcotest.(check (list string)) "granted" [ "b1" ] r.Report.granted;
  Alcotest.(check int) "two options" 2 (List.length r.Report.options);
  let rec_opt = Report.recommended r in
  Alcotest.(check string) "recommended _11" "_11"
    (Partial.to_string rec_opt.Report.mas);
  Alcotest.(check (float 0.)) "po_blank 1" 1. rec_opt.Report.po_blank;
  Alcotest.(check (float 0.)) "po_sm 1" 1. rec_opt.Report.po_sm;
  (* The rejected option would reveal everything. *)
  let other =
    List.find (fun o -> not o.Report.recommended) r.Report.options
  in
  Alcotest.(check string) "other is 1__" "1__"
    (Partial.to_string other.Report.mas);
  Alcotest.(check (float 0.)) "other po_blank 0" 0. other.Report.po_blank;
  Alcotest.(check (float 1e-9)) "ratio: 1 blank of 3" (1. /. 3.)
    r.Report.minimization_ratio;
  (* Rendering mentions the recommendation. *)
  let text = Fmt.str "%a" Report.pp r in
  Alcotest.(check bool) "text mentions recommended" true
    (contains text "<- recommended")

let test_report_not_player () =
  let atlas, profile = running_context () in
  let u3 = Universe.of_names [ "p1"; "p2"; "p3" ] in
  Alcotest.(check bool) "000 rejected" true
    (match Report.build atlas profile (Total.of_string u3 "000") with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_report_json () =
  let atlas, profile = running_context () in
  let u3 = Universe.of_names [ "p1"; "p2"; "p3" ] in
  let r = Report.build atlas profile (Total.of_string u3 "111") in
  let json = Json.to_string (Report.to_json r) in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) ("json contains " ^ fragment) true
        (contains json fragment))
    [
      "\"valuation\":\"111\"";
      "\"granted\":[\"b1\"]";
      "\"mas\":\"_11\"";
      "\"recommended\":true";
      "\"po_blank\":1";
    ]

(* --- Workflow ------------------------------------------------------------------- *)

let test_workflow_end_to_end () =
  let provider = Workflow.provider (Running.exposure ()) in
  let u3 = Universe.of_names [ "p1"; "p2"; "p3" ] in
  (* Applicant side. *)
  let report =
    match Workflow.report_for provider (Total.of_string u3 "011") with
    | Ok r -> r
    | Error m -> Alcotest.fail m
  in
  let choice = Report.recommended report in
  Alcotest.(check string) "011 sends _11" "_11"
    (Partial.to_string choice.Report.mas);
  (* Provider side: verification, grant, archive, audit. *)
  (match Workflow.submit provider choice.Report.mas with
  | Error m -> Alcotest.fail m
  | Ok grant ->
    Alcotest.(check (list string)) "b1 granted" [ "b1" ]
      grant.Workflow.benefits;
    Alcotest.(check bool) "audit passes" true (Workflow.audit provider grant);
    (* A tampered record fails the audit. *)
    let tampered = { grant with Workflow.benefits = [ "b2" ] } in
    Alcotest.(check bool) "tampered audit fails" false
      (Workflow.audit provider tampered))

(* The whole-population views of pet atlas and pet simulate, and the
   measured runs of pet profile and pet trace. *)
let test_workflow_views () =
  let provider = Workflow.provider (Running.exposure ()) in
  let atlas = Fmt.str "%a" Workflow.pp_atlas provider in
  Alcotest.(check bool) "summary first" true
    (String.starts_with ~prefix:"Number of MAS: 5\n" atlas);
  Alcotest.(check bool) "crowd row of _11" true
    (contains atlas "\n_11                          2        1        2         1\n");
  Alcotest.(check string) "population"
    "population: 5 eligible valuations\n\
     equilibrium: Algorithm 2, Nash: true\n\
     average minimization: 26.7% of the form left blank\n"
    (Fmt.str "%a" (Workflow.pp_population ~solidarity:true) provider);
  Pet_obs.Metrics.set_clock (Pet_obs.Metrics.logical_clock ());
  let profile =
    Fmt.str "%t" (fun ppf ->
        Workflow.span_profile ppf ~source:"running" ~backend:Engine.Bdd
          ~payoff:Pet_game.Payoff.Blank ~samples:2 (Running.exposure ()))
  in
  Alcotest.(check bool) "profile header" true
    (String.starts_with ~prefix:"profile running (backend bdd)\n" profile);
  Alcotest.(check bool) "reports span" true (contains profile "reports");
  Pet_obs.Trace.enable ();
  let captured =
    Workflow.trace_once ~source:"running" ~backend:Engine.Bdd ~payoff:Pet_game.Payoff.Blank
      (Running.exposure ())
  in
  Pet_obs.Trace.disable ();
  Pet_obs.Metrics.disable ();
  Pet_obs.Metrics.set_clock Unix.gettimeofday;
  match captured with
  | None -> Alcotest.fail "no capture"
  | Some tr -> Alcotest.(check bool) "source annotated" true (contains (Pet_obs.Trace.render tr) "running")

let test_workflow_rejections () =
  let provider = Workflow.provider (Running.exposure ()) in
  let u3 = Universe.of_names [ "p1"; "p2"; "p3" ] in
  (* Ineligible applicant. *)
  (match Workflow.report_for provider (Total.of_string u3 "000") with
  | Ok _ -> Alcotest.fail "expected rejection"
  | Error m ->
    Alcotest.(check bool) "no benefit message" true
      (contains m "no benefit"));
  (* Unrealistic applicant (H-cov: p1 and p5 are exclusive). *)
  let hprov = Workflow.provider (Pet_casestudies.Hcov.exposure ()) in
  let hxp = Pet_rules.Exposure.xp (Pet_casestudies.Hcov.exposure ()) in
  (match Workflow.report_for hprov (Total.of_string hxp "100010000000") with
  | Ok _ -> Alcotest.fail "expected rejection"
  | Error m -> Alcotest.(check bool) "contradiction" true (contains m "contradicts"));
  (* Submitting an inconsistent form. *)
  (match
     Workflow.submit hprov
       (Partial.of_assoc hxp [ ("p1", true); ("p5", true) ])
   with
  | Ok _ -> Alcotest.fail "expected rejection"
  | Error m -> Alcotest.(check bool) "inconsistent" true (contains m "inconsistent"));
  (* Submitting a form proving nothing. *)
  match Workflow.submit provider (Partial.of_string u3 "_1_") with
  | Ok _ -> Alcotest.fail "expected rejection"
  | Error m -> Alcotest.(check bool) "proves nothing" true (contains m "proves no")


(* The SAT backend drives the whole workflow just as well as the BDD
   one (integration coverage for the incremental-solver path). *)
let test_workflow_sat_backend () =
  let provider =
    Workflow.provider ~backend:Pet_rules.Engine.Sat (Running.exposure ())
  in
  let u3 = Universe.of_names [ "p1"; "p2"; "p3" ] in
  match Workflow.report_for provider (Total.of_string u3 "111") with
  | Error m -> Alcotest.fail m
  | Ok report -> (
    let choice = Report.recommended report in
    Alcotest.(check string) "recommended" "_11"
      (Partial.to_string choice.Report.mas);
    match Workflow.submit provider choice.Report.mas with
    | Error m -> Alcotest.fail m
    | Ok grant ->
      Alcotest.(check bool) "audit" true (Workflow.audit provider grant))

(* --- Ledger -------------------------------------------------------------------- *)

let test_ledger () =
  let module Ledger = Pet_pet.Ledger in
  let provider = Workflow.provider (Running.exposure ()) in
  let u3 = Universe.of_names [ "p1"; "p2"; "p3" ] in
  let ledger = Ledger.create () in
  Alcotest.(check int) "empty" 0 (Ledger.size ledger);
  let grant w =
    match Workflow.submit provider (Partial.of_string u3 w) with
    | Ok g -> g
    | Error m -> Alcotest.fail m
  in
  let id0 = Ledger.record ledger (grant "_11") in
  let id1 = Ledger.record ledger (grant "1_0") in
  Alcotest.(check int) "ids sequential" 1 id1;
  Alcotest.(check int) "size" 2 (Ledger.size ledger);
  (* Storage footprint: 2 + 2 predicate values instead of 2 x 3. *)
  Alcotest.(check int) "stored values" 4 (Ledger.stored_values ledger);
  (match Ledger.find ledger id0 with
  | Some g ->
    Alcotest.(check (list string)) "find" [ "b1" ] g.Workflow.benefits
  | None -> Alcotest.fail "missing record");
  Alcotest.(check bool) "find missing" true (Ledger.find ledger 99 = None);
  Alcotest.(check (list int)) "audit clean" [] (Ledger.audit ledger provider);
  (* Tamper with a record through re-recording a forged grant. *)
  let forged = { (grant "_11") with Workflow.benefits = [ "b2" ] } in
  let id2 = Ledger.record ledger forged in
  Alcotest.(check (list int)) "audit flags the forgery" [ id2 ]
    (Ledger.audit ledger provider);
  (* Replay restores records at their own ids, in any order; a taken
     id is refused and an id never restored stays an empty slot. *)
  let replayed = Ledger.create () in
  Alcotest.(check bool) "late id first" true
    (Ledger.restore replayed 1 (Some (grant "1_0")));
  Alcotest.(check bool) "early id second" true
    (Ledger.restore replayed 0 (Some (grant "_11")));
  Alcotest.(check bool) "tombstone past a gap" true (Ledger.restore replayed 3 None);
  Alcotest.(check bool) "duplicate refused" false
    (Ledger.restore replayed 0 (Some (grant "_11")));
  Alcotest.(check (list int)) "entries in id order" [ 0; 1; 3 ]
    (List.map (fun (e : Ledger.entry) -> e.Ledger.id) (Ledger.entries replayed));
  Alcotest.(check int) "size spans the gap" 4 (Ledger.size replayed);
  Alcotest.(check int) "next id after the gap" 4
    (Ledger.record replayed (grant "_11"));
  (* JSON rendering mentions both forms. *)
  let json = Json.to_string (Ledger.to_json ledger) in
  Alcotest.(check bool) "json has _11" true (contains json "\"_11\"");
  Alcotest.(check bool) "json has 1_0" true (contains json "\"1_0\"")

(* The list-based ledger the table replaced: newest id first, [find]
   and [revoke] walk the list. *)
module Reference_ledger = struct
  type entry = { id : int; mutable grant : Workflow.grant option }
  type t = { mutable entries : entry list; mutable next : int }

  let create () = { entries = []; next = 0 }

  let restore t id grant =
    let rec insert = function
      | e :: rest when e.id > id -> Option.map (List.cons e) (insert rest)
      | e :: _ when e.id = id -> None
      | rest -> Some ({ id; grant } :: rest)
    in
    match insert t.entries with
    | None -> false
    | Some entries ->
      t.entries <- entries;
      t.next <- max t.next (id + 1);
      true

  let record t grant =
    let id = t.next in
    t.next <- id + 1;
    ignore (restore t id (Some grant));
    id

  let revoke t id =
    match List.find_opt (fun e -> e.id = id) t.entries with
    | None -> `Unknown
    | Some { grant = None; _ } -> `Already
    | Some e ->
      e.grant <- None;
      `Revoked

  let audit t provider =
    List.filter_map
      (fun e ->
        match e.grant with
        | Some grant when not (Workflow.audit provider grant) -> Some e.id
        | _ -> None)
      t.entries
    |> List.sort Int.compare

  let to_json t =
    Json.List
      (List.rev_map
         (fun e ->
           match e.grant with
           | None -> Json.Obj [ ("id", Json.Int e.id); ("revoked", Json.Bool true) ]
           | Some grant ->
             Json.Obj
               [
                 ("id", Json.Int e.id);
                 ("form", Json.String (Partial.to_string grant.Workflow.form));
                 ( "benefits",
                   Json.List (List.map (fun b -> Json.String b) grant.Workflow.benefits) );
               ])
         t.entries)
end

(* 100,000 H-cov grants, some forged, some replayed out of order or past
   gaps, some revoked, then one over another universe: the table answers
   [to_json] and [audit] like the list-based ledger, and revoking its
   oldest grants costs what revoking its newest does. *)
let test_ledger_100k () =
  let module Ledger = Pet_pet.Ledger in
  let hcov = Pet_casestudies.Hcov.exposure () in
  let provider = Workflow.provider hcov in
  let atlas = Workflow.atlas provider in
  let grants =
    Array.init (Atlas.mas_count atlas) (fun i ->
        match Workflow.submit provider (Atlas.mas atlas i).Pet_minimize.Algorithm1.mas with
        | Ok g -> g
        | Error m -> Alcotest.fail m)
  in
  let other =
    match Workflow.submit (Workflow.provider (Running.exposure ()))
            (Partial.of_string (Universe.of_names [ "p1"; "p2"; "p3" ]) "_11")
    with
    | Ok g -> g
    | Error m -> Alcotest.fail m
  in
  let n = 100_000 in
  let rng = Random.State.make [| 100 |] in
  let ledger = Ledger.create () and reference = Reference_ledger.create () in
  let both f g = Alcotest.(check bool) "same outcome" true (f ledger = g reference) in
  for i = 0 to n - 1 do
    let grant = grants.(Random.State.int rng (Array.length grants)) in
    match Random.State.int rng 100 with
    | 0 ->
      let forged = { grant with Workflow.benefits = List.rev ("forged" :: grant.Workflow.benefits) } in
      both (fun l -> Ledger.record l forged) (fun r -> Reference_ledger.record r forged)
    | 2 ->
      let id = i + 2 + Random.State.int rng 3 in
      both (fun l -> Ledger.restore l id (Some grant))
        (fun r -> Reference_ledger.restore r id (Some grant))
    | 3 ->
      let id = Random.State.int rng (i + 1) in
      both (fun l -> Ledger.revoke l id) (fun r -> Reference_ledger.revoke r id)
    | _ -> both (fun l -> Ledger.record l grant) (fun r -> Reference_ledger.record r grant)
  done;
  both (fun l -> Ledger.restore l (n + 100_000) None)
    (fun r -> Reference_ledger.restore r (n + 100_000) None);
  Alcotest.(check int) "size" reference.Reference_ledger.next (Ledger.size ledger);
  Alcotest.(check (list int)) "audit" (Reference_ledger.audit reference provider)
    (Ledger.audit ledger provider);
  (* A form over another universe cannot be audited under H-cov; the
     ledger keeps it aside and lists it in its place. *)
  both (fun l -> Ledger.record l other) (fun r -> Reference_ledger.record r other);
  let gap =
    let taken = Hashtbl.create n in
    List.iter (fun e -> Hashtbl.replace taken e.Reference_ledger.id ()) reference.entries;
    List.find (fun id -> not (Hashtbl.mem taken id)) (List.init n Fun.id)
  in
  both (fun l -> Ledger.restore l gap (Some other))
    (fun r -> Reference_ledger.restore r gap (Some other));
  Alcotest.(check bool) "read back" true (Ledger.find ledger gap = Some other);
  Alcotest.(check string) "to_json"
    (Json.to_string (Reference_ledger.to_json reference))
    (Json.to_string (Ledger.to_json ledger));
  (* Revoking the 1,000 oldest ids against the 1,000 newest: a list walk
     makes the oldest 100,000 steps away. *)
  let time ids =
    let start = Unix.gettimeofday () in
    List.iter (fun id -> ignore (Ledger.revoke ledger id)) ids;
    Unix.gettimeofday () -. start
  in
  let size = Ledger.size ledger in
  let newest = time (List.init 1000 (fun i -> size - 100_000 - 1 - i))
  and oldest = time (List.init 1000 Fun.id) in
  Alcotest.(check bool)
    (Printf.sprintf "oldest %.2g s against newest %.2g s" oldest newest)
    true
    (oldest <= (10. *. newest) +. 0.005)

(* --- JSON emitter ------------------------------------------------------------------ *)

let test_json_parse () =
  let parses input expected =
    match Json.parse input with
    | Ok j -> Alcotest.(check string) input expected (Json.to_string j)
    | Error m -> Alcotest.failf "%s: %s" input m
  in
  parses "null" "null";
  parses " true " "true";
  parses "-42" "-42";
  parses "0.5" "0.5";
  parses "1e3" "1000";
  parses "[1, [2, {}], {\"a\": null}]" "[1,[2,{}],{\"a\":null}]";
  parses "{\"k\" : \"v\", \"l\": [true,false]}" "{\"k\":\"v\",\"l\":[true,false]}";
  (* Escapes: named, \u BMP, and a surrogate pair (U+1F600, 4 UTF-8 bytes). *)
  parses "\"a\\n\\t\\\"b\\\\\"" "\"a\\n\\t\\\"b\\\\\"";
  (match Json.parse "\"\\u0041\\u00e9\"" with
  | Ok (Json.String s) -> Alcotest.(check string) "utf8 decode" "A\xc3\xa9" s
  | _ -> Alcotest.fail "expected a string");
  (match Json.parse "\"\\ud83d\\ude00\"" with
  | Ok (Json.String s) ->
    Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "expected a string");
  (* Integral numbers become Int, fractional/exponent Float. *)
  Alcotest.(check bool) "int" true (Json.parse "7" = Ok (Json.Int 7));
  Alcotest.(check bool) "float" true (Json.parse "7.0" = Ok (Json.Float 7.))

let test_json_parse_errors () =
  let fails_at input fragment =
    match Json.parse input with
    | Ok _ -> Alcotest.failf "%s: expected a parse error" input
    | Error m ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S in %S" input fragment m)
        true (contains m fragment)
  in
  fails_at "" "end of input";
  fails_at "tru" "expected true";
  fails_at "[1,2" "expected ',' or ']'";
  fails_at "{\"a\":1," "expected a string object key";
  fails_at "{\"a\" 1}" "expected ':'";
  fails_at "\"abc" "unterminated string";
  fails_at "\"a\\q\"" "invalid escape";
  fails_at "\"\\ud800x\"" "expected";
  fails_at "1 2" "trailing garbage";
  fails_at "\"a\nb\"" "control character";
  (* Positions are 1-based line/column. *)
  (match Json.parse "[1,\n2,\nxyz]" with
  | Error m ->
    Alcotest.(check bool) "line 3" true (contains m "line 3, column 1")
  | Ok _ -> Alcotest.fail "expected error");
  (* The depth guard rejects hostile nesting instead of overflowing. *)
  let deep = String.concat "" (List.init 600 (fun _ -> "[")) in
  fails_at deep "nested too deeply"

(* Random JSON documents: emission followed by parsing is the identity on
   the emitted text (the canonical-form round trip). *)
let gen_json =
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        let scalar =
          oneof
            [
              return Json.Null;
              map (fun b -> Json.Bool b) bool;
              map (fun i -> Json.Int i) int;
              map (fun f -> Json.Float f) (float_bound_inclusive 1000.);
              map (fun s -> Json.String s) (string_size ~gen:printable (int_bound 12));
            ]
        in
        if n = 0 then scalar
        else
          oneof
            [
              scalar;
              map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 2)));
              map
                (fun kvs -> Json.Obj kvs)
                (list_size (int_bound 4)
                   (pair (string_size ~gen:printable (int_bound 8)) (self (n / 2))));
            ]))

let prop_json_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"to_string |> parse |> to_string is stable"
    ~print:Json.to_string gen_json (fun j ->
      let once = Json.to_string j in
      match Json.parse once with
      | Error m -> QCheck2.Test.fail_reportf "no parse: %s" m
      | Ok j' -> Json.to_string j' = once)

let test_json_escaping () =
  Alcotest.(check string) "escape" "{\"a\\\"b\":\"x\\n\\t\\\\y\"}"
    (Json.to_string (Json.Obj [ ("a\"b", Json.String "x\n\t\\y") ]));
  Alcotest.(check string) "control char" "\"\\u0001\""
    (Json.to_string (Json.String "\001"));
  Alcotest.(check string) "nested" "[null,true,1,[{}]]"
    (Json.to_string
       (Json.List [ Json.Null; Json.Bool true; Json.Int 1; Json.List [ Json.Obj [] ] ]));
  Alcotest.(check string) "float integral" "2" (Json.to_string (Json.Float 2.));
  Alcotest.(check string) "float fractional" "0.5"
    (Json.to_string (Json.Float 0.5))

(* --- Bench diff ----------------------------------------------------------------- *)

let test_benchdiff_directions () =
  let module B = Pet_pet.Benchdiff in
  let check_dir name expected key =
    Alcotest.(check bool) name true (B.direction_of_key key = expected)
  in
  check_dir "throughput wins over _s suffix" B.Higher_better "requests_per_s";
  check_dir "rates are throughput" B.Higher_better "cache_hit_rate";
  check_dir "durations are cost" B.Lower_better "publish_compile_s";
  check_dir "overhead is cost" B.Lower_better "overhead";
  check_dir "errors are cost" B.Lower_better "errors";
  check_dir "counts are info" B.Info "respondents";
  (* Process gauges describe the run, not the code: uptime grows with
     every bench section that ran before the one writing the file. *)
  check_dir "uptime is info" B.Info "pet_process_uptime_seconds";
  check_dir "process gauges are info" B.Info "pet_process_recommended_domains"

let test_benchdiff_regression () =
  let module B = Pet_pet.Benchdiff in
  let doc rps seconds =
    Json.Obj
      [
        ( "cases",
          Json.List
            [
              Json.Obj
                [
                  ("case", Json.String "H-cov");
                  ("respondents", Json.Int 1560);
                  ("requests_per_s", Json.Float rps);
                  ("seconds", Json.Float seconds);
                ];
            ] );
      ]
  in
  (* An injected 2x slowdown trips both the throughput drop and the
     duration growth at a 40% threshold. *)
  let findings = B.diff ~threshold:0.4 (doc 60000. 0.1) (doc 30000. 0.2) in
  Alcotest.(check bool) "2x slowdown detected" true (B.has_regression findings);
  let regressed =
    List.filter_map
      (fun (f : B.finding) -> if f.regression then Some f.path else None)
      findings
  in
  Alcotest.(check (list string)) "both directional keys trip"
    [ ".cases[0].requests_per_s"; ".cases[0].seconds" ]
    regressed;
  (* The same drift under the threshold passes. *)
  let findings = B.diff ~threshold:0.4 (doc 60000. 0.1) (doc 50000. 0.12) in
  Alcotest.(check bool) "small drift passes" false (B.has_regression findings);
  (* Improvements never regress, string/info fields never trip, and the
     rendering names the regression. *)
  let findings = B.diff ~threshold:0.4 (doc 30000. 0.2) (doc 60000. 0.1) in
  Alcotest.(check bool) "improvement passes" false (B.has_regression findings);
  let findings = B.diff ~threshold:0.4 (doc 60000. 0.1) (doc 30000. 0.2) in
  let rendered = B.render findings in
  Alcotest.(check bool) "render flags it" true
    (let contains hay needle =
       let nh = String.length hay and nn = String.length needle in
       let rec go i =
         i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
       in
       go 0
     in
     contains rendered "REGRESSION" && contains rendered "requests_per_s");
  (* The BENCH_obs.json shape: a longer bench run grows the process
     uptime gauge 2.28 -> 14.86 s and that alone must pass, while a 50%
     growth of the gated overhead ratio still fails. *)
  let obs overhead uptime =
    Json.Obj
      [
        ("overhead", Json.Float overhead);
        ( "metrics",
          Json.Obj
            [
              ( "gauges",
                Json.Obj [ ("pet_process_uptime_seconds", Json.Float uptime) ] );
            ] );
      ]
  in
  Alcotest.(check bool) "uptime growth passes" false
    (B.has_regression (B.diff ~threshold:0.4 (obs 0.04 2.28) (obs 0.04 14.86)));
  let findings = B.diff ~threshold:0.4 (obs 0.04 2.28) (obs 0.06 14.86) in
  Alcotest.(check (list string)) "overhead growth fails" [ ".overhead" ]
    (List.filter_map
       (fun (f : B.finding) -> if f.regression then Some f.path else None)
       findings)

let test_benchdiff_files () =
  let module B = Pet_pet.Benchdiff in
  let file contents =
    let path = Filename.temp_file "bench" ".json" in
    Out_channel.with_open_text path (fun oc -> output_string oc contents);
    path
  in
  let old_file = file {|{"seconds":1.0}|} and new_file = file {|{"seconds":2.0}|} in
  let bad = file "{" in
  (match B.diff_files ~threshold:0.4 old_file new_file with
  | Ok findings -> Alcotest.(check bool) "regression" true (B.has_regression findings)
  | Error m -> Alcotest.fail m);
  Alcotest.(check bool) "unparsable file named" true
    (match B.diff_files ~threshold:0.4 bad new_file with
    | Error m -> String.starts_with ~prefix:(bad ^ ": ") m
    | Ok _ -> false);
  Alcotest.(check bool) "missing file" true
    (Result.is_error (B.diff_files ~threshold:0.4 old_file (bad ^ ".missing")));
  List.iter Sys.remove [ old_file; new_file; bad ]

let test_benchdiff_zero_baseline () =
  let module B = Pet_pet.Benchdiff in
  let doc errors = Json.Obj [ ("errors", Json.Int errors) ] in
  (* Zero -> zero is no change; zero -> nonzero is an infinite rise. *)
  Alcotest.(check bool) "0 -> 0 passes" false
    (B.has_regression (B.diff (doc 0) (doc 0)));
  Alcotest.(check bool) "0 -> 3 regresses" true
    (B.has_regression (B.diff (doc 0) (doc 3)))

(* BDD queries walk the compiled rule BDD and build no cofactor, so the
   manager keeps the nodes of the compile: serving reports and
   submissions on a BDD-backed form leaks nothing into it. The node
   count is read from the [pet_bdd_nodes] gauge that [Engine.sync_obs]
   sets. *)
let test_bdd_queries_keep_the_manager () =
  let was_on = Pet_obs.Metrics.enabled () in
  Pet_obs.Metrics.enable ();
  let nodes = Pet_obs.Metrics.gauge "pet_bdd_nodes" in
  let node_count engine =
    Engine.sync_obs engine;
    int_of_float (Pet_obs.Metrics.gauge_value nodes)
  in
  let e = Pet_casestudies.Rsa.exposure () in
  let compiled = node_count (Engine.create ~backend:Engine.Bdd e) in
  let p = Workflow.provider ~backend:Engine.Bdd e in
  let atlas = Workflow.atlas p in
  for k = 0 to 999 do
    let v = Atlas.player atlas (k * 7919 mod Atlas.player_count atlas) in
    match Workflow.report_for p v with
    | Error m -> Alcotest.fail m
    | Ok r -> (
      match Workflow.submit p (List.hd r.Report.options).Report.mas with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m)
  done;
  let served = node_count (Workflow.engine p) in
  if not was_on then Pet_obs.Metrics.disable ();
  Alcotest.(check int) "RSA nodes after 1000 reports and submissions"
    compiled served

(* --- Crowd aggregates against the list-based definitions --------------------- *)

(* The game layer as it was before crowds were aggregates: every crowd a
   list of player indices, every payoff and deduction a walk over it.
   [Report.build] and [Equilibrium.deviations] must agree with it field
   for field. *)
module Reference = struct
  module Payoff = Pet_game.Payoff
  module Profile = Pet_game.Profile
  module Deduction = Pet_game.Deduction
  module Equilibrium = Pet_game.Equilibrium
  module A1 = Pet_minimize.Algorithm1

  let crowds profile =
    let atlas = Profile.atlas profile in
    let crowds = Array.make (Atlas.mas_count atlas) [] in
    for i = Atlas.player_count atlas - 1 downto 0 do
      let m = Profile.move_of profile i in
      crowds.(m) <- i :: crowds.(m)
    done;
    crowds

  let blank_mask atlas ~mas =
    let w = (Atlas.mas atlas mas).A1.mas in
    let full = (1 lsl Universe.size (Partial.universe w)) - 1 in
    (lnot (Partial.domain_mask w) land full, full)

  let disagreement_mask atlas ~mas ~crowd =
    let blanks, full = blank_mask atlas ~mas in
    let ones, zeros =
      List.fold_left
        (fun (ones, zeros) i ->
          let bits = Atlas.player_bits atlas i in
          (ones lor bits, zeros lor (lnot bits land full)))
        (0, 0) crowd
    in
    ones land zeros land blanks

  let names_of atlas mask =
    let u = Partial.universe (Atlas.mas atlas 0).A1.mas in
    List.filteri (fun i _ -> (mask lsr i) land 1 = 1) (Universe.names u)

  let undeducible atlas ~mas ~crowd =
    names_of atlas (disagreement_mask atlas ~mas ~crowd)

  let deduced atlas ~mas ~crowd =
    match crowd with
    | [] -> []
    | first :: _ ->
      let blanks, _ = blank_mask atlas ~mas in
      let agree = blanks land lnot (disagreement_mask atlas ~mas ~crowd) in
      let u = Partial.universe (Atlas.mas atlas mas).A1.mas in
      let bits = Atlas.player_bits atlas first in
      List.map
        (fun name -> (name, (bits lsr Universe.index u name) land 1 = 1))
        (names_of atlas agree)

  let value atlas kind ~mas ~crowd =
    match kind with
    | Payoff.Sm -> float_of_int (max 0 (List.length crowd - 1))
    | Payoff.Blank ->
      float_of_int (Universe.popcount (disagreement_mask atlas ~mas ~crowd))
    | Payoff.Weighted weight ->
      List.fold_left
        (fun acc name -> acc +. weight name)
        0.
        (undeducible atlas ~mas ~crowd)

  let report ?weights atlas profile crowds v =
    let player = Option.get (Atlas.find_player atlas v) in
    let played = Profile.move_of profile player in
    List.map
      (fun m ->
        let choice = Atlas.mas atlas m in
        let crowd =
          if m = played then crowds.(m) else player :: crowds.(m)
        in
        {
          Report.mas = choice.A1.mas;
          benefits = choice.A1.benefits;
          po_blank = value atlas Payoff.Blank ~mas:m ~crowd;
          po_sm = value atlas Payoff.Sm ~mas:m ~crowd;
          po_weighted =
            Option.map
              (fun w -> value atlas (Payoff.Weighted w) ~mas:m ~crowd)
              weights;
          disclosure =
            {
              Deduction.published = Partial.bindings choice.A1.mas;
              deduced = deduced atlas ~mas:m ~crowd;
              protected = undeducible atlas ~mas:m ~crowd;
              crowd_size = List.length crowd;
            };
          recommended = m = played;
        })
      (Atlas.choices_of_player atlas player)

  let deviations profile kind ~players =
    let atlas = Profile.atlas profile in
    let crowds = crowds profile in
    List.concat_map
      (fun i ->
        let from_mas = Profile.move_of profile i in
        let current = value atlas kind ~mas:from_mas ~crowd:crowds.(from_mas) in
        List.filter_map
          (fun m ->
            if m = from_mas then None
            else
              let deviated =
                value atlas kind ~mas:m ~crowd:(i :: crowds.(m))
              in
              if deviated > current then
                Some
                  { Equilibrium.player = i; from_mas; to_mas = m; current; deviated }
              else None)
          (Atlas.choices_of_player atlas i))
      players
end

(* The forms of test_minimize's atlas reference check: the four case
   studies and 300 seed-0 corpus forms of 6 to 13 predicates. *)
let reference_forms () =
  [
    ("running", Running.exposure ());
    ("hcov", Pet_casestudies.Hcov.exposure ());
    ("rsa", Pet_casestudies.Rsa.exposure ());
    ("loan", Pet_casestudies.Loan.exposure ());
  ]
  @ List.init 300 (fun i ->
        let f = Pet_corpus.Corpus.form ~seed:0 ~size:(6 + (i mod 8)) i in
        (f.name, Pet_rules.Spec.parse_exn f.text))

(* A weight per predicate name, fixed but uneven, so that weighted sums
   round differently in different orders. *)
let uneven_weight name = 0.1 +. (float_of_int (Hashtbl.hash name mod 7) /. 3.)

let sample_above = 2048

let test_aggregates_match_reference () =
  let module Payoff = Pet_game.Payoff in
  let module Equilibrium = Pet_game.Equilibrium in
  let same_option name (a : Report.option_report) (b : Report.option_report) =
    let d = a.Report.disclosure and e = b.Report.disclosure in
    if
      not
        (Partial.equal a.Report.mas b.Report.mas
        && a.benefits = b.benefits
        && Float.equal a.po_blank b.po_blank
        && Float.equal a.po_sm b.po_sm
        && Option.equal Float.equal a.po_weighted b.po_weighted
        && a.recommended = b.recommended
        && d.published = e.published
        && d.deduced = e.deduced
        && d.protected = e.protected
        && d.crowd_size = e.crowd_size)
    then Alcotest.failf "%s: option %s differs" name (Partial.to_string a.mas)
  in
  List.iter
    (fun (form, e) ->
      let atlas = Atlas.build (Engine.create ~backend:Engine.Compiled e) in
      (* Every player of a form of at most [sample_above] players; every
         [stride]-th of a larger one, whose list-based deviations would
         take minutes. *)
      let n = Atlas.player_count atlas in
      let stride = if n <= sample_above then 1 else n / 512 in
      let players = List.filter (fun i -> i mod stride = 0) (List.init n Fun.id) in
      List.iter
        (fun (kind_name, payoff, weights) ->
          let name = form ^ "/" ^ kind_name in
          let profile = Strategy.compute ~payoff atlas in
          let crowds = Reference.crowds profile in
          List.iter
            (fun i ->
              let v = Atlas.player atlas i in
              let report = Report.build ?weights atlas profile v in
              let expected = Reference.report ?weights atlas profile crowds v in
              Alcotest.(check int)
                (name ^ ": option count")
                (List.length expected)
                (List.length report.Report.options);
              List.iter2 (same_option name) report.Report.options expected)
            players;
          (* Algorithm 2's profile, which is mostly Nash, and everyone on
             their first choice, which is mostly not. *)
          List.iter
            (fun profile ->
              let sampled (d : Equilibrium.deviation) =
                n <= sample_above || d.player mod stride = 0
              in
              if
                List.filter sampled (Equilibrium.deviations profile payoff)
                <> Reference.deviations profile payoff ~players
              then Alcotest.failf "%s: deviations differ" name)
            [
              profile;
              Pet_game.Profile.make atlas
                (Array.init (Atlas.player_count atlas) (fun i ->
                     Atlas.choice atlas i 0));
            ])
        [
          ("blank", Payoff.Blank, None);
          ("sm", Payoff.Sm, None);
          ("weighted", Payoff.Weighted uneven_weight, Some uneven_weight);
        ])
    (reference_forms ())

(* A consent report is a few records per option: no walk over a crowd
   and no per-member allocation. The cap is on the mean over every
   player's report (the valuations are built beforehand). *)
let test_report_minor_words () =
  List.iter
    (fun (name, e) ->
      let p = Workflow.provider ~backend:Engine.Compiled e in
      let atlas = Workflow.atlas p in
      let n = Atlas.player_count atlas in
      let players = Array.init n (Atlas.player atlas) in
      let before = Gc.minor_words () in
      Array.iter (fun v -> ignore (Workflow.report_for p v)) players;
      let words = (Gc.minor_words () -. before) /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f minor words <= 1000 per report" name words)
        true (words <= 1000.))
    [
      ("hcov", Pet_casestudies.Hcov.exposure ());
      ("rsa", Pet_casestudies.Rsa.exposure ());
    ]

let () =
  Alcotest.run "pet_pet"
    [
      ( "form",
        [
          Alcotest.test_case "valuations" `Quick test_form_valuations;
          Alcotest.test_case "errors" `Quick test_form_errors;
          Alcotest.test_case "validation" `Quick test_form_validation;
          Alcotest.test_case "reading answers" `Quick test_form_answers;
        ] );
      ( "report",
        [
          Alcotest.test_case "user 111" `Quick test_report_111;
          Alcotest.test_case "not a player" `Quick test_report_not_player;
          Alcotest.test_case "json" `Quick test_report_json;
        ] );
      ( "workflow",
        [
          Alcotest.test_case "end to end" `Quick test_workflow_end_to_end;
          Alcotest.test_case "rejections" `Quick test_workflow_rejections;
          Alcotest.test_case "population views and runs" `Quick test_workflow_views;
          Alcotest.test_case "sat backend" `Quick test_workflow_sat_backend;
          Alcotest.test_case "BDD queries keep the manager" `Quick
            test_bdd_queries_keep_the_manager;
          Alcotest.test_case "aggregates match the list-based reference" `Slow
            test_aggregates_match_reference;
          Alcotest.test_case "report minor words" `Quick test_report_minor_words;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "ledger" `Quick test_ledger;
          Alcotest.test_case "100k grants against a list" `Quick test_ledger_100k;
        ] );
      ( "json",
        [
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "parse" `Quick test_json_parse;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
        ] );
      ( "benchdiff",
        [
          Alcotest.test_case "key directions" `Quick test_benchdiff_directions;
          Alcotest.test_case "2x slowdown detected" `Quick
            test_benchdiff_regression;
          Alcotest.test_case "zero baseline" `Quick test_benchdiff_zero_baseline;
          Alcotest.test_case "files" `Quick test_benchdiff_files;
        ] );
    ]
