(* The seeded traffic of the three TCP workloads.

   A flow is one respondent's (or, in fleet, one collector's) sequence
   of requests. Its first step may open a session; later steps are
   built from the session id the server returned, so the generator only
   ever sends lines it generated from the seed and the replies. Every
   choice is drawn from [Random.State.make [| seed; salt; flow |]], so a
   flow's content depends on the seed and its index alone, never on
   timing. *)

type step = { meth : string; params : session:string -> string }
type flow = { kind : string; steps : step list }

let q = Wire.quote
let step meth params = { meth; params }
let fixed meth text = step meth (fun ~session:_ -> text)
let on_session meth extra =
  step meth (fun ~session -> Printf.sprintf {|"session":%s%s|} (q session) extra)

let respondent steps = { kind = "respondent"; steps }
let rng ~seed ~salt i = Random.State.make [| seed; salt; i |]

(* --- H-cov: journey and browse ------------------------------------------------ *)

let hcov = lazy (Pet_casestudies.Hcov.exposure ())

let hcov_eligible =
  lazy
    (Array.of_list
       (List.map Pet_valuation.Total.to_string
          (Pet_rules.Exposure.eligible (Lazy.force hcov))))

let pick_eligible rng =
  let e = Lazy.force hcov_eligible in
  e.(Random.State.int rng (Array.length e))

let report v = on_session "get_report" (Printf.sprintf {|,"valuation":%s|} (q v))
let choose = on_session "choose_option" {|,"option":0|}
let submit = on_session "submit_form" ""

(* new_session → get_report → choose_option 0 → submit_form. *)
let submission ~opener v =
  respondent [ fixed "new_session" opener; report v; choose; submit ]

(* A submission by digest; then 10% revoke and 5% arm an expiry an hour
   out. *)
let journey ~seed ~digest i =
  let rng = rng ~seed ~salt:1 i in
  let v = pick_eligible rng in
  let u = Random.State.float rng 1. in
  let tail =
    if u < 0.10 then [ on_session "revoke" "" ]
    else if u < 0.15 then [ on_session "expire" {|,"after":3600|} ]
    else []
  in
  let flow = submission ~opener:(Printf.sprintf {|"digest":%s|} (q digest)) v in
  { flow with steps = flow.steps @ tail }

let journey_steps = 4. +. 0.15

(* The browse pool: 32 eligible valuations drawn from the seed, shared by
   every flow, so reports come from the compiled per-valuation memo. *)
let browse_pool ~seed =
  let rng = rng ~seed ~salt:2 0 in
  Array.init 32 (fun _ -> pick_eligible rng)

(* new_session → 8 get_report over the pool → 20% choose + submit. *)
let browse ~seed ~digest ~pool i =
  let rng = rng ~seed ~salt:3 i in
  let reports = List.init 8 (fun _ -> report pool.(Random.State.int rng (Array.length pool))) in
  let tail = if Random.State.float rng 1. < 0.20 then [ choose; submit ] else [] in
  respondent ((fixed "new_session" (Printf.sprintf {|"digest":%s|} (q digest)) :: reports) @ tail)

let browse_steps = 9. +. 0.4

(* --- Fleet -------------------------------------------------------------------- *)

(* The fleet: the corpus scenario of 200 tenants, sizes 8–12, Zipf 1.0
   popularity, generated from corpus seed 0. The forms are fixed; the
   run's seed drives the traffic over them (which tenant each respondent
   picks, their answers, the rule updates), so runs at different seeds
   differ in traffic and not in how much compiling the forms take. *)
let fleet_tenants = 200
let fleet_scenario = lazy (Pet_corpus.Corpus.scenario ~seed:0 ~lo:8 ~hi:12 ~count:fleet_tenants ())

let publish (form : Pet_corpus.Corpus.form) =
  Printf.sprintf {|"rules":%s,"tenant":%s|} (q form.text) (q form.name)

let wait_tenant name = Printf.sprintf {|"name":%s,"wait":true|} (q name)

(* new_session(tenant) → get_report → choose 0 → submit, over a
   Zipf-picked tenant; [ineligible] ends a flow early and is expected. *)
let fleet ~seed ~(scenario : Pet_corpus.Corpus.scenario) i =
  let rng = rng ~seed ~salt:4 i in
  let form = scenario.forms.(Pet_corpus.Corpus.pick rng scenario.popularity) in
  submission ~opener:(Printf.sprintf {|"tenant":%s|} (q form.name))
    (Pet_corpus.Corpus.valuation ~seed form i)

(* About a quarter of corpus valuations are ineligible and stop after
   the report. *)
let fleet_steps = 3.5

(* Seconds between rule updates while fleet's hi rate is offered. *)
let update_period = 2.

(* A collector's rule update: update_rules to a Zipf-picked tenant, then
   [tenant {wait:true}] until the new version serves. [current] holds
   each tenant's latest revision on this server; revisions are corpus
   forms too, so they come from the corpus seed. *)
let update ~seed ~(scenario : Pet_corpus.Corpus.scenario) ~current k =
  let rng = rng ~seed ~salt:5 k in
  let i = Pet_corpus.Corpus.pick rng scenario.popularity in
  let next = Pet_corpus.Corpus.update ~seed:scenario.seed current.(i) in
  current.(i) <- next;
  {
    kind = "update";
    steps =
      [
        fixed "update_rules" (Printf.sprintf {|"tenant":%s,"rules":%s|} (q next.name) (q next.text));
        fixed "tenant" (wait_tenant next.name);
      ];
  }
