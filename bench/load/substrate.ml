(* The substrate workload: the paper's pipeline alone, in this process,
   with no network and no store.

   Set-up builds a provider ({!Pet_pet.Workflow.provider}: engine on the
   BDD backend, Algorithm 1 over every realistic eligible valuation for
   the atlas, Algorithm 2 for the profile) for each of the four case
   studies and 24 corpus forms. Respondent flows then arrive at a
   fixed rate, exactly as on the TCP workloads, and are served on this
   one thread: a consent report ({!Pet_pet.Workflow.report_for}) and,
   a think gap later, the submission of its first option
   ({!Pet_pet.Workflow.submit}). *)

module Workflow = Pet_pet.Workflow
module Total = Pet_valuation.Total

type form = { case : string; exposure : Pet_rules.Exposure.t }

(* The 24 corpus forms come from corpus seed 0, sizes 8 to 12 in turn;
   the run's seed only draws the respondents. Sizes stop at 12: a size-13
   or 14 form took from 25 ms to 1.5 s to build depending on its rules,
   which would let one form decide set-up time. *)
let corpus_sizes = [| 8; 9; 10; 11; 12 |]

let forms () =
  let case name exposure = { case = name; exposure } in
  [
    case "running" (Pet_casestudies.Running.exposure ());
    case "hcov" (Pet_casestudies.Hcov.exposure ());
    case "loan" (Pet_casestudies.Loan.exposure ());
    case "rsa" (Pet_casestudies.Rsa.exposure ());
  ]
  @ List.init 24 (fun i ->
        let f = Pet_corpus.Corpus.form ~seed:0 ~size:corpus_sizes.(i mod 5) i in
        case "corpus" (Pet_rules.Spec.parse_exn f.text))

let build forms =
  List.map (fun f -> (f, Workflow.provider ~backend:Pet_rules.Engine.Bdd f.exposure)) forms

(* Respondents: every eligible valuation of the case studies, plus 500
   eligible corpus valuations, all fixed; the run's seed shuffles their
   order. *)
let respondents ~seed built =
  let cases, corpus = List.partition (fun (f, _) -> f.case <> "corpus") built in
  let from_cases =
    List.concat_map
      (fun (f, p) -> List.map (fun v -> (f, p, v)) (Pet_rules.Exposure.eligible f.exposure))
      cases
  in
  let corpus = Array.of_list corpus in
  let rng = Random.State.make [| 0; 6 |] in
  let rec draw acc n =
    if n = 0 then acc
    else
      let f, p = corpus.(Random.State.int rng (Array.length corpus)) in
      let u = Pet_rules.Exposure.xp f.exposure in
      let v = Total.of_bits u (Random.State.int rng (1 lsl Pet_valuation.Universe.size u)) in
      match Pet_minimize.Atlas.find_player (Workflow.atlas p) v with
      | Some _ -> draw ((f, p, v) :: acc) (n - 1)
      | None -> draw acc n
  in
  let all = Array.of_list (from_cases @ draw [] 500) in
  let order = Random.State.make [| seed; 7 |] in
  for i = Array.length all - 1 downto 1 do
    let j = Random.State.int order (i + 1) in
    let x = all.(i) in
    all.(i) <- all.(j);
    all.(j) <- x
  done;
  all

let steps = 2.

exception Wrong of string

(* One report and its submission; the submitted first option must be
   granted exactly the benefits the report promised. *)
let report p v =
  match Workflow.report_for p v with
  | Ok r -> r
  | Error m -> raise (Wrong ("report_for: " ^ m))

let submit p (r : Pet_pet.Report.t) =
  let o = List.hd r.options in
  match Workflow.submit p o.mas with
  | Ok g when g.benefits = r.granted -> ()
  | Ok _ -> raise (Wrong "submit: granted benefits differ from the report")
  | Error m -> raise (Wrong ("submit: " ^ m))

(* Every 20th report is checked afterwards with [Algorithm1.is_minimal]:
   each option it offers must be a ≤-minimal form for the benefits. *)
let check_minimal (p, (r : Pet_pet.Report.t)) =
  List.iter
    (fun (o : Pet_pet.Report.option_report) ->
      if not (Pet_minimize.Algorithm1.is_minimal (Workflow.engine p) o.mas ~benefits:o.benefits)
      then raise (Wrong ("a reported option is not minimal: " ^ Pet_valuation.Partial.to_string o.mas)))
    r.options

(* The open loop on this thread. A request starts when it is due and
   the thread is free; its latency runs from its due time, and the
   generator's lateness is the time the thread was free but the request
   had not started (a stall, loop overhead). The thread waits for a due
   time with {!Sched.wait_until}, so the kernel's timer slack on waking
   a sleeper is not charged to the pipeline. *)
let run respondents ~rate ~warmup ~duration =
  let now = Sched.now in
  let rc = Phase.recorder ~warmup ~duration in
  let m1 = rc.w1 in
  let interval = Sched.flow_interval ~rate ~steps in
  let n = Array.length respondents in
  let heap = Sched.Heap.create () in
  let checks = ref [] in
  let arrival = ref 0 and free_since = ref rc.t0 in
  let arrival_due () = Sched.flow_due ~t0:rc.t0 ~interval !arrival in
  let backlog t =
    let due_arrivals = max 0 (int_of_float ((Float.min t m1 -. rc.t0) /. interval) + 1 - !arrival) in
    due_arrivals + Sched.Heap.count_due heap t
  in
  let exec ~flow ~meth ~due f =
    let sent = now () in
    Phase.backlog rc ~t:sent (backlog sent);
    let x = f () in
    let reply = now () in
    Phase.sent rc ~free_since:!free_since { Phase.flow; meth; conn = 0; due; sent; reply; code = None };
    free_since := reply;
    (x, reply)
  in
  let rec loop () =
    let next = Float.min (if arrival_due () < m1 then arrival_due () else infinity) (Sched.Heap.top_key heap) in
    if next < infinity then begin
      if next > now () then (Sched.wait_until next; free_since := next);
      if Sched.Heap.top_key heap <= arrival_due () || arrival_due () >= m1 then begin
        let due, (flow, first_due, p, r) = Sched.Heap.pop heap in
        let (), reply = exec ~flow ~meth:"submit_form" ~due (fun () -> submit p r) in
        Phase.finished rc { Phase.kind = "respondent"; first_due; last_reply = reply; steps = 2 }
      end
      else begin
        let due = arrival_due () in
        let flow = !arrival in
        incr arrival;
        let _, p, v = respondents.(flow mod n) in
        let r, reply = exec ~flow ~meth:"get_report" ~due (fun () -> report p v) in
        if flow mod 20 = 0 then checks := (p, r) :: !checks;
        Sched.Heap.push heap (Sched.step_due ~reply) (flow, due, p, r)
      end;
      loop ()
    end
  in
  loop ();
  (Phase.close rc, !checks)
