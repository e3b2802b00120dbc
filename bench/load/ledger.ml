(* Per-layer timings for the traced run, taken from this file around
   calls into each layer's public functions.

   - [replay]: a workload's flows replayed in one thread through the
     protocol decoders, [Service.handle_line] on a durable service whose
     sink times [Store.sink], then [Store.read], [Service.apply_event]
     and [Audit.run] over the data directory it wrote.
   - [tenant_builds]: publish → [tenant {wait:true}] for forms published
     as tenants, in this process.
   - [substrate]: engine compilation, atlas, Algorithm 1, Algorithm 2
     and consent reports per case study. *)

module Service = Pet_server.Service
module Proto = Pet_server.Proto
module Store = Pet_store.Store
module Workflow = Pet_pet.Workflow
module Engine = Pet_rules.Engine

let us = 1e6
let ms = 1e3

let time f =
  let t0 = Sched.now () in
  let x = f () in
  (x, Sched.now () -. t0)

(* Sample lists keyed by name, in seconds. *)
module Samples = struct
  type t = (string, float list ref) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let add (t : t) name v =
    match Hashtbl.find_opt t name with
    | Some l -> l := v :: !l
    | None -> Hashtbl.add t name (ref [ v ])

  let get (t : t) name = Stats.sorted (Array.of_list (Option.fold ~none:[] ~some:( ! ) (Hashtbl.find_opt t name)))
end

(* Quantile [q] of samples in seconds, as a metric in µs. *)
let us_at q name sorted = Phase.percentile_exn ~scale:us ~unit:"us" name sorted q

(* --- In-process replay ----------------------------------------------------------- *)

let methods = [ "new_session"; "get_report"; "choose_option"; "submit_form" ]

type replay = {
  metrics : Phase.metric list;
  service_p50 : (string * float) list;  (** per method, seconds: for the net residual *)
}

(* [setup] publishes the workload's forms into the service and returns
   its flow maker; [flows] flows are replayed, alternating observability
   on (as [pet serve] runs) and off. Service metrics come from the flows
   with observability on; the off flows only give its cost. *)
let replay ~dir ~expected ~flows ~setup =
  Spawn.rm_rf dir;
  let store =
    match Store.open_dir ~fsync:true dir with
    | Ok (store, _) -> store
    | Error m -> failwith ("replay store: " ^ m)
  in
  let svc = Service.create ~durable:true ~now:Unix.gettimeofday () in
  let samples = Samples.create () in
  let in_sink = ref 0. and events = ref 0 in
  let sink = Store.sink store in
  Service.set_sink svc
    {
      Pet_server.Persist.emit =
        (fun e ->
          let (), dt = time (fun () -> sink.emit e) in
          in_sink := !in_sink +. dt;
          incr events;
          Samples.add samples "append" dt);
    };
  Pet_obs.Trace.enable ();
  let flow_of = setup svc in
  let lines = ref 0 and fast = ref 0 in
  let run_flow ~obs (flow : Flows.flow) =
    if obs then Pet_obs.Metrics.enable () else Pet_obs.Metrics.disable ();
    let rec go session = function
      | [] -> ()
      | (st : Flows.step) :: rest -> (
        let line = Wire.request ~id:(Client.fresh_id ()) st.meth (st.params ~session) in
        let accepted, dt = time (fun () -> Proto.decode_fast line) in
        incr lines;
        if accepted <> None then incr fast;
        Samples.add samples "decode_fast" dt;
        let _, dt = time (fun () -> Proto.decode line) in
        Samples.add samples "decode" dt;
        in_sink := 0.;
        let reply, dt = time (fun () -> Service.handle_line svc line) in
        if obs then begin
          Samples.add samples st.meth dt;
          Samples.add samples (st.meth ^ ".self") (dt -. !in_sink)
        end
        else Samples.add samples (st.meth ^ ".obs_off") dt;
        match Wire.error_code reply with
        | Some c when List.mem c expected -> ()
        | Some c -> failwith (Printf.sprintf "replay: %s answered %s" st.meth c)
        | None ->
          let session =
            if st.meth = "new_session" then Option.get (Wire.string_field reply "session")
            else session
          in
          go session rest)
    in
    go "" flow.steps
  in
  for i = 0 to (2 * flows) - 1 do
    run_flow ~obs:(i mod 2 = 0) (flow_of (i / 2))
  done;
  Pet_obs.Metrics.enable ();
  Pet_obs.Trace.disable ();
  let reg = Service.registry_stats svc in
  Service.shutdown svc;
  Store.close store;
  (* recovery's two halves, then the offline audit, on what was written *)
  let recovered, read_s =
    time (fun () -> match Store.read dir with Ok r -> r | Error m -> failwith ("replay read: " ^ m))
  in
  let fresh = Service.create ~durable:true ~now:Unix.gettimeofday () in
  let (), apply_s =
    time (fun () ->
        List.iter
          (fun e ->
            match Service.apply_event fresh e with
            | Ok () -> ()
            | Error m -> failwith ("replay apply_event: " ^ m))
          recovered.events)
  in
  Service.shutdown fresh;
  let report, audit_s =
    time (fun () ->
        match Pet_audit.Audit.run dir with Ok r -> r | Error m -> failwith ("replay audit: " ^ m))
  in
  if not (Pet_audit.Audit.pass report) then
    failwith (Format.asprintf "replay audit failed:@.%a" Pet_audit.Audit.pp report);
  let get = Samples.get samples in
  let per_method =
    List.concat_map
      (fun m ->
        [
          us_at 0.5 ("service." ^ m ^ ".p50_us") (get m);
          us_at 0.9 ("service." ^ m ^ ".p90_us") (get m);
          us_at 0.5 ("service." ^ m ^ ".self_p50_us") (get (m ^ ".self"));
        ])
      methods
  in
  let median_us k = (us_at 0.5 k (get k)).value in
  let metrics =
    [
      us_at 0.5 "store.append_p50_us" (get "append");
      us_at 0.99 "store.append_p99_us" (get "append");
      Phase.metric "store.bytes_per_event" "B" (float_of_int (Spawn.dir_bytes dir) /. float_of_int (max 1 !events));
      Phase.metric "store.read_ms" "ms" (ms *. read_s);
      us_at 0.5 "proto.decode_p50_us" (get "decode");
      us_at 0.5 "proto.decode_fast_p50_us" (get "decode_fast");
      Phase.metric "proto.fast_share" "ratio" (float_of_int !fast /. float_of_int (max 1 !lines));
    ]
    @ per_method
    @ [
        Phase.metric "service.replay_ms" "ms" (ms *. apply_s);
        Phase.metric "registry.hit_share" "ratio" (float_of_int reg.hits /. float_of_int (max 1 (reg.hits + reg.misses)));
        Phase.metric "registry.evictions" "count" (float_of_int reg.evictions);
        Phase.metric "audit.records_per_s" "1/s" (float_of_int report.records /. audit_s);
        Phase.metric "obs.cost_p50_us" "us" (median_us "get_report" -. median_us "get_report.obs_off");
      ]
  in
  { metrics; service_p50 = List.map (fun m -> (m, median_us m /. us)) methods }

(* --- Tenant builds ---------------------------------------------------------------- *)

(* Publish each (name, rules) as a tenant of a fresh service and wait for
   its build: the tenant layer's publish → ready time. *)
let tenant_builds forms =
  let svc = Service.create ~now:Unix.gettimeofday () in
  let req meth params = Wire.request ~id:(Client.fresh_id ()) meth params in
  let times =
    List.map
      (fun (name, text) ->
        let reply, dt =
          time (fun () ->
              ignore
                (Service.handle_line svc
                   (req "publish_rules"
                      (Printf.sprintf {|"rules":%s,"tenant":%s|} (Wire.quote text) (Wire.quote name))));
              Service.handle_line svc (req "tenant" (Flows.wait_tenant name)))
        in
        if Wire.string_field reply "state" <> Some "ready" then
          failwith ("tenant build of " ^ name ^ ": " ^ reply);
        dt)
      forms
  in
  Service.shutdown svc;
  let a = Stats.sorted (Array.of_list times) in
  [
    Phase.metric "tenant.build_p50_ms" "ms" (ms *. Stats.median a);
    Phase.metric "tenant.build_max_ms" "ms" (ms *. a.(Array.length a - 1));
  ]

(* --- Substrate timings ------------------------------------------------------------ *)

(* Up to 400 of a form's eligible valuations, repeated to at least 200
   calls so a tiny form still yields a median. *)
let calls l =
  let l = List.filteri (fun i _ -> i < 400) l in
  List.concat (List.init (max 1 (200 / max 1 (List.length l))) (fun _ -> l))

(* Per case: engine compilation (BDD), atlas, Algorithm 2 — totals over
   the case's forms — and Algorithm 1 and consent reports per call. The
   corpus case is the 24 corpus forms of the substrate workload. *)
let substrate () =
  let forms = Substrate.forms () in
  let cases = [ "running"; "hcov"; "loan"; "rsa"; "corpus" ] in
  let per_case case =
    let exposures = List.filter_map (fun (f : Substrate.form) -> if f.case = case then Some f.exposure else None) forms in
    let create = ref 0. and atlas = ref 0. and algorithm2 = ref 0. in
    let mas = ref [] and reports = ref [] in
    List.iter
      (fun e ->
        let engine, dt = time (fun () -> Engine.create ~backend:Engine.Bdd e) in
        create := !create +. dt;
        let a, dt = time (fun () -> Pet_minimize.Atlas.build engine) in
        atlas := !atlas +. dt;
        let _, dt = time (fun () -> Pet_game.Strategy.compute a) in
        algorithm2 := !algorithm2 +. dt;
        let provider = Workflow.provider ~backend:Engine.Bdd e in
        List.iter
          (fun v ->
            mas := snd (time (fun () -> Pet_minimize.Algorithm1.mas_of engine v)) :: !mas;
            reports := snd (time (fun () -> Workflow.report_for provider v)) :: !reports)
          (calls (Pet_rules.Exposure.eligible e)))
      exposures;
    let sorted l = Stats.sorted (Array.of_list l) in
    [
      Phase.metric ("engine.create_ms." ^ case) "ms" (ms *. !create);
      Phase.metric ("atlas.build_ms." ^ case) "ms" (ms *. !atlas);
      Phase.metric ("algorithm2.compute_ms." ^ case) "ms" (ms *. !algorithm2);
      us_at 0.5 ("algorithm1.mas_of_p50_us." ^ case) (sorted !mas);
      us_at 0.5 ("workflow.report_p50_us." ^ case) (sorted !reports);
    ]
  in
  (* The proof relation per backend on H-cov: 500 partial valuations cut
     from eligible respondents, fixed across runs. *)
  let hcov = Lazy.force Flows.hcov in
  let eligible = Array.of_list (Pet_rules.Exposure.eligible hcov) in
  let universe = Pet_rules.Exposure.xp hcov in
  let benefit = List.hd (Pet_valuation.Universe.names (Pet_rules.Exposure.xb hcov)) in
  let rng = Random.State.make [| 0; 8 |] in
  let partials =
    List.init 500 (fun _ ->
        let v = eligible.(Random.State.int rng (Array.length eligible)) in
        let dom = Random.State.int rng (1 lsl Pet_valuation.Universe.size universe) in
        Pet_valuation.Partial.of_masks universe ~dom ~bits:(Pet_valuation.Total.bits v land dom))
  in
  let entails =
    List.map
      (fun backend ->
        let engine = Engine.create ~backend hcov in
        let t =
          List.map (fun w -> snd (time (fun () -> Engine.entails_benefit engine w benefit))) partials
        in
        us_at 0.5 ("engine.entails_p50_us." ^ Engine.backend_name backend) (Stats.sorted (Array.of_list t)))
      Engine.all_backends
  in
  List.concat_map per_case cases @ entails
