let on = ref false

let enabled () = !on
let enable () = on := true
let disable () = on := false

let clock = ref Unix.gettimeofday
let set_clock f = clock := f
let now () = !clock ()

let logical_clock () =
  let tick = Atomic.make 0 in
  fun () -> float_of_int (Atomic.fetch_and_add tick 1 + 1)

(* Prometheus label-value escaping: exactly backslash, double-quote and
   newline (the exposition format's own list — OCaml's %S would emit
   \ddd decimal escapes a scraper rejects). Plain identifiers render
   unchanged, so existing keys keep their bytes. *)
let escape_label v =
  let plain =
    let rec go i =
      i >= String.length v
      || (match v.[i] with '\\' | '"' | '\n' -> false | _ -> go (i + 1))
    in
    go 0
  in
  if plain then v
  else begin
    let buf = Buffer.create (String.length v + 2) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '"' -> Buffer.add_string buf "\\\""
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      v;
    Buffer.contents buf
  end

(* Rendered identity: name{k="v",...} with labels in the given order.
   Call sites pass stable label lists, so no sorting is needed for
   idempotence — the same call site always renders the same key. *)
let render name labels =
  match labels with
  | [] -> name
  | _ ->
    let fields =
      List.map
        (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v))
        labels
    in
    Printf.sprintf "%s{%s}" name (String.concat "," fields)

(* --- Buckets -------------------------------------------------------------- *)

let n_buckets = 40

let bucket_bounds =
  Array.init n_buckets (fun i ->
      if i = n_buckets - 1 then infinity
      else 1e-6 *. float_of_int (1 lsl i))

let bucket_of v =
  let v = if v < 0. then 0. else v in
  let rec go i =
    if i >= n_buckets - 1 || v <= bucket_bounds.(i) then i else go (i + 1)
  in
  go 0

(* --- Instruments ----------------------------------------------------------- *)

(* Domain safety: counters are atomic, histograms take a per-instrument
   mutex, and the registry itself is guarded for concurrent register /
   snapshot / reset. Gauges stay plain mutable floats — a float store is
   a single word in the OCaml memory model, so concurrent writers can
   only race to last-writer-wins, never tear. *)

type counter = { c : int Atomic.t }
type gauge = { mutable g : float }

type histogram = {
  hm : Mutex.t;
  counts : int array;
  mutable n : int;
  mutable sum : float;
  mutable hmax : float;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64
let registry_m = Mutex.create ()

(* Help strings are keyed by metric family (the name without labels),
   first writer wins — labeled variants of one family share one line of
   exposition, matching Prometheus' one-HELP-per-family rule. *)
let help_table : (string, string) Hashtbl.t = Hashtbl.create 64

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let set_help name text =
  locked registry_m @@ fun () ->
  if not (Hashtbl.mem help_table name) then Hashtbl.add help_table name text

let help name = locked registry_m @@ fun () -> Hashtbl.find_opt help_table name

let register key make cast =
  locked registry_m @@ fun () ->
  match Hashtbl.find_opt registry key with
  | Some i -> (
    match cast i with
    | Some v -> v
    | None -> invalid_arg ("Metrics: " ^ key ^ " registered with another type"))
  | None ->
    let v = make () in
    Hashtbl.add registry key
      (match v with
      | `C c -> Counter c
      | `G g -> Gauge g
      | `H h -> Histogram h);
    (match cast (Hashtbl.find registry key) with
    | Some v -> v
    | None -> assert false)

let counter ?(labels = []) ?help name =
  Option.iter (set_help name) help;
  register (render name labels)
    (fun () -> `C { c = Atomic.make 0 })
    (function Counter c -> Some c | _ -> None)

let incr c = if !on then Atomic.incr c.c
let add c n = if !on && n > 0 then ignore (Atomic.fetch_and_add c.c n)
let counter_value c = Atomic.get c.c

let gauge ?(labels = []) ?help name =
  Option.iter (set_help name) help;
  register (render name labels)
    (fun () -> `G { g = 0. })
    (function Gauge g -> Some g | _ -> None)

let set_gauge g v = if !on then g.g <- v
let gauge_value g = g.g

let histogram ?(labels = []) ?help name =
  Option.iter (set_help name) help;
  register (render name labels)
    (fun () ->
      `H
        {
          hm = Mutex.create ();
          counts = Array.make n_buckets 0;
          n = 0;
          sum = 0.;
          hmax = 0.;
        })
    (function Histogram h -> Some h | _ -> None)

let observe h v =
  if !on then begin
    let v = if v < 0. then 0. else v in
    let b = bucket_of v in
    locked h.hm @@ fun () ->
    h.counts.(b) <- h.counts.(b) + 1;
    h.n <- h.n + 1;
    h.sum <- h.sum +. v;
    if v > h.hmax then h.hmax <- v
  end

let time_on clock h f =
  if not !on then f ()
  else begin
    let t0 = clock () in
    match f () with
    | r ->
      observe h (clock () -. t0);
      r
    | exception e ->
      observe h (clock () -. t0);
      raise e
  end

let time h f = time_on now h f
let time_wall h f = time_on Unix.gettimeofday h f

(* --- Snapshots ---------------------------------------------------------------- *)

type hist_stats = {
  count : int;
  sum : float;
  max : float;
  buckets : (float * int) list;
}

let quantile h q =
  if h.count = 0 then 0.
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int h.count)) in
      if r < 1 then 1 else if r > h.count then h.count else r
    in
    let rec go seen = function
      | [] -> h.max
      | (bound, n) :: rest ->
        if seen + n >= rank then Float.min bound h.max else go (seen + n) rest
    in
    go 0 h.buckets
  end

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist_stats) list;
}

let hist_stats h =
  locked h.hm @@ fun () ->
  let buckets = ref [] in
  for i = n_buckets - 1 downto 0 do
    if h.counts.(i) > 0 then
      buckets := (bucket_bounds.(i), h.counts.(i)) :: !buckets
  done;
  { count = h.n; sum = h.sum; max = h.hmax; buckets = !buckets }

let snapshot () =
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  (locked registry_m @@ fun () ->
   Hashtbl.iter
     (fun key instrument ->
       match instrument with
       | Counter c -> counters := (key, Atomic.get c.c) :: !counters
       | Gauge g -> gauges := (key, g.g) :: !gauges
       | Histogram h -> histograms := (key, hist_stats h) :: !histograms)
     registry);
  let by_name (a, _) (b, _) = String.compare a b in
  {
    counters = List.sort by_name !counters;
    gauges = List.sort by_name !gauges;
    histograms = List.sort by_name !histograms;
  }

let reset () =
  locked registry_m @@ fun () ->
  Hashtbl.iter
    (fun _ instrument ->
      match instrument with
      | Counter c -> Atomic.set c.c 0
      | Gauge g -> g.g <- 0.
      | Histogram h ->
        locked h.hm @@ fun () ->
        Array.fill h.counts 0 n_buckets 0;
        h.n <- 0;
        h.sum <- 0.;
        h.hmax <- 0.)
    registry
