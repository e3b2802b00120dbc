(* Open-loop schedule arithmetic.

   Flows arrive at a fixed rate whatever the server does; inside a flow
   step k+1 is due [think] seconds after the reply to step k. Every
   request is timed from its due time, so a stall delays every request
   that fell due during it (no coordinated omission), and the
   generator's own lateness — the gap between due and send — is
   reported separately so a slow generator voids a run instead of
   flattering the server. *)

let think = 0.001

(* Seconds on the monotonic clock, at nanosecond resolution (the
   substrate's requests take tens of microseconds). *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Wait until [t]: sleep to [spin] seconds short of it, then poll the
   clock. A sleeper is woken up to the kernel's timer slack (50 µs by
   default) late, on a busy virtual machine later still. *)
let spin = 0.0003

let wait_until t =
  let d = t -. now () -. spin in
  if d > 0. then Unix.sleepf d;
  while now () < t do
    ()
  done

(* Seconds between flow arrivals when [rate] requests per second are
   offered by flows of [steps] requests on average. *)
let flow_interval ~rate ~steps = steps /. rate

let flow_due ~t0 ~interval i = t0 +. (float_of_int i *. interval)
let step_due ~reply = reply +. think
let lateness ~due ~sent = Float.max 0. (sent -. due)

(* A respondent's own wait through a flow: the last reply less the first
   due time and the think gaps between steps — which is the sum of the
   per-step latencies, since each step is due [think] after the reply
   before it. *)
let flow_wait ~first_due ~last_reply ~steps =
  last_reply -. first_due -. (float_of_int (steps - 1) *. think)

(* A binary min-heap of due times. *)
module Heap = struct
  type 'a t = { mutable keys : float array; mutable vals : 'a array; mutable n : int }

  let create () = { keys = [||]; vals = [||]; n = 0 }
  let is_empty h = h.n = 0
  let top_key h = if h.n = 0 then infinity else h.keys.(0)

  (* Entries due by [t]. *)
  let count_due h t =
    let k = ref 0 in
    for i = 0 to h.n - 1 do
      if h.keys.(i) <= t then incr k
    done;
    !k

  let swap h i j =
    let k = h.keys.(i) and v = h.vals.(i) in
    h.keys.(i) <- h.keys.(j);
    h.vals.(i) <- h.vals.(j);
    h.keys.(j) <- k;
    h.vals.(j) <- v

  let push h key v =
    if h.n = Array.length h.keys then begin
      let cap = max 16 (2 * h.n) in
      let keys = Array.make cap infinity and vals = Array.make cap v in
      Array.blit h.keys 0 keys 0 h.n;
      Array.blit h.vals 0 vals 0 h.n;
      h.keys <- keys;
      h.vals <- vals
    end;
    h.keys.(h.n) <- key;
    h.vals.(h.n) <- v;
    let rec up i =
      let p = (i - 1) / 2 in
      if i > 0 && h.keys.(p) > h.keys.(i) then (swap h i p; up p)
    in
    up h.n;
    h.n <- h.n + 1

  let pop h =
    if h.n = 0 then invalid_arg "Heap.pop";
    let key = h.keys.(0) and v = h.vals.(0) in
    h.n <- h.n - 1;
    swap h 0 h.n;
    let rec down i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      let m = if l < h.n && h.keys.(l) < h.keys.(i) then l else i in
      let m = if r < h.n && h.keys.(r) < h.keys.(m) then r else m in
      if m <> i then (swap h i m; down m)
    in
    down 0;
    (key, v)
end
