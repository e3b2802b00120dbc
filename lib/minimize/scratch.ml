let cap = 1 lsl 14

type t = {
  busy : bool Atomic.t;
  mutable pool : Wordbuf.t array;
  mutable next : int; (* the index of the next buffer to hand out *)
  mutable floats : float array;
}

let fresh () =
  { busy = Atomic.make false; pool = [||]; next = 0; floats = [||] }
let key = Domain.DLS.new_key fresh

let buffer s =
  if s.next = Array.length s.pool then
    s.pool <- Array.append s.pool [| Wordbuf.create () |];
  let b = s.pool.(s.next) in
  s.next <- s.next + 1;
  Wordbuf.clear b;
  b

let array s n x =
  let b = buffer s in
  if n > cap then Array.make n x
  else begin
    Wordbuf.fill b n x;
    b.a
  end

let floats s n =
  if n <= Array.length s.floats then s.floats
  else
    let a = Array.make (max n (2 * Array.length s.floats)) 0. in
    if Array.length a <= cap then s.floats <- a;
    a

let release s =
  Array.iteri
    (fun i (b : Wordbuf.t) ->
      if Array.length b.a > cap then s.pool.(i) <- Wordbuf.create ())
    s.pool;
  Atomic.set s.busy false

let with_scratch f =
  let s = Domain.DLS.get key in
  if Atomic.compare_and_set s.busy false true then begin
    s.next <- 0;
    Fun.protect ~finally:(fun () -> release s) (fun () -> f s)
  end
  else f (fresh ())

let retained_words () =
  let s = Domain.DLS.get key in
  Array.fold_left
    (fun k (b : Wordbuf.t) -> k + Array.length b.a)
    (Array.length s.floats) s.pool
