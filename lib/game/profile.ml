module Atlas = Pet_minimize.Atlas
module Cells = Pet_minimize.Cells

(* Every array is 32-bit {!Cells}. A crowd's [zeros] is the OR of its
   members' complements: valuation words have at most 24 bits, so a
   non-empty crowd's [zeros] has every bit from the 24th up set, and an
   empty one's is 0. The cell keeps its low 31 bits and [zeros] puts the
   rest back from [count]. *)
type t = {
  atlas : Atlas.t;
  moves : Cells.t; (* player index -> mas index *)
  (* Per MAS index, the aggregate of its crowd (see {!Crowd}). *)
  ones : Cells.t;
  zeros : Cells.t;
  count : Cells.t;
}

(* Cell [i] of [c], unchecked: callers check [i] against the atlas. *)
let[@inline] cell c i = Int32.to_int (Cells.unsafe_get32 c (4 * i))

let[@inline] zeros t m =
  if cell t.count m = 0 then 0 else cell t.zeros m lor lnot Cells.max_value

let set_zeros t m z = Cells.set t.zeros m (z land Cells.max_value)

let check_choice name atlas i m =
  if not (Atlas.has_choice atlas i m) then
    invalid_arg
      (Printf.sprintf "Profile.%s: MAS %d is not a choice of player %d" name m
         i)

(* Count [m]'s aggregate afresh from the moves of the players that can
   play it. *)
let recount t m =
  let ones = ref 0 and zeros = ref 0 and count = ref 0 in
  for k = 0 to Atlas.crowd_size t.atlas m - 1 do
    let j = Atlas.crowd_member t.atlas m k in
    if cell t.moves j = m then begin
      let bits = Atlas.player_bits t.atlas j in
      ones := !ones lor bits;
      zeros := !zeros lor lnot bits;
      incr count
    end
  done;
  Cells.set t.ones m !ones;
  set_zeros t m !zeros;
  Cells.set t.count m !count

let make atlas moves =
  let np = Atlas.player_count atlas and nm = Atlas.mas_count atlas in
  if Array.length moves < np then
    invalid_arg "Profile.make: fewer moves than players";
  let t =
    {
      atlas;
      moves = Cells.create np;
      ones = Cells.create nm;
      zeros = Cells.create nm;
      count = Cells.create nm;
    }
  in
  for i = 0 to np - 1 do
    check_choice "make" atlas i moves.(i);
    Cells.set t.moves i moves.(i)
  done;
  for m = 0 to nm - 1 do
    recount t m
  done;
  t

let copy t =
  {
    t with
    moves = Cells.copy t.moves;
    ones = Cells.copy t.ones;
    zeros = Cells.copy t.zeros;
    count = Cells.copy t.count;
  }

(* The target's crowd is joined in O(1); an OR cannot be undone, so the
   source's is recounted over the players that can play it. *)
let move t i m =
  if i < 0 || i >= Cells.length t.moves then
    invalid_arg "Profile.move: out of range";
  check_choice "move" t.atlas i m;
  let from = cell t.moves i in
  if from <> m then begin
    Cells.set t.moves i m;
    let bits = Atlas.player_bits t.atlas i in
    Cells.set t.ones m (cell t.ones m lor bits);
    set_zeros t m (zeros t m lor lnot bits);
    Cells.set t.count m (cell t.count m + 1);
    recount t from
  end

let atlas t = t.atlas

let move_of t i =
  if i < 0 || i >= Cells.length t.moves then
    invalid_arg "Profile.move_of: out of range";
  cell t.moves i

let check_mas t m name =
  if m < 0 || m >= Cells.length t.count then
    invalid_arg ("Profile." ^ name ^ ": out of range")

let aggregate t m =
  check_mas t m "aggregate";
  Crowd.make ~ones:(cell t.ones m) ~zeros:(zeros t m) ~count:(cell t.count m)

let crowd_size t m =
  check_mas t m "crowd_size";
  cell t.count m

let crowd t m =
  check_mas t m "crowd";
  let rec go i acc =
    if i < 0 then acc
    else go (i - 1) (if cell t.moves i = m then i :: acc else acc)
  in
  go (Cells.length t.moves - 1) []

let move_of_valuation t v =
  match Atlas.find_player t.atlas v with
  | Some i -> Atlas.mas t.atlas (cell t.moves i)
  | None -> raise Not_found

let equal a b = a.atlas == b.atlas && a.moves = b.moves
