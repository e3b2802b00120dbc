module Atlas = Pet_minimize.Atlas
module Cells = Pet_minimize.Cells

(* Both arrays are {!Cells}, as narrow as their largest values allow.
   The aggregate of MAS [m]'s crowd (see {!Crowd}) is the three cells
   from [3 * m]: its [ones], [zeros] and [count], side by side, and one
   array rather than three saves a block per profile. A crowd's [zeros]
   is the OR of its members' complements. The cells are at least as
   wide as the OR of every player's word, so a non-empty crowd's
   [zeros] has every bit above the cells' capacity set, and an empty
   one's is 0. The cell keeps the bits within its capacity and [zeros]
   puts the rest back from [count]. *)
type t = {
  atlas : Atlas.t;
  moves : Cells.t; (* player index -> mas index *)
  crowds : Cells.t;
}

(* Cell [i] of [c], unchecked: callers check [i] against the atlas. *)
let[@inline] cell c i =
  if Cells.byte c 0 = '\002' then Cells.get16 c ((2 * i) + 2)
  else Int32.to_int (Cells.get32 c ((4 * i) + 4))

let[@inline] ones t m = cell t.crowds (3 * m)
let[@inline] count t m = cell t.crowds ((3 * m) + 2)

let[@inline] zeros t m =
  if count t m = 0 then 0
  else cell t.crowds ((3 * m) + 1) lor lnot (Cells.capacity t.crowds)

let set_aggregate t m ~ones ~zeros ~count =
  Cells.set t.crowds (3 * m) ones;
  Cells.set t.crowds ((3 * m) + 1) (zeros land Cells.capacity t.crowds);
  Cells.set t.crowds ((3 * m) + 2) count

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
  set_aggregate t m ~ones:!ones ~zeros:!zeros ~count:!count

let make atlas moves =
  let np = Atlas.player_count atlas and nm = Atlas.mas_count atlas in
  if Array.length moves < np then
    invalid_arg "Profile.make: fewer moves than players";
  (* Players ascend, so no word has a bit above the last one's highest:
     [words] sets that bit and every lower one, so no crowd's [ones]
     exceeds it. *)
  let words =
    if np = 0 then 0
    else
      let top = Atlas.player_bits atlas (np - 1) in
      let rec fill w = if w >= top then w else fill ((2 * w) + 1) in
      fill 0
  in
  let t =
    {
      atlas;
      moves = Cells.create ~max:(nm - 1) np;
      crowds = Cells.create ~max:(Int.max words np) (3 * nm);
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
    crowds = Cells.copy t.crowds;
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
    set_aggregate t m ~ones:(ones t m lor bits)
      ~zeros:(zeros t m lor lnot bits) ~count:(count t m + 1);
    recount t from
  end

let atlas t = t.atlas

let move_of t i =
  if i < 0 || i >= Cells.length t.moves then
    invalid_arg "Profile.move_of: out of range";
  cell t.moves i

let check_mas t m name =
  if m < 0 || m >= Atlas.mas_count t.atlas then
    invalid_arg ("Profile." ^ name ^ ": out of range")

let aggregate t m =
  check_mas t m "aggregate";
  Crowd.make ~ones:(ones t m) ~zeros:(zeros t m) ~count:(count t m)

let crowd_size t m =
  check_mas t m "crowd_size";
  count t m

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
