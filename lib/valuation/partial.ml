type t = { u : Universe.t; dom : int; bits : int }

let universe w = w.u
let domain_mask w = w.dom
let bits w = w.bits

let of_masks u ~dom ~bits =
  let n = Universe.size u in
  if dom < 0 || dom lsr n <> 0 then
    invalid_arg "Partial.of_masks: domain outside the universe";
  if bits land lnot dom <> 0 then
    invalid_arg "Partial.of_masks: value bits outside the domain";
  { u; dom; bits }

let empty u = { u; dom = 0; bits = 0 }

let of_assoc u assoc =
  List.fold_left
    (fun w (name, value) ->
      let i = Universe.index u name in
      let mask = 1 lsl i in
      if w.dom land mask <> 0 then begin
        let existing = w.bits land mask <> 0 in
        if Bool.equal existing value then w
        else invalid_arg ("Partial.of_assoc: contradictory binding for " ^ name)
      end
      else
        {
          w with
          dom = w.dom lor mask;
          bits = (if value then w.bits lor mask else w.bits);
        })
    (empty u) assoc

let of_total v =
  let u = Total.universe v in
  { u; dom = (1 lsl Universe.size u) - 1; bits = Total.bits v }

let of_string u s =
  let n = Universe.size u in
  if String.length s <> n then invalid_arg "Partial.of_string: length mismatch";
  let dom = ref 0 and bits = ref 0 in
  String.iteri
    (fun i c ->
      match c with
      | '1' ->
        dom := !dom lor (1 lsl i);
        bits := !bits lor (1 lsl i)
      | '0' -> dom := !dom lor (1 lsl i)
      | '_' -> ()
      | _ -> invalid_arg "Partial.of_string: expected '0', '1' or '_'")
    s;
  { u; dom = !dom; bits = !bits }

let is_total w = w.dom = (1 lsl Universe.size w.u) - 1

let to_total w =
  if is_total w then Some (Total.of_bits w.u w.bits) else None

let value_at w i =
  if i < 0 || i >= Universe.size w.u then
    invalid_arg "Partial.value_at: out of range";
  if (w.dom lsr i) land 1 = 0 then None else Some ((w.bits lsr i) land 1 = 1)

let value w name = value_at w (Universe.index w.u name)
let defines w name = (w.dom lsr Universe.index w.u name) land 1 = 1

let domain w =
  List.filteri
    (fun i _ -> (w.dom lsr i) land 1 = 1)
    (Universe.names w.u)

let blanks w =
  List.filteri
    (fun i _ -> (w.dom lsr i) land 1 = 0)
    (Universe.names w.u)

let domain_size w = Universe.popcount w.dom
let blank_count w = Universe.size w.u - domain_size w

let set w name value =
  let i = Universe.index w.u name in
  let mask = 1 lsl i in
  if w.dom land mask <> 0 then
    if Bool.equal (w.bits land mask <> 0) value then w
    else invalid_arg ("Partial.set: " ^ name ^ " already set to the other value")
  else
    {
      w with
      dom = w.dom lor mask;
      bits = (if value then w.bits lor mask else w.bits);
    }

let unset w name =
  let i = Universe.index w.u name in
  let mask = 1 lsl i in
  { w with dom = w.dom land lnot mask; bits = w.bits land lnot mask }

let restrict w names =
  let keep = ref 0 in
  List.iter
    (fun name ->
      match Universe.index_opt w.u name with
      | Some i -> keep := !keep lor (1 lsl i)
      | None -> ())
    names;
  { w with dom = w.dom land !keep; bits = w.bits land !keep }

let bindings w =
  List.filter_map
    (fun name ->
      match value w name with Some b -> Some (name, b) | None -> None)
    (Universe.names w.u)

let merge a b =
  let common = a.dom land b.dom in
  if a.bits land common <> b.bits land common then None
  else Some { a with dom = a.dom lor b.dom; bits = a.bits lor b.bits }

let subvaluation w v =
  w.dom land v.dom = w.dom && v.bits land w.dom = w.bits

let strict_subvaluation w v = subvaluation w v && w.dom <> v.dom

let extends_total w v = Total.bits v land w.dom = w.bits

let extensions w =
  let n = Universe.size w.u in
  let free = lnot w.dom land ((1 lsl n) - 1) in
  (* Enumerate subsets of the free mask and overlay them on the fixed
     bits; the classic subset-enumeration loop. *)
  let rec go sub acc =
    let v = Total.of_bits w.u (w.bits lor sub) in
    let acc = v :: acc in
    if sub = 0 then acc else go ((sub - 1) land free) acc
  in
  List.sort Total.compare (go free [])

let count_extensions w = 1 lsl blank_count w

let to_formula w =
  Pet_logic.Formula.conj
    (List.map
       (fun (name, b) ->
         let v = Pet_logic.Formula.var name in
         if b then v else Pet_logic.Formula.neg v)
       (bindings w))

let equal a b = a.dom = b.dom && a.bits = b.bits

let compare a b =
  let c = Int.compare a.dom b.dom in
  if c <> 0 then c else Int.compare a.bits b.bits

(* Alphabet order: _ < 0 < 1, first variable most significant. *)
let char_rank w i =
  if (w.dom lsr i) land 1 = 0 then 0
  else if (w.bits lsr i) land 1 = 0 then 1
  else 2

(* Value bits lie inside the domain, so the two words differ in rank
   exactly where their domain or value bits differ, and the lowest such
   position decides. *)
let compare_lex_words dom bits dom' bits' =
  let diff = (dom lxor dom') lor (bits lxor bits') in
  if diff = 0 then 0
  else
    let p = diff land -diff in
    let rank = if dom land p = 0 then 0 else if bits land p = 0 then 1 else 2
    and rank' =
      if dom' land p = 0 then 0 else if bits' land p = 0 then 1 else 2
    in
    Int.compare rank rank'

let compare_lex a b = compare_lex_words a.dom a.bits b.dom b.bits

let to_string w =
  String.init (Universe.size w.u) (fun i ->
      match char_rank w i with 0 -> '_' | 1 -> '0' | _ -> '1')

let pp ppf w = Fmt.string ppf (to_string w)
