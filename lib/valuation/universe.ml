type t = { names : string array; indices : (string, int) Hashtbl.t }

let max_size = 60

let of_names names =
  if names = [] then invalid_arg "Universe.of_names: empty";
  if List.length names > max_size then
    invalid_arg "Universe.of_names: more than 60 names";
  let indices = Hashtbl.create (List.length names) in
  List.iteri
    (fun i name ->
      if Hashtbl.mem indices name then
        invalid_arg ("Universe.of_names: duplicate name " ^ name);
      Hashtbl.add indices name i)
    names;
  { names = Array.of_list names; indices }

let size u = Array.length u.names
let names u = Array.to_list u.names

let name u i =
  if i < 0 || i >= size u then invalid_arg "Universe.name: out of range";
  u.names.(i)

let index u x =
  match Hashtbl.find_opt u.indices x with
  | Some i -> i
  | None -> raise Not_found

let index_opt u x = Hashtbl.find_opt u.indices x
let mem u x = Hashtbl.mem u.indices x

let equal a b =
  Array.length a.names = Array.length b.names
  && Array.for_all2 String.equal a.names b.names

let union a b = of_names (names a @ names b)

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

let pp ppf u = Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma string) (names u)
