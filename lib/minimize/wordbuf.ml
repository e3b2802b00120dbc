type t = { mutable a : int array; mutable len : int }

let create () = { a = Array.make 64 0; len = 0 }
let clear b = b.len <- 0

let push b x =
  if b.len = Array.length b.a then begin
    let a = Array.make (2 * b.len) 0 in
    Array.blit b.a 0 a 0 b.len;
    b.a <- a
  end;
  b.a.(b.len) <- x;
  b.len <- b.len + 1

let truncate b k =
  if k < 0 || k > b.len then invalid_arg "Wordbuf.truncate";
  b.len <- k

let rec sift a i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && a.(l + 1) > a.(l) then l + 1 else l in
    if a.(c) > a.(i) then begin
      let x = a.(i) in
      a.(i) <- a.(c);
      a.(c) <- x;
      sift a c n
    end
  end

let sort_unique b =
  let a = b.a and n = b.len in
  for i = (n / 2) - 1 downto 0 do
    sift a i n
  done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift a 0 last
  done;
  if n > 0 then begin
    let kept = ref 1 in
    for k = 1 to n - 1 do
      if a.(k) <> a.(!kept - 1) then begin
        a.(!kept) <- a.(k);
        incr kept
      end
    done;
    b.len <- !kept
  end

let to_array b = Array.sub b.a 0 b.len
