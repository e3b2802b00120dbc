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

let fill b n x =
  if n > Array.length b.a then b.a <- Array.make (max n (2 * Array.length b.a)) x
  else Array.fill b.a 0 n x;
  b.len <- n

let truncate b k =
  if k < 0 || k > b.len then invalid_arg "Wordbuf.truncate";
  b.len <- k

let rec sift before a i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && before a.(l) a.(l + 1) then l + 1 else l in
    if before a.(i) a.(c) then begin
      let x = a.(i) in
      a.(i) <- a.(c);
      a.(c) <- x;
      sift before a c n
    end
  end

let sort_by before b =
  let a = b.a and n = b.len in
  for i = (n / 2) - 1 downto 0 do
    sift before a i n
  done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift before a 0 last
  done

let sort b cmp = sort_by (fun x y -> cmp x y < 0) b

let sort_unique b =
  sort_by (fun (x : int) y -> x < y) b;
  let a = b.a and n = b.len in
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
