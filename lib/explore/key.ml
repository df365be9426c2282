(* Packed state keys and their orbit minimum.  See key.mli for the
   layout every machine shares. *)

type t = int array

let hash (k : t) =
  let h = ref (Array.length k) in
  for i = 0 to Array.length k - 1 do
    let x = (!h lxor Array.unsafe_get k i) * 0x2545F4914F6CDD1D in
    h := x lxor (x lsr 29)
  done;
  !h land max_int

let rec equal_from (a : t) (b : t) i =
  i < 0 || (Array.unsafe_get a i = Array.unsafe_get b i && equal_from a b (i - 1))

let equal (a : t) (b : t) =
  a == b || (Array.length a = Array.length b && equal_from a b (Array.length a - 1))

(* --- automorphisms ----------------------------------------------------------- *)

type perm = {
  src_proc : int array;
  dst_proc : int array;
  src_loc : int array;
  dst_loc : int array;
  src_reg : int array array;
  nregs : int array;
}

let invert a =
  let r = Array.make (Array.length a) 0 in
  Array.iteri (fun i j -> r.(j) <- i) a;
  r

let compile (pi : Sym.perm) =
  let src_proc = invert pi.Sym.p_proc in
  {
    src_proc;
    dst_proc = pi.Sym.p_proc;
    src_loc = invert pi.Sym.p_locs;
    dst_loc = pi.Sym.p_locs;
    src_reg = Array.map (fun p -> invert pi.Sym.p_regs.(p)) src_proc;
    nregs = Array.map Array.length pi.Sym.p_regs;
  }

(* --- writing an image -------------------------------------------------------- *)

type out = {
  mutable buf : int array;
  mutable pos : int;
  mutable best : t;  (** the least key so far, compared against while [not less] *)
  mutable less : bool;  (** the image is already below [best] *)
  mutable offs : int array;
  mutable tmp : int array;
}

let out () = { buf = [||]; pos = 0; best = [||]; less = true; offs = [||]; tmp = [||] }

exception Larger

let put o v =
  let i = o.pos in
  o.buf.(i) <- v;
  o.pos <- i + 1;
  if not o.less then begin
    let b = o.best.(i) in
    if v < b then o.less <- true else if v > b then raise_notrace Larger
  end

let grow a n = if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) 0

let scratch o n =
  o.tmp <- grow o.tmp n;
  o.tmp

(* A binding segment's image: image slot [j] is source slot [src.(j)],
   presence bits included. *)
let put_map o (k : t) ~at ~(src : int array) =
  let n = Array.length src in
  let bits = Layout.bits in
  let nw = Layout.words n in
  if nw = 1 then begin
    let mask = k.(at) in
    let m = ref 0 in
    for j = 0 to n - 1 do
      if mask land (1 lsl src.(j)) <> 0 then m := !m lor (1 lsl j)
    done;
    put o !m
  end
  else
    for w = 0 to nw - 1 do
      let m = ref 0 in
      for b = 0 to min bits (n - (w * bits)) - 1 do
        let s = src.((w * bits) + b) in
        if k.(at + (s / bits)) land (1 lsl (s mod bits)) <> 0 then m := !m lor (1 lsl b)
      done;
      put o !m
    done;
  let vals = at + nw in
  for j = 0 to n - 1 do
    put o k.(vals + src.(j))
  done

let put_procs o (k : t) pi { Layout.fixed; width } =
  put_map o k ~at:0 ~src:pi.src_loc;
  let n = Array.length pi.src_proc in
  o.offs <- grow o.offs n;
  let offs = o.offs in
  let at = ref (Layout.map_size (Array.length pi.src_loc)) in
  for p = 0 to n - 1 do
    offs.(p) <- !at;
    let a = !at + fixed + Layout.map_size pi.nregs.(p) in
    at := if width > 0 then a + 1 + (width * k.(a)) else a
  done;
  for q = 0 to n - 1 do
    let p = pi.src_proc.(q) in
    let a = offs.(p) in
    for i = 0 to fixed - 1 do
      put o k.(a + i)
    done;
    put_map o k ~at:(a + fixed) ~src:pi.src_reg.(q);
    if width > 0 then begin
      let a = a + fixed + Layout.map_size pi.nregs.(p) in
      let len = k.(a) in
      put o len;
      for e = 0 to len - 1 do
        let b = a + 1 + (e * width) in
        put o pi.dst_loc.(k.(b));
        for i = 1 to width - 1 do
          put o k.(b + i)
        done
      done
    end
  done;
  !at

type image = perm -> t -> out -> unit

let image shape pi k o = ignore (put_procs o k pi shape : int)

let permute (image : image) pi k =
  let o = out () in
  o.buf <- Array.make (Array.length k) 0;
  image (compile pi) k o;
  if o.pos <> Array.length k then invalid_arg "Key.permute: image length differs";
  o.buf

let rec orbit_loop (image : image) o k n = function
  | [] -> ()
  | pi :: rest ->
      o.pos <- 0;
      o.less <- false;
      (match image pi k o with
      | () -> if o.less then o.best <- Array.sub o.buf 0 n
      | exception Larger -> ());
      orbit_loop image o k n rest

let orbit_min image o perms k =
  match perms with
  | [] -> k
  | _ ->
      let n = Array.length k in
      o.buf <- grow o.buf n;
      o.best <- k;
      orbit_loop image o k n perms;
      let m = o.best in
      o.best <- [||];
      m
