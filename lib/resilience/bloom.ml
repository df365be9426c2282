(* Bit-set Bloom filter with double hashing: probe i lands on
   h1 + i*(h2|1), all modulo the (power-of-two) size. *)

type t = { bits : int; data : Bytes.t }

let rec pow2_at_least n v = if v >= n then v else pow2_at_least n (v * 2)

let create ~bits =
  let bits = pow2_at_least (max bits 4096) 4096 in
  { bits; data = Bytes.make (bits / 8) '\000' }

let probes = 4

let add_mem t h1 h2 =
  let mask = t.bits - 1 in
  let step = h2 lor 1 in
  let all_set = ref true in
  for i = 0 to probes - 1 do
    let bit = (h1 + (i * step)) land max_int land mask in
    let byte = bit lsr 3 and off = bit land 7 in
    let b = Char.code (Bytes.get t.data byte) in
    if b land (1 lsl off) = 0 then begin
      all_set := false;
      Bytes.set t.data byte (Char.chr (b lor (1 lsl off)))
    end
  done;
  !all_set

let mem t h1 h2 =
  let mask = t.bits - 1 in
  let step = h2 lor 1 in
  let rec probe i =
    if i >= probes then true
    else
      let bit = (h1 + (i * step)) land max_int land mask in
      let byte = bit lsr 3 and off = bit land 7 in
      if Char.code (Bytes.get t.data byte) land (1 lsl off) = 0 then false
      else probe (i + 1)
  in
  probe 0
