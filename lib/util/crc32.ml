type t = int

let polynomial = 0xEDB88320

(* Slice-by-8 tables: [tables.((k * 256) + n)] is the CRC register
   after byte [n] followed by [k] zero bytes, so one step folds eight
   input bytes with eight independent lookups instead of eight
   dependent ones. Slice 0 is the classic bytewise table. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then polynomial lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let init = 0xFFFFFFFF

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

(* Little-endian 32-bit load as a non-negative native int. *)
let le32 b i =
  let v = get32u b i in
  Int32.to_int (if Sys.big_endian then swap32 v else v) land 0xFFFFFFFF

let update acc b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Crc32.update";
  let t = tables in
  let c = ref acc and i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let lo = !c lxor le32 b !i and hi = le32 b (!i + 4) in
    c :=
      Array.unsafe_get t (0x700 + (lo land 0xFF))
      lxor Array.unsafe_get t (0x600 + ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get t (0x500 + ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get t (0x400 + (lo lsr 24))
      lxor Array.unsafe_get t (0x300 + (hi land 0xFF))
      lxor Array.unsafe_get t (0x200 + ((hi lsr 8) land 0xFF))
      lxor Array.unsafe_get t (0x100 + ((hi lsr 16) land 0xFF))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  let stop = pos + len in
  while !i < stop do
    c := Array.unsafe_get t ((!c lxor Char.code (Bytes.unsafe_get b !i)) land 0xFF) lxor (!c lsr 8);
    incr i
  done;
  !c

let finish acc = acc lxor 0xFFFFFFFF
let sub b ~pos ~len = finish (update init b ~pos ~len)
let bytes b = sub b ~pos:0 ~len:(Bytes.length b)
let string s = bytes (Bytes.unsafe_of_string s)
