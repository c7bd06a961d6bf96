exception Decode_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Decode_error s)) fmt

let get_u16 b off = Bytes.get_uint16_le b off
let set_u16 b off v = Bytes.set_uint16_le b off (v land 0xFFFF)
let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF
let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let get_i64 b off = Bytes.get_int64_le b off
let set_i64 b off v = Bytes.set_int64_le b off v

(* A writer appends at [len] into [buf]; [cap] is how far it may
   write. A growable writer doubles [buf] when it reaches [cap]; a
   fixed one writes in place into a caller's buffer and refuses to
   pass [cap]. *)
type writer = { mutable buf : Bytes.t; mutable len : int; mutable cap : int; growable : bool }

let writer ?(capacity = 64) () =
  let capacity = max 1 capacity in
  { buf = Bytes.create capacity; len = 0; cap = capacity; growable = true }

let into b = { buf = b; len = 0; cap = Bytes.length b; growable = false }

let grow w n =
  if not w.growable then invalid_arg "Bcodec: write past the end of a fixed buffer";
  let need = w.len + n in
  let cap = ref (2 * Bytes.length w.buf) in
  while !cap < need do
    cap := 2 * !cap
  done;
  let b = Bytes.create !cap in
  Bytes.blit w.buf 0 b 0 w.len;
  w.buf <- b;
  w.cap <- !cap

let reserve w n = if w.len + n > w.cap then grow w n

let w_u8 w v =
  reserve w 1;
  Bytes.unsafe_set w.buf w.len (Char.unsafe_chr (v land 0xFF));
  w.len <- w.len + 1

let w_u16 w v =
  reserve w 2;
  set_u16 w.buf w.len v;
  w.len <- w.len + 2

let w_u32 w v =
  reserve w 4;
  set_u32 w.buf w.len v;
  w.len <- w.len + 4

let w_i64 w v =
  reserve w 8;
  Bytes.set_int64_le w.buf w.len v;
  w.len <- w.len + 8

let varint_size v =
  if v < 0 then invalid_arg "Bcodec.varint_size: negative";
  let rec loop v n = if v < 0x80 then n else loop (v lsr 7) (n + 1) in
  loop v 1

let w_int w v =
  if v < 0 then invalid_arg "Bcodec.w_int: negative";
  reserve w (varint_size v);
  let b = w.buf in
  let rec go v i =
    if v < 0x80 then begin
      Bytes.unsafe_set b i (Char.unsafe_chr v);
      i + 1
    end
    else begin
      Bytes.unsafe_set b i (Char.unsafe_chr (0x80 lor (v land 0x7F)));
      go (v lsr 7) (i + 1)
    end
  in
  w.len <- go v w.len

let w_raw w b =
  let n = Bytes.length b in
  reserve w n;
  Bytes.blit b 0 w.buf w.len n;
  w.len <- w.len + n

let w_bytes w b =
  w_int w (Bytes.length b);
  w_raw w b

let w_string w s =
  let n = String.length s in
  w_int w n;
  reserve w n;
  Bytes.blit_string s 0 w.buf w.len n;
  w.len <- w.len + n

let length w = w.len
let contents w = Bytes.sub w.buf 0 w.len

(* The one owner of the block framing every self-checking on-disk
   block shares: body from offset 0, zero pad, CRC-32 of everything
   before it in the last four bytes. The body is written in place. The
   CRC reads the body only and extends over the pad arithmetically
   ({!Crc32.zeros}), so a block costs what its body costs; the bytes
   are those of a CRC over the whole block. *)
let frame ~size body =
  if size < 4 then invalid_arg "Bcodec.frame: block too small";
  let b = Bytes.create size in
  let w = { buf = b; len = 0; cap = size - 4; growable = false } in
  body w;
  let pad = size - 4 - w.len in
  Bytes.fill b w.len pad '\000';
  set_u32 b (size - 4) (Crc32.finish (Crc32.zeros (Crc32.update Crc32.init b ~pos:0 ~len:w.len) pad));
  b

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* Just past the last nonzero byte of [b] before [stop], scanning back
   eight bytes at a time. *)
let body_end b stop =
  let i = ref stop in
  while !i >= 8 && (get64u b (!i - 8) : int64) = 0L do
    i := !i - 8
  done;
  while !i > 0 && Bytes.unsafe_get b (!i - 1) = '\000' do
    decr i
  done;
  !i

(* Whatever precedes the CRC is a body followed by zero bytes, so its
   CRC is the body's extended over those zeros. *)
let check_frame b =
  let n = Bytes.length b in
  n >= 4
  &&
  let stop = n - 4 in
  let e = body_end b stop in
  get_u32 b stop = Crc32.finish (Crc32.zeros (Crc32.update Crc32.init b ~pos:0 ~len:e) (stop - e))

type reader = { buf : Bytes.t; mutable pos : int }

let reader ?(pos = 0) buf = { buf; pos }

let need r n = if r.pos + n > Bytes.length r.buf then fail "truncated: need %d at %d/%d" n r.pos (Bytes.length r.buf)

let r_u8 r =
  need r 1;
  let v = Char.code (Bytes.get r.buf r.pos) in
  r.pos <- r.pos + 1;
  v

let r_u16 r =
  need r 2;
  let v = get_u16 r.buf r.pos in
  r.pos <- r.pos + 2;
  v

let r_u32 r =
  need r 4;
  let v = get_u32 r.buf r.pos in
  r.pos <- r.pos + 4;
  v

let r_i64 r =
  need r 8;
  let v = get_i64 r.buf r.pos in
  r.pos <- r.pos + 8;
  v

let r_int r =
  let rec loop shift acc =
    if shift > 62 then fail "varint too long";
    let b = r_u8 r in
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 = 0 then acc else loop (shift + 7) acc
  in
  loop 0 0

let r_raw r n =
  if n < 0 then fail "negative length";
  need r n;
  let b = Bytes.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  b

let r_bytes r =
  let n = r_int r in
  r_raw r n

let r_string r = Bytes.unsafe_to_string (r_bytes r)
let remaining r = Bytes.length r.buf - r.pos
let position r = r.pos
