(* Pure-OCaml SHA-256 (FIPS 180-4). The audit chain needs a real
   cryptographic hash — CRC-32 is trivially forgeable — and the
   toolchain carries no crypto library, so the compression function
   lives here. Chaining costs two compression calls per audit record
   (a 32-byte head plus a record of tens of bytes), so the kernel
   loads whole big-endian words, compresses straight out of the
   caller's buffer when a full block is available, and pads in place.
   All 32-bit word arithmetic is done in native ints masked to 32 bits
   (OCaml ints are 63-bit on every platform we target). *)

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4;
    0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe;
    0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f;
    0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7;
    0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
    0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116;
    0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
    0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7;
    0xc67178f2;
  |]

let mask = 0xFFFFFFFF

let iv = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

type ctx = {
  h : int array;  (* 8 state words *)
  block : Bytes.t;  (* 64-byte input block being filled *)
  mutable fill : int;  (* bytes of [block] in use *)
  mutable total : int;  (* total message bytes so far *)
  w : int array;  (* 64-entry message schedule, reused per block *)
}

let init () = { h = Array.copy iv; block = Bytes.create 64; fill = 0; total = 0; w = Array.make 64 0 }

let reset ctx =
  Array.blit iv 0 ctx.h 0 8;
  ctx.fill <- 0;
  ctx.total <- 0

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

(* Big-endian 32-bit load as a non-negative native int; the caller
   guarantees [i + 4 <= Bytes.length b]. *)
let be32 b i =
  let v = get32u b i in
  Int32.to_int (if Sys.big_endian then v else swap32 v) land mask

(* The sigma functions of FIPS 180-4 on 32-bit words held in native
   ints. Each rotation is a pair of shifts whose stray high bits are
   cleared by one mask at the end. *)
let[@inline] big_sigma0 x =
  ((x lsr 2) lor (x lsl 30)) lxor ((x lsr 13) lor (x lsl 19)) lxor ((x lsr 22) lor (x lsl 10))
  land mask

let[@inline] big_sigma1 x =
  ((x lsr 6) lor (x lsl 26)) lxor ((x lsr 11) lor (x lsl 21)) lxor ((x lsr 25) lor (x lsl 7))
  land mask

let[@inline] small_sigma0 x =
  ((x lsr 7) lor (x lsl 25)) lxor ((x lsr 18) lor (x lsl 14)) lxor (x lsr 3) land mask

let[@inline] small_sigma1 x =
  ((x lsr 17) lor (x lsl 15)) lxor ((x lsr 19) lor (x lsl 13)) lxor (x lsr 10) land mask

(* One compression of the 64 bytes at [b.[off]], which the caller has
   bounds-checked. *)
let compress ctx b off =
  let w = ctx.w in
  for i = 0 to 15 do
    Array.unsafe_set w i (be32 b (off + (4 * i)))
  done;
  for i = 16 to 63 do
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16)
       + small_sigma0 (Array.unsafe_get w (i - 15))
       + Array.unsafe_get w (i - 7)
       + small_sigma1 (Array.unsafe_get w (i - 2)))
      land mask)
  done;
  let h = ctx.h in
  let a = ref h.(0) and bb = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let e' = !e and a' = !a in
    let ch = e' land !f lxor (lnot e' land !g) in
    let t1 = !hh + big_sigma1 e' + ch + Array.unsafe_get k i + Array.unsafe_get w i in
    let t2 = big_sigma0 a' + (a' land !bb lxor (a' land !c) lxor (!bb land !c)) in
    hh := !g;
    g := !f;
    f := e';
    e := (!d + t1) land mask;
    d := !c;
    c := !bb;
    bb := a';
    a := (t1 + t2) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !bb) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let feed_sub ctx buf pos len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then invalid_arg "Sha256.feed_sub";
  ctx.total <- ctx.total + len;
  let pos = ref pos and len = ref len in
  if ctx.fill > 0 then begin
    let n = min !len (64 - ctx.fill) in
    Bytes.blit buf !pos ctx.block ctx.fill n;
    ctx.fill <- ctx.fill + n;
    pos := !pos + n;
    len := !len - n;
    if ctx.fill = 64 then begin
      compress ctx ctx.block 0;
      ctx.fill <- 0
    end
  end;
  while !len >= 64 do
    compress ctx buf !pos;
    pos := !pos + 64;
    len := !len - 64
  done;
  if !len > 0 then begin
    Bytes.blit buf !pos ctx.block 0 !len;
    ctx.fill <- !len
  end

let feed ctx buf = feed_sub ctx buf 0 (Bytes.length buf)
let feed_string ctx s = feed ctx (Bytes.unsafe_of_string s)

(* Padding — 0x80, zeros to 56 mod 64, the 64-bit big-endian bit
   length — is written in place into the context's block. *)
let finish ctx =
  let b = ctx.block in
  Bytes.unsafe_set b ctx.fill '\x80';
  let fill = ctx.fill + 1 in
  if fill > 56 then begin
    Bytes.fill b fill (64 - fill) '\000';
    compress ctx b 0;
    Bytes.fill b 0 56 '\000'
  end
  else Bytes.fill b fill (56 - fill) '\000';
  Bytes.set_int64_be b 56 (Int64.of_int (ctx.total * 8));
  compress ctx b 0;
  ctx.fill <- 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  Bytes.unsafe_to_string out

let digest_bytes b =
  let ctx = init () in
  feed ctx b;
  finish ctx

let digest_string s = digest_bytes (Bytes.unsafe_of_string s)

let to_hex d =
  let buf = Buffer.create (2 * String.length d) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) d;
  Buffer.contents buf
