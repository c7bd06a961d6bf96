module Bcodec = S4_util.Bcodec

type entry = { oid : int64; seq : int; time : int64; kind : int; payload : Bytes.t }

let magic = 0x424A (* "JB" *)

let encoded_size ~seq ~payload_len =
  8 + Bcodec.varint_size seq + 8 + 1 + Bcodec.varint_size payload_len + payload_len

let entry_size e = encoded_size ~seq:e.seq ~payload_len:(Bytes.length e.payload)

(* magic(2) + prev(8) + count(up to 3) + crc(4) *)
let header_size = 2 + 8 + 3 + 4

let fits ~block_size ~current e = header_size + current + entry_size e <= block_size

(* The trailing section follows the last entry: a flag byte, then the
   section as a length-prefixed byte string. A block without one has
   its zero pad there, so its bytes are those of the tail-less layout. *)
let tail_flag = 1

let tail_fits ~block_size ~current len =
  header_size + current + 1 + Bcodec.varint_size len + len <= block_size

let encode ~block_size ~prev ?tail entries =
  Bcodec.frame ~size:block_size (fun w ->
      Bcodec.w_u16 w magic;
      Bcodec.w_i64 w (Int64.of_int prev);
      Bcodec.w_int w (List.length entries);
      List.iter
        (fun e ->
          Bcodec.w_i64 w e.oid;
          Bcodec.w_int w e.seq;
          Bcodec.w_i64 w e.time;
          Bcodec.w_u8 w e.kind;
          Bcodec.w_bytes w e.payload)
        entries;
      Option.iter
        (fun s ->
          Bcodec.w_u8 w tail_flag;
          Bcodec.w_bytes w s)
        tail)

(* The block's prev pointer, entries and the place of its trailing
   section, if any. *)
let decode_all b =
  let n = Bytes.length b in
  if n < header_size || Bcodec.get_u16 b 0 <> magic || not (Bcodec.check_frame b) then None
  else
    try
      let r = Bcodec.reader ~pos:2 b in
      let prev = Int64.to_int (Bcodec.r_i64 r) in
      let count = Bcodec.r_int r in
      let read_entry () =
        let oid = Bcodec.r_i64 r in
        let seq = Bcodec.r_int r in
        let time = Bcodec.r_i64 r in
        let kind = Bcodec.r_u8 r in
        let payload = Bcodec.r_bytes r in
        { oid; seq; time; kind; payload }
      in
      let entries = List.init count (fun _ -> read_entry ()) in
      let tail =
        if Bcodec.remaining r <= 4 || Bytes.get_uint8 b (Bcodec.position r) <> tail_flag then None
        else begin
          ignore (Bcodec.r_u8 r);
          let len = Bcodec.r_int r in
          let off = Bcodec.position r in
          if len < 0 || off + len > n - 4 then raise (Bcodec.Decode_error "journal block: bad tail");
          Some (off, len)
        end
      in
      Some (prev, entries, tail)
    with Bcodec.Decode_error _ -> None

let decode b = Option.map (fun (prev, entries, _) -> (prev, entries)) (decode_all b)
let tail b = Option.bind (decode_all b) (fun (_, _, tail) -> tail)
