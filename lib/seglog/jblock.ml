module Bcodec = S4_util.Bcodec

type entry = { oid : int64; seq : int; time : int64; kind : int; payload : Bytes.t }

let magic = 0x424A (* "JB" *)

let encoded_size ~seq ~payload_len =
  8 + Bcodec.varint_size seq + 8 + 1 + Bcodec.varint_size payload_len + payload_len

let entry_size e = encoded_size ~seq:e.seq ~payload_len:(Bytes.length e.payload)

(* magic(2) + prev(8) + count(up to 3) + crc(4) *)
let header_size = 2 + 8 + 3 + 4

let fits ~block_size ~current e = header_size + current + entry_size e <= block_size

let encode ~block_size ~prev entries =
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
        entries)

let decode b =
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
      Some (prev, entries)
    with Bcodec.Decode_error _ -> None
