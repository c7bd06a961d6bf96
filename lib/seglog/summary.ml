module Bcodec = S4_util.Bcodec

type t = { epoch : int; tags : Tag.t array }

let magic = 0x5353 (* "SS" *)

let encode ~block_size t =
  Bcodec.frame ~size:block_size (fun w ->
      Bcodec.w_u16 w magic;
      Bcodec.w_int w t.epoch;
      Bcodec.w_int w (Array.length t.tags);
      Array.iter (Tag.encode w) t.tags)

let decode b =
  let n = Bytes.length b in
  if n < 10 || Bcodec.get_u16 b 0 <> magic || not (Bcodec.check_frame b) then None
  else
    try
      let r = Bcodec.reader ~pos:2 b in
      let epoch = Bcodec.r_int r in
      let count = Bcodec.r_int r in
      let tags = Array.init count (fun _ -> Tag.decode r) in
      Some { epoch; tags }
    with Bcodec.Decode_error _ -> None
